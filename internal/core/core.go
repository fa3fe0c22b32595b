// Package core is the quantum cloud simulation environment — the paper's
// primary contribution (§3, §5). It orchestrates the end-to-end job flow:
// a JobGenerator feeds QJobs to the Broker, which applies an allocation
// policy (Algorithm 1) to partition each large circuit across QDevices,
// runs the partitions in parallel on the event-driven kernel, simulates
// blocking inter-device classical communication, computes final fidelity
// with the Eq. 8 penalty, and logs everything to the JobRecordsManager.
package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/calib"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/sim"
)

// Config carries the model constants of the simulation.
type Config struct {
	// M and K are the Eq. 3 workload constants (circuit templates and
	// parameter updates). The §6.1 worked example uses the CLOPS
	// benchmark's M=100, K=10; the case study uses M=K=10 so that the
	// 1,000-job workload completes within the paper's reported horizon.
	M, K int
	// Phi is the per-link communication fidelity penalty (Eq. 8).
	Phi float64
	// Lambda is the per-qubit classical communication latency (Eq. 9).
	Lambda float64
	// Backfill relaxes strict FIFO dispatch: when the head job cannot be
	// placed, later queued jobs that fit may start ahead of it (EASY-style
	// skip-ahead). Off by default, matching the paper's FIFO queues.
	Backfill bool
	// Drift, when enabled, runs the workload on time-varying hardware:
	// drivers that honor the config (experiments.RunMode) start the
	// EnableCalibrationDrift process right after workload submission.
	// The zero value keeps the paper's static calibration.
	Drift DriftConfig
}

// DriftConfig declaratively configures calibration drift (see
// EnableCalibrationDrift). Carried inside Config, it travels wherever
// the config does — including into shard worker processes — so a
// drifting scenario reproduces identically on every executor.
type DriftConfig struct {
	// IntervalS is the simulated seconds between recalibration steps;
	// 0 disables drift.
	IntervalS float64 `json:"interval_s,omitempty"`
	// Rel is the relative magnitude of each multiplicative
	// random-walk step.
	Rel float64 `json:"rel,omitempty"`
	// Seed drives the drift random walk.
	Seed int64 `json:"seed,omitempty"`
}

// Enabled reports whether drift is configured.
func (d DriftConfig) Enabled() bool { return d.IntervalS > 0 }

// DefaultConfig returns the case-study configuration.
func DefaultConfig() Config {
	return Config{M: 10, K: 10, Phi: metrics.DefaultPhi, Lambda: metrics.DefaultLambda}
}

func (c Config) validate() error {
	switch {
	case c.M <= 0 || c.K <= 0:
		return fmt.Errorf("core: M=%d K=%d must be positive", c.M, c.K)
	case c.Phi <= 0 || c.Phi > 1:
		return fmt.Errorf("core: Phi=%g outside (0,1]", c.Phi)
	case c.Lambda < 0:
		return fmt.Errorf("core: Lambda=%g negative", c.Lambda)
	case c.Drift.IntervalS < 0:
		return fmt.Errorf("core: drift interval %g negative", c.Drift.IntervalS)
	case c.Drift.Enabled() && c.Drift.Rel < 0:
		return fmt.Errorf("core: drift magnitude %g negative", c.Drift.Rel)
	}
	return nil
}

// QCloud manages the device fleet, applies the allocation policy, and
// owns the pending-job queue. It corresponds to the paper's QCloud plus
// Broker: the Broker's device-selection step is delegated to the
// pluggable Policy (users implement policy.Policy for custom brokers).
type QCloud struct {
	env     *sim.Environment
	devices []*device.Device
	pol     policy.Policy
	rec     *records.Manager
	cfg     Config
	pending fifo[*job.QJob]

	// lifecycle tracking for auxiliary processes (calibration drift).
	workloadSubmitted bool
	generatorDone     bool
	activeJobs        int
}

// QCloudSimEnv bundles the simulation environment, cloud, and records —
// the top-level object users interact with.
type QCloudSimEnv struct {
	// Env is the discrete-event kernel.
	Env *sim.Environment
	// Cloud manages devices and scheduling.
	Cloud *QCloud
	// Records collects lifecycle events and metrics.
	Records *records.Manager
}

// NewQCloudSimEnv assembles a simulation over the given fleet with the
// given allocation policy.
func NewQCloudSimEnv(env *sim.Environment, fleet []*device.Device, pol policy.Policy, cfg Config) (*QCloudSimEnv, error) {
	if len(fleet) == 0 {
		return nil, fmt.Errorf("core: empty device fleet")
	}
	if pol == nil {
		return nil, fmt.Errorf("core: nil policy")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rec := records.NewManager()
	cloud := &QCloud{env: env, devices: fleet, pol: pol, rec: rec, cfg: cfg}
	return &QCloudSimEnv{Env: env, Cloud: cloud, Records: rec}, nil
}

// Devices returns the fleet.
func (c *QCloud) Devices() []*device.Device { return c.devices }

// Policy returns the active allocation policy.
func (c *QCloud) Policy() policy.Policy { return c.pol }

// PendingJobs returns the number of jobs waiting for allocation.
func (c *QCloud) PendingJobs() int { return c.pending.Len() }

// States snapshots the fleet for a policy decision.
func (c *QCloud) States() []policy.DeviceState {
	out := make([]policy.DeviceState, len(c.devices))
	for i, d := range c.devices {
		eps1Q, eps2Q, epsRO := d.MeanErrors()
		out[i] = policy.DeviceState{
			Index:       i,
			Name:        d.Name(),
			Free:        d.FreeQubits(),
			Capacity:    d.NumQubits(),
			ErrorScore:  d.ErrorScore(),
			CLOPS:       d.CLOPS(),
			Utilization: d.Utilization(),
			Eps1Q:       eps1Q,
			Eps2Q:       eps2Q,
			EpsRO:       epsRO,
		}
	}
	return out
}

// SubmitWorkload starts a JobGenerator process that releases each job at
// its arrival time. Jobs must be sorted by arrival time.
func (e *QCloudSimEnv) SubmitWorkload(jobs []*job.QJob) {
	cloud := e.Cloud
	cloud.workloadSubmitted = true
	e.Env.NamedProcess("job-generator", func(p *sim.Proc) any {
		for _, j := range jobs {
			if j.ArrivalTime > p.Now() {
				p.Sleep(j.ArrivalTime - p.Now())
			}
			cloud.rec.LogArrival(j.ID, p.Now())
			cloud.submit(j)
		}
		cloud.generatorDone = true
		return nil
	})
}

// EnableCalibrationDrift starts a background recalibration process: every
// interval simulated seconds, each device's calibration takes one
// multiplicative random-walk step of relative magnitude rel and its
// error score is recomputed, so error-aware policies see *time-varying*
// hardware quality — the dynamic variability the paper lists as absent
// from its model (§7.2). The process stops once the workload completes.
// It must be called after SubmitWorkload so it can observe completion.
func (e *QCloudSimEnv) EnableCalibrationDrift(interval, rel float64, seed int64) error {
	if interval <= 0 {
		return fmt.Errorf("core: drift interval %g", interval)
	}
	if rel < 0 {
		return fmt.Errorf("core: drift magnitude %g", rel)
	}
	cloud := e.Cloud
	if !cloud.workloadSubmitted {
		return fmt.Errorf("core: EnableCalibrationDrift requires a submitted workload")
	}
	rng := rand.New(rand.NewSource(seed))
	e.Env.NamedProcess("calibration-drift", func(p *sim.Proc) any {
		for {
			p.Sleep(interval)
			if cloud.generatorDone && cloud.pending.Len() == 0 && cloud.activeJobs == 0 {
				return nil
			}
			for _, d := range cloud.devices {
				if err := d.Recalibrate(calib.Drift(rng, d.Calibration(), rel)); err != nil {
					panic(fmt.Sprintf("core: drift recalibration failed: %v", err))
				}
			}
		}
	})
	return nil
}

// submit enqueues a job and attempts dispatch.
func (c *QCloud) submit(j *job.QJob) {
	c.pending.Push(j)
	c.dispatch()
}

// dispatch places pending jobs until no further placement is possible.
// In FIFO mode (default) only the head job is considered, so a blocked
// head blocks the queue — keeping ordering fair across all policies. In
// backfill mode later jobs that fit may skip ahead of a blocked head.
// dispatch is called on job submission and on every qubit release.
func (c *QCloud) dispatch() {
	for {
		placedAny := false
		for idx := 0; idx < c.pending.Len(); idx++ {
			j := c.pending.At(idx)
			states := c.States()
			allocs := c.pol.Allocate(j, states)
			if allocs != nil {
				if err := policy.Validate(j, states, allocs); err != nil {
					panic(fmt.Sprintf("core: policy %q produced invalid allocation: %v", c.pol.Name(), err))
				}
				c.pending.RemoveAt(idx)
				c.startJob(j, allocs)
				placedAny = true
				break
			}
			if !c.cfg.Backfill {
				break
			}
		}
		if !placedAny {
			return
		}
	}
}

// startJob reserves qubits and launches the job's execution process —
// Algorithm 1 lines 6–14.
func (c *QCloud) startJob(j *job.QJob, allocs []policy.Allocation) {
	// Reserve synchronously: the policy guaranteed feasibility and no
	// simulation time passes between decision and reservation.
	grants := make([]*device.Allocation, len(allocs))
	devNames := make([]string, len(allocs))
	for i, a := range allocs {
		g, err := c.devices[a.DeviceIndex].Allocate(a.Qubits)
		if err != nil {
			panic(fmt.Sprintf("core: reservation failed after validation: %v", err))
		}
		grants[i] = g
		devNames[i] = c.devices[a.DeviceIndex].Name()
	}
	c.rec.LogStart(j.ID, c.env.Now())
	c.activeJobs++

	c.env.NamedProcess("job:"+j.ID, func(p *sim.Proc) any {
		// Parallel execution: one timed sub-job per device; the job
		// completes when the slowest partition finishes (T = max T_i).
		subs := make([]*sim.Event, len(allocs))
		for i, a := range allocs {
			d := c.devices[a.DeviceIndex]
			subs[i] = p.Env().Timeout(d.ProcessTime(c.cfg.M, c.cfg.K, j.Shots), d.Name())
		}
		if _, err := p.WaitAll(subs...); err != nil {
			panic(fmt.Sprintf("core: sub-job failed: %v", err))
		}

		// Blocking classical communication across the k-1 links (Eq. 9).
		commTime := metrics.CommunicationTime(j.NumQubits, c.cfg.Lambda, len(allocs))
		if commTime > 0 {
			p.Sleep(commTime)
		}

		fidelity := c.jobFidelity(j, allocs)

		for _, g := range grants {
			if err := g.Device.Release(g); err != nil {
				panic(fmt.Sprintf("core: release failed: %v", err))
			}
		}
		c.rec.LogFinish(j.ID, p.Now(), fidelity, commTime, devNames)
		c.activeJobs--
		c.dispatch()
		return nil
	})
}

// jobFidelity computes the job's final fidelity from per-partition
// fidelities (Eqs. 4–8). Two-qubit gates are attributed to partitions in
// proportion to their qubit share.
func (c *QCloud) jobFidelity(j *job.QJob, allocs []policy.Allocation) float64 {
	fids := make([]float64, len(allocs))
	qubits := make([]int, len(allocs))
	for i, a := range allocs {
		eps1Q, eps2Q, epsRO := c.devices[a.DeviceIndex].MeanErrors()
		t2i := int(math.Round(float64(j.TwoQubitGates) * float64(a.Qubits) / float64(j.NumQubits)))
		fids[i] = metrics.PartitionFidelity(eps1Q, eps2Q, epsRO, j.Depth, a.Qubits, t2i)
		qubits[i] = a.Qubits
	}
	return metrics.FinalFidelity(fids, qubits, c.cfg.Phi)
}

// Results summarizes a completed simulation in the paper's Table 2
// metrics.
type Results struct {
	// Policy is the allocation mode that produced these results.
	Policy string
	// TotalSimTime is T_sim: the simulated time at which the last job
	// completed.
	TotalSimTime float64
	// FidelityMean and FidelityStd are μF and σF over finished jobs.
	FidelityMean, FidelityStd float64
	// TotalCommTime is T_comm summed over all jobs.
	TotalCommTime float64
	// JobsFinished counts completed jobs.
	JobsFinished int
	// MeanWaitTime, MeanTurnaround and MeanDevicesPerJob are secondary
	// diagnostics used in the discussion.
	MeanWaitTime, MeanTurnaround, MeanDevicesPerJob float64
}

// Run drives the simulation to completion and summarizes the results. It
// returns an error if any submitted job could never be placed (e.g. a
// job exceeding cloud capacity under the active policy).
func (e *QCloudSimEnv) Run() (Results, error) {
	e.Env.Run()
	if n := e.Records.NumPending(); n > 0 || e.Cloud.PendingJobs() > 0 {
		return Results{}, fmt.Errorf("core: %d jobs unfinished (policy %q cannot place them)",
			n, e.Cloud.pol.Name())
	}
	mean, std := e.Records.FidelityMeanStd()
	return Results{
		Policy:            e.Cloud.pol.Name(),
		TotalSimTime:      e.Records.Makespan(),
		FidelityMean:      mean,
		FidelityStd:       std,
		TotalCommTime:     e.Records.TotalCommTime(),
		JobsFinished:      e.Records.NumFinished(),
		MeanWaitTime:      e.Records.MeanWaitTime(),
		MeanTurnaround:    e.Records.MeanTurnaround(),
		MeanDevicesPerJob: e.Records.MeanDevicesPerJob(),
	}, nil
}

// String formats results as a Table 2 row.
func (r Results) String() string {
	return fmt.Sprintf("%-8s Tsim=%12.2f  muF=%.5f +- %.5f  Tcomm=%10.2f  k=%.2f  wait=%.1f",
		r.Policy, r.TotalSimTime, r.FidelityMean, r.FidelityStd, r.TotalCommTime,
		r.MeanDevicesPerJob, r.MeanWaitTime)
}
