// Package core is the quantum cloud simulation environment — the paper's
// primary contribution (§3, §5). One engine, the Broker, runs the
// end-to-end job flow: it applies an allocation policy (Algorithm 1) to
// partition each large circuit across QDevices, runs the partitions in
// parallel on the event-driven kernel, simulates blocking inter-device
// classical communication, computes final fidelity with the Eq. 8
// penalty, and reports every lifecycle event to a StreamRecorder.
// QCloudSimEnv is the batch driver: it feeds a job slice to a Broker at
// the jobs' arrival times and logs everything to a records.Manager (the
// paper's JobRecordsManager). Serve mode feeds a Broker from a stream.
package core

import (
	"fmt"
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
	// drivers that honor the config (experiments.RunMode) call
	// EnableCalibrationDrift right after workload submission.
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

// batchWindowCap sizes the rolling metrics windows of the Broker behind
// a QCloudSimEnv. Batch results are computed from the records, so the
// windows only need to exist.
const batchWindowCap = 16

// QCloudSimEnv is a batch run: the Broker fed from a job slice, with
// every lifecycle event kept in a records.Manager. It is the top-level
// object users interact with.
type QCloudSimEnv struct {
	// Env is the discrete-event kernel.
	Env *sim.Environment
	// Broker owns the fleet, the allocation policy and the pending-job
	// queue. It corresponds to the paper's QCloud plus Broker: the
	// device-selection step is delegated to the pluggable Policy (users
	// implement policy.Policy for custom brokers).
	Broker *Broker
	// Records collects lifecycle events and metrics.
	Records *records.Manager

	// submitted records that SubmitWorkload was called, which
	// EnableCalibrationDrift requires.
	submitted bool
	// feeding counts submitted workloads whose last job has not yet
	// arrived; calibration drift runs until it is zero and no job is
	// executing.
	feeding int
}

// NewQCloudSimEnv assembles a simulation over the given fleet with the
// given allocation policy.
func NewQCloudSimEnv(env *sim.Environment, fleet []*device.Device, pol policy.Policy, cfg Config) (*QCloudSimEnv, error) {
	rec := records.NewManager()
	b, err := newBroker(env, fleet, pol, cfg, ManagerRecorder{M: rec}, batchWindowCap)
	if err != nil {
		return nil, err
	}
	return &QCloudSimEnv{Env: env, Broker: b, Records: rec}, nil
}

// SubmitWorkload releases each job into the Broker at its arrival time.
// Jobs must be sorted by arrival time. One self-rescheduling timer walks
// the slice: each firing admits every job that is due, in slice order,
// and sleeps until the next arrival. The clock reaches an arrival as
// now + (arrival - now), which can round below it; the job is admitted
// then all the same, and the recorded arrival times are pinned by
// TestBatchEngineDigests.
func (e *QCloudSimEnv) SubmitWorkload(jobs []*job.QJob) {
	e.submitted = true
	e.feeding++
	next := 0
	var feed, wake func()
	// feed admits every job due now, then sleeps until the next one.
	feed = func() {
		now := e.Env.Now()
		for ; next < len(jobs); next++ {
			if j := jobs[next]; j.ArrivalTime > now {
				e.Env.AfterFunc(j.ArrivalTime-now, wake)
				return
			}
			e.Broker.Admit(jobs[next])
		}
		e.feeding--
	}
	// wake admits the job it slept for, then carries on.
	wake = func() {
		e.Broker.Admit(jobs[next])
		next++
		feed()
	}
	e.Env.AfterFunc(0, feed)
}

// EnableCalibrationDrift starts a background recalibration ticker: every
// interval simulated seconds, each device's calibration takes one
// multiplicative random-walk step of relative magnitude rel and its
// error score is recomputed, so error-aware policies see *time-varying*
// hardware quality — the dynamic variability the paper lists as absent
// from its model (§7.2). The ticker stops once every job has arrived and
// none is executing: a queued job starts only on an arrival or a
// release, never on a recalibration. It must be called after
// SubmitWorkload so it can observe completion.
func (e *QCloudSimEnv) EnableCalibrationDrift(interval, rel float64, seed int64) error {
	if interval <= 0 {
		return fmt.Errorf("core: drift interval %g", interval)
	}
	if rel < 0 {
		return fmt.Errorf("core: drift magnitude %g", rel)
	}
	if !e.submitted {
		return fmt.Errorf("core: EnableCalibrationDrift requires a submitted workload")
	}
	rng := rand.New(rand.NewSource(seed))
	var tick func()
	tick = func() {
		if e.feeding == 0 && e.Broker.Active() == 0 {
			return
		}
		for _, d := range e.Broker.Devices() {
			if err := d.Recalibrate(calib.Drift(rng, d.Calibration(), rel)); err != nil {
				panic(fmt.Sprintf("core: drift recalibration failed: %v", err))
			}
		}
		e.Env.AfterFunc(interval, tick)
	}
	e.Env.AfterFunc(0, func() { e.Env.AfterFunc(interval, tick) })
	return nil
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
	if n := e.Records.NumPending(); n > 0 || e.Broker.QueueDepth() > 0 {
		return Results{}, fmt.Errorf("core: %d jobs unfinished (policy %q cannot place them)",
			n, e.Broker.Policy().Name())
	}
	mean, std := e.Records.FidelityMeanStd()
	return Results{
		Policy:            e.Broker.Policy().Name(),
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
