package experiments

import (
	"context"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/experiments/runner"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/stats"
)

// ExecOptions carries the orchestration knobs every executor
// understands — the single options struct shared by the in-process
// pool (Sequential, Parallel) and the multi-process Sharded executor,
// which embeds it in ShardOptions.
type ExecOptions struct {
	// Workers caps concurrent simulations. In-process, <= 0 uses
	// GOMAXPROCS; under sharded execution it sizes each worker
	// process's internal pool (<= 1 keeps workers sequential).
	Workers int
	// Retries is the crash respawn budget per shard: 0 means
	// shard.DefaultRetries, negative disables retries. In-process
	// executors have no crash domain and ignore it.
	Retries int
	// OnProgress, if set, receives one callback per finished task,
	// whichever executor ran it.
	OnProgress func(runner.Progress)
}

// RunArtifact is one completed simulation task: the exact configuration
// that produced it, the headline results, and the full run for deeper
// analysis. Artifacts are what the runner aggregates into a manifest.
type RunArtifact struct {
	// ID uniquely names the task, e.g. "mode/speed" or "phi-sweep/speed/0.95".
	ID string
	// Kind groups tasks: "mode", "phi-sweep", "lambda-sweep",
	// "replicate", "rl-deploy".
	Kind string
	// Mode is the allocation strategy simulated.
	Mode string
	// Param is the swept parameter value (sweep kinds only).
	Param float64
	// Workload and Core snapshot the configuration the task ran with;
	// FleetPreset names the device fleet, FleetSeed and RLSeed pin the
	// remaining random streams. TrainSteps and RLDeterministic pin the
	// rlbase policy (training budget and sampled-vs-mean deployment).
	Workload    job.SyntheticConfig
	Core        core.Config
	FleetPreset string
	// TracePath names the replayed workload trace; empty for synthetic
	// workloads.
	TracePath       string
	FleetSeed       int64
	RLSeed          int64
	TrainSteps      int
	RLDeterministic bool
	// Results holds the Table 2 metrics.
	Results core.Results
	// Wall is the host wall-clock duration of the simulation.
	Wall time.Duration
	// Run is the full mode run (records, per-job fidelities). It is
	// populated only where callers need it (RunAllParallel, which feeds
	// Fig. 6); sweep and replication artifacts carry just Results so a
	// 100-seed replication does not pin 100 record sets in memory.
	Run *ModeRun
}

// Summary flattens the artifact for manifest export. The rlbase policy
// knobs are emitted only for rlbase rows; they do not affect the
// heuristic modes.
func (a *RunArtifact) Summary() records.RunSummary {
	s := records.RunSummary{
		ID:                a.ID,
		Kind:              a.Kind,
		Mode:              a.Mode,
		Param:             a.Param,
		WorkloadSeed:      a.Workload.Seed,
		FleetSeed:         a.FleetSeed,
		FleetPreset:       a.FleetPreset,
		Phi:               a.Core.Phi,
		Lambda:            a.Core.Lambda,
		Jobs:              a.Workload.N,
		MeanInterarrivalS: a.Workload.MeanInterarrival,
		TracePath:         a.TracePath,
		TsimS:             a.Results.TotalSimTime,
		FidelityMean:      a.Results.FidelityMean,
		FidelityStd:       a.Results.FidelityStd,
		TcommS:            a.Results.TotalCommTime,
		MeanDevicesPerJob: a.Results.MeanDevicesPerJob,
		MeanWaitS:         a.Results.MeanWaitTime,
		WallMS:            float64(a.Wall) / float64(time.Millisecond),
	}
	if a.TracePath != "" {
		// Trace rows report what the trace delivered; the synthetic
		// generator's size and arrival knobs never applied.
		s.Jobs = a.Results.JobsFinished
		s.MeanInterarrivalS = 0
	}
	if a.Mode == "rlbase" {
		steps, seed, det := a.TrainSteps, a.RLSeed, a.RLDeterministic
		s.TrainSteps = &steps
		s.RLSeed = &seed
		s.RLDeterministic = &det
	}
	return s
}

// snapshot returns a config-identical CaseStudy whose state is fully
// private to one task: value fields are copied and the cached trained
// policy (if any) is deep-cloned, because MLP forward passes mutate
// activation caches and must not be shared across workers. Per-task
// determinism then follows from the seeds captured in the snapshot
// (Workload.Seed, FleetSeed, RLSeed) — no random stream is shared.
func (cs *CaseStudy) snapshot() *CaseStudy {
	c := *cs
	if cs.trained != nil {
		c.trained = cs.trained.Clone()
	}
	return &c
}

// ensureTrained trains the PPO policy up front when any requested mode
// needs a model (per the policy registry), so worker snapshots share
// identical (cloned) weights and training cost is paid once rather
// than once per task.
func (cs *CaseStudy) ensureTrained(modes ...string) error {
	for _, m := range modes {
		if policy.NeedsModel(m) {
			_, _, err := cs.TrainRL(nil)
			return err
		}
	}
	return nil
}

// runSpec describes one simulation task before execution.
type runSpec struct {
	id, kind, mode string
	param          float64
	// keepRun retains the full ModeRun on the artifact; leave false
	// when only Results is consumed so the run's records can be freed.
	keepRun bool
	// mutate adapts the task's private snapshot (sweep value, workload
	// seed). Nil means run the snapshot unchanged.
	mutate func(*CaseStudy)
}

// task converts a spec into a pool task that runs on a private snapshot.
func (cs *CaseStudy) task(spec runSpec) runner.Task[RunArtifact] {
	return runner.Task[RunArtifact]{
		Label: spec.id,
		Run: func(context.Context) (RunArtifact, error) {
			snap := cs.snapshot()
			if spec.mutate != nil {
				spec.mutate(snap)
			}
			//lint:allow detlint wall-clock run duration is manifest metadata about the host, not simulation state
			start := time.Now()
			run, err := snap.RunMode(spec.mode)
			if err != nil {
				return RunArtifact{}, err
			}
			art := RunArtifact{
				ID:              spec.id,
				Kind:            spec.kind,
				Mode:            spec.mode,
				Param:           spec.param,
				Workload:        snap.Workload,
				Core:            snap.Core,
				FleetPreset:     snap.FleetPreset,
				TracePath:       snap.TracePath,
				FleetSeed:       snap.FleetSeed,
				RLSeed:          snap.RLSeed,
				TrainSteps:      snap.TrainSteps,
				RLDeterministic: snap.RLDeterministic,
				Results:         run.Results,
				Wall:            time.Since(start),
			}
			if spec.keepRun {
				art.Run = run
			}
			return art, nil
		},
	}
}

// runSpecs executes specs through the worker pool.
func (cs *CaseStudy) runSpecs(ctx context.Context, opt ExecOptions, specs []runSpec) ([]RunArtifact, error) {
	tasks := make([]runner.Task[RunArtifact], len(specs))
	for i, spec := range specs {
		tasks[i] = cs.task(spec)
	}
	pool := runner.Pool[RunArtifact]{Workers: opt.Workers, OnProgress: opt.OnProgress}
	return pool.Run(ctx, tasks)
}

// RunAllParallel fans the four strategies of RunAll out across the
// worker pool. Results are bit-identical to the sequential path: every
// task runs on a private snapshot seeded only from the case study's
// configured seeds. The rlbase policy is trained (once) before fan-out.
func (cs *CaseStudy) RunAllParallel(ctx context.Context, opt ExecOptions) (map[string]*ModeRun, []RunArtifact, error) {
	arts, err := cs.runMatrix(ctx, opt, TaskMatrix{Kind: "modes"}, true)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]*ModeRun, len(arts))
	for i := range arts {
		out[arts[i].Mode] = arts[i].Run
	}
	return out, arts, nil
}

// PhiSweepParallel is the parallel form of PhiSweep.
func (cs *CaseStudy) PhiSweepParallel(ctx context.Context, opt ExecOptions, mode string, phis []float64) ([]SweepPoint, []RunArtifact, error) {
	return cs.sweepParallel(ctx, opt, TaskMatrix{Kind: "phi-sweep", Mode: mode, Values: phis})
}

// LambdaSweepParallel is the parallel form of LambdaSweep.
func (cs *CaseStudy) LambdaSweepParallel(ctx context.Context, opt ExecOptions, mode string, lambdas []float64) ([]SweepPoint, []RunArtifact, error) {
	return cs.sweepParallel(ctx, opt, TaskMatrix{Kind: "lambda-sweep", Mode: mode, Values: lambdas})
}

func (cs *CaseStudy) sweepParallel(ctx context.Context, opt ExecOptions, m TaskMatrix) ([]SweepPoint, []RunArtifact, error) {
	arts, err := cs.runMatrix(ctx, opt, m, false)
	if err != nil {
		return nil, nil, err
	}
	points := make([]SweepPoint, len(arts))
	for i := range arts {
		points[i] = SweepPoint{Param: arts[i].Param, Mode: m.Mode, Results: arts[i].Results}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Param < points[j].Param })
	return points, arts, nil
}

// RLDeploymentAblationParallel runs the sampled and deterministic
// rlbase deployments as two pool tasks and returns both runs plus
// their artifacts.
func (cs *CaseStudy) RLDeploymentAblationParallel(ctx context.Context, opt ExecOptions) (sampled, deterministic *ModeRun, arts []RunArtifact, err error) {
	arts, err = cs.runMatrix(ctx, opt, TaskMatrix{Kind: "rl-deploy"}, true)
	if err != nil {
		return nil, nil, nil, err
	}
	return arts[0].Run, arts[1].Run, arts, nil
}

// RunReplicatedParallel is the parallel form of RunReplicated: one task
// per workload seed, aggregated into mean/std/min/max and a 95%
// confidence interval per headline metric.
func (cs *CaseStudy) RunReplicatedParallel(ctx context.Context, opt ExecOptions, mode string, seeds []int64) (*ReplicatedResults, []RunArtifact, error) {
	arts, err := cs.runMatrix(ctx, opt, TaskMatrix{Kind: "replicate", Mode: mode, Seeds: seeds}, false)
	if err != nil {
		return nil, nil, err
	}
	var tsim, muF, tcomm []float64
	for i := range arts {
		tsim = append(tsim, arts[i].Results.TotalSimTime)
		muF = append(muF, arts[i].Results.FidelityMean)
		tcomm = append(tcomm, arts[i].Results.TotalCommTime)
	}
	return &ReplicatedResults{
		Mode:      mode,
		Seeds:     append([]int64(nil), seeds...),
		TsimStat:  replicate(tsim),
		MuFStat:   replicate(muF),
		TcommStat: replicate(tcomm),
	}, arts, nil
}

// replicate summarizes one metric across replicated runs. Every field
// stats.AggregateSamples computes is carried over — dropping StdErr
// here once left significance tests without their denominator.
func replicate(xs []float64) ReplicatedStat {
	a := stats.AggregateSamples(xs)
	st := ReplicatedStat{N: a.N, Mean: a.Mean, Std: a.Std, StdErr: a.StdErr, CI95: a.CI95}
	for i, x := range xs {
		if i == 0 || x < st.Min {
			st.Min = x
		}
		if i == 0 || x > st.Max {
			st.Max = x
		}
	}
	return st
}
