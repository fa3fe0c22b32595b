package experiments

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/experiments/runner"
	"repro/internal/records"
)

// TestParallelRunAllMatchesSequential is the engine's core guarantee:
// fanning the four strategies out across workers yields bit-identical
// results to the sequential path, per-job fidelities included.
func TestParallelRunAllMatchesSequential(t *testing.T) {
	seqCS := smallCase()
	seq, _, err := seqCS.RunAllParallel(context.Background(), ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parCS := smallCase()
	par, arts, err := parCS.RunAllParallel(context.Background(), ExecOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != len(Modes) {
		t.Fatalf("%d artifacts, want %d", len(arts), len(Modes))
	}
	for _, mode := range Modes {
		s, p := seq[mode], par[mode]
		if s == nil || p == nil {
			t.Fatalf("%s: missing run (seq %v, par %v)", mode, s != nil, p != nil)
		}
		if s.Results != p.Results {
			t.Fatalf("%s: results diverge:\nseq %+v\npar %+v", mode, s.Results, p.Results)
		}
		if !reflect.DeepEqual(s.Fidelities, p.Fidelities) {
			t.Fatalf("%s: per-job fidelities diverge", mode)
		}
	}
}

func TestParallelSweepMatchesSequential(t *testing.T) {
	phis := []float64{0.9, 0.95, 1.0}
	seq, _, err := smallCase().PhiSweepParallel(context.Background(), ExecOptions{Workers: 1}, "speed", phis)
	if err != nil {
		t.Fatal(err)
	}
	par, arts, err := smallCase().PhiSweepParallel(context.Background(), ExecOptions{Workers: 3}, "speed", phis)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sweep diverges:\nseq %+v\npar %+v", seq, par)
	}
	if len(arts) != len(phis) {
		t.Fatalf("%d artifacts, want %d", len(arts), len(phis))
	}
	for _, a := range arts {
		if a.Kind != "phi-sweep" || a.Core.Phi != a.Param {
			t.Fatalf("artifact %q: kind %q, phi %g, param %g", a.ID, a.Kind, a.Core.Phi, a.Param)
		}
		if a.Run != nil {
			t.Fatalf("artifact %q retains its full run; sweeps should carry Results only", a.ID)
		}
	}
}

func TestParallelReplicatedMatchesSequential(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	cs := smallCase()
	cs.Workload.N = 30
	seq, _, err := cs.RunReplicatedParallel(context.Background(), ExecOptions{Workers: 1}, "fair", seeds)
	if err != nil {
		t.Fatal(err)
	}
	cs2 := smallCase()
	cs2.Workload.N = 30
	par, arts, err := cs2.RunReplicatedParallel(context.Background(), ExecOptions{Workers: 4}, "fair", seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("replication diverges:\nseq %+v\npar %+v", seq, par)
	}
	if par.TsimStat.N != len(seeds) || par.TsimStat.CI95 <= 0 {
		t.Fatalf("aggregate incomplete: %+v", par.TsimStat)
	}
	for i, a := range arts {
		if a.Workload.Seed != seeds[i] {
			t.Fatalf("artifact %d ran seed %d, want %d", i, a.Workload.Seed, seeds[i])
		}
		if a.Run != nil {
			t.Fatalf("artifact %d retains its full run; replicates should carry Results only", i)
		}
	}
}

// TestParallelDoesNotMutateCaseStudy verifies tasks run on private
// snapshots: the shared case study's config must not move while a
// parallel sweep is in flight.
func TestParallelDoesNotMutateCaseStudy(t *testing.T) {
	cs := smallCase()
	cs.Workload.N = 30
	savedCore := cs.Core
	savedWorkload := cs.Workload
	if _, _, err := cs.PhiSweepParallel(context.Background(), ExecOptions{Workers: 2}, "speed", []float64{0.9, 0.95}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cs.RunReplicatedParallel(context.Background(), ExecOptions{Workers: 2}, "speed", []int64{5, 6}); err != nil {
		t.Fatal(err)
	}
	if cs.Core != savedCore || cs.Workload != savedWorkload {
		t.Fatalf("case study mutated by parallel runs: core %+v, workload %+v", cs.Core, cs.Workload)
	}
}

// TestParallelErrorPropagates drives the error path end to end: an
// unplaceable workload must fail the pool run and surface the task
// label, not hang or return partial results silently.
func TestParallelErrorPropagates(t *testing.T) {
	cs := smallCase()
	cs.Workload.N = 10
	// Jobs larger than the whole cloud can never be placed; every task
	// fails fast inside workload validation.
	cs.Workload.MinQubits = 10000
	cs.Workload.MaxQubits = 10001
	_, _, err := cs.RunAllParallel(context.Background(), ExecOptions{Workers: 4})
	if err == nil {
		t.Fatal("impossible workload accepted")
	}
}

func TestParallelProgressAndArtifacts(t *testing.T) {
	var mu sync.Mutex
	var events []runner.Progress
	cs := smallCase()
	cs.Workload.N = 30
	opt := ExecOptions{
		Workers: 2,
		OnProgress: func(p runner.Progress) {
			mu.Lock()
			events = append(events, p)
			mu.Unlock()
		},
	}
	_, arts, err := cs.RunReplicatedParallel(context.Background(), opt, "speed", []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("%d progress events, want 3", len(events))
	}
	m := records.RunManifest{Label: "replicate/speed", Workers: 2}
	for i := range arts {
		m.Runs = append(m.Runs, arts[i].Summary())
	}
	if len(m.Runs) != 3 {
		t.Fatalf("manifest = %+v", m)
	}
	for i, r := range m.Runs {
		if r.Kind != "replicate" || r.Mode != "speed" || r.Jobs != 30 {
			t.Fatalf("manifest run %d = %+v", i, r)
		}
		if r.WallMS <= 0 {
			t.Fatalf("manifest run %d missing wall time", i)
		}
		if r.WorkloadSeed != int64(i+1) {
			t.Fatalf("manifest run %d seed %d", i, r.WorkloadSeed)
		}
	}
}
