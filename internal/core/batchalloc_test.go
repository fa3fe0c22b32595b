package core

import (
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/sim"
)

// batchAllocsPerJob runs n synthetic jobs (60 s mean inter-arrival,
// seed 1) through QCloudSimEnv under pol and returns the heap
// allocations per job of assembling, feeding and running the
// simulation. Building the fleet and the workload is not counted.
func batchAllocsPerJob(t *testing.T, pol policy.Policy, n int) float64 {
	t.Helper()
	cfg := job.DefaultSyntheticConfig()
	cfg.N = n
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := NewQCloudSimEnv(env, fleet, pol, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.SubmitWorkload(jobs)
	res, err := e.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsFinished != n {
		t.Fatalf("finished %d of %d jobs", res.JobsFinished, n)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestBatchRunAllocsPerJobFlat is the batch path's work-count gate: a
// whole QCloudSimEnv run costs a small, fixed number of heap
// allocations per job, independent of the workload's length. Allocation
// counts do not depend on CPU speed or count, so the gate holds on
// one-CPU runners.
func TestBatchRunAllocsPerJobFlat(t *testing.T) {
	const maxPerJob = 20
	for _, pol := range []policy.Policy{policy.Speed{}, policy.Fair{}, policy.Fidelity{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			small := batchAllocsPerJob(t, pol, 1000)
			large := batchAllocsPerJob(t, pol, 4000)
			t.Logf("allocs/job: n=1000 %.2f, n=4000 %.2f", small, large)
			if small > maxPerJob || large > maxPerJob {
				t.Fatalf("allocs/job %.2f (n=1000), %.2f (n=4000); want <= %d", small, large, maxPerJob)
			}
			if lo, hi := min(small, large), max(small, large); hi > 1.1*lo {
				t.Fatalf("allocs/job grows with the workload: %.2f (n=1000) vs %.2f (n=4000)", small, large)
			}
		})
	}
}
