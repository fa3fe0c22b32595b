package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/sim"
)

// checkFIFO compares the queue with the naive reference and checks that
// every slot outside the live window is zero, so a vacated slot never
// keeps a finished job reachable.
func checkFIFO(t *testing.T, step int, q *fifo[*int], ref []*int) {
	t.Helper()
	if q.Len() != len(ref) {
		t.Fatalf("step %d: Len = %d, reference holds %d", step, q.Len(), len(ref))
	}
	for i, want := range ref {
		if got := q.At(i); got != want {
			t.Fatalf("step %d: element %d = %d, reference %d", step, i, *got, *want)
		}
	}
	full := q.buf[:cap(q.buf)]
	for i, v := range full {
		if (i < q.head || i >= len(q.buf)) && v != nil {
			t.Fatalf("step %d: stale slot %d (head %d, len %d) holds %d", step, i, q.head, len(q.buf), *v)
		}
	}
}

// The queue must behave exactly like the slice splice it replaced under
// any mix of tail pushes, head pops (FIFO dispatch and shed), and
// skip-ahead removals (backfill).
func TestFIFOMatchesNaiveSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var q fifo[*int]
	var ref []*int
	next := 0
	for step := 0; step < 20000; step++ {
		// Phases alternate between growth and drain so the queue passes
		// through empty, shallow and deep states and compacts often.
		pushBias := 0.65
		if (step/1500)%2 == 1 {
			pushBias = 0.35
		}
		switch r := rng.Float64(); {
		case r < pushBias || len(ref) == 0:
			v := new(int)
			*v = next
			next++
			q.Push(v)
			ref = append(ref, v)
		case r < pushBias+0.25:
			got := q.RemoveAt(0)
			if got != ref[0] {
				t.Fatalf("step %d: head pop = %d, want %d", step, *got, *ref[0])
			}
			ref = ref[1:]
		default:
			i := rng.Intn(len(ref))
			got := q.RemoveAt(i)
			if got != ref[i] {
				t.Fatalf("step %d: RemoveAt(%d) = %d, want %d", step, i, *got, *ref[i])
			}
			ref = slices.Delete(slices.Clone(ref), i, i+1)
		}
		checkFIFO(t, step, &q, ref)
	}
}

// countingPolicy counts Allocate calls through to the wrapped policy.
type countingPolicy struct {
	policy.Policy
	calls int
}

func (p *countingPolicy) Allocate(j *job.QJob, devices []policy.DeviceState) []policy.Allocation {
	p.calls++
	return p.Policy.Allocate(j, devices)
}

// dispatchWork runs n overloaded jobs through a FIFO fair broker and
// returns queue element moves and Allocate calls per job, plus the peak
// queue depth.
func dispatchWork(t *testing.T, n int) (movesPerJob, callsPerJob float64, peak int) {
	t.Helper()
	cfg := job.DefaultSyntheticConfig()
	cfg.N = n
	cfg.Seed = 4
	cfg.MeanInterarrival = 60
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	pol := &countingPolicy{Policy: policy.Fair{}}
	b, err := NewBroker(env, fleet, pol, DefaultConfig(), nopRecorder{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.ArrivalTime > env.Now() {
			env.AdvanceTo(j.ArrivalTime)
		}
		b.Admit(j)
		peak = max(peak, b.QueueDepth())
	}
	if _, err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	return float64(b.pending.moves) / float64(n), float64(pol.calls) / float64(n), peak
}

// Work-count gate: a placement costs O(1) amortised queue moves and a
// fixed number of policy calls, however deep the overloaded queue gets.
// The compaction rule bounds moves by head pops, so at most one move per
// job; a head-pop splice would instead move about the queue depth per
// job. Counts, not timings, so the gate holds on a 1-CPU runner.
func TestDispatchWorkPerJobIsFlat(t *testing.T) {
	const maxMovesPerJob = 1
	mSmall, cSmall, pSmall := dispatchWork(t, 2000)
	mLarge, cLarge, pLarge := dispatchWork(t, 8000)
	t.Logf("n=2000: %.3f moves/job, %.3f calls/job, peak depth %d", mSmall, cSmall, pSmall)
	t.Logf("n=8000: %.3f moves/job, %.3f calls/job, peak depth %d", mLarge, cLarge, pLarge)
	if pSmall < 1000 || pLarge < 3*pSmall {
		t.Fatalf("stream not overloaded enough to exercise the queue: peak depths %d and %d", pSmall, pLarge)
	}
	if mSmall > maxMovesPerJob || mLarge > maxMovesPerJob {
		t.Fatalf("queue moves per job %.3f (n=2000) and %.3f (n=8000), want <= %d at both sizes",
			mSmall, mLarge, maxMovesPerJob)
	}
	if d := cLarge - cSmall; d > 0.05*cSmall || d < -0.05*cSmall {
		t.Fatalf("Allocate calls per job moved with n: %.3f (n=2000) vs %.3f (n=8000)", cSmall, cLarge)
	}
}

// gatedPolicy refuses every placement while closed, letting a test hold
// admitted jobs in the queue with the fleet idle — the only state in
// which a broker with pending jobs can be checkpointed.
type gatedPolicy struct {
	policy.Policy
	closed bool
}

func (p *gatedPolicy) Allocate(j *job.QJob, devices []policy.DeviceState) []policy.Allocation {
	if p.closed {
		return nil
	}
	return p.Policy.Allocate(j, devices)
}

// A checkpoint taken after the queue head has moved past a compaction
// must list exactly the live jobs in order, and a resumed broker must
// export byte-identically to an uninterrupted one.
func TestBrokerCheckpointAfterCompaction(t *testing.T) {
	cfg := job.DefaultSyntheticConfig()
	cfg.N = 600
	cfg.Seed = 6
	cfg.MeanInterarrival = 60
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const split = 400
	newBroker := func(env *sim.Environment, pol policy.Policy, rec *records.Manager) *Broker {
		t.Helper()
		fleet, err := device.StandardFleet(env, 2025)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBroker(env, fleet, pol, DefaultConfig(), ManagerRecorder{M: rec}, 16)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	admit := func(b *Broker, jobs []*job.QJob) {
		for _, j := range jobs {
			if j.ArrivalTime > b.Env().Now() {
				b.Env().AdvanceTo(j.ArrivalTime)
			}
			b.Admit(j)
		}
	}
	// hold works the queue down until the head has passed a compaction,
	// then closes the gate and lets running jobs finish, leaving the
	// unplaced ones queued on an idle fleet.
	hold := func(b *Broker, gate *gatedPolicy) {
		for b.Finished() < 250 {
			if err := b.Env().Step(); err != nil {
				t.Fatal(err)
			}
		}
		gate.closed = true
		b.Env().Run()
	}
	export := func(rows []*records.JobStats) []byte {
		var buf bytes.Buffer
		if err := records.WriteStatsCSV(&buf, rows); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Uninterrupted reference: hold at the split, reopen, and dispatch
	// at the same instant Restore does.
	fullRec := records.NewManager()
	{
		gate := &gatedPolicy{Policy: policy.Fair{}}
		b := newBroker(sim.NewEnvironment(), gate, fullRec)
		admit(b, jobs[:split])
		hold(b, gate)
		gate.closed = false
		b.dispatch()
		admit(b, jobs[split:])
		if _, err := b.Drain(); err != nil {
			t.Fatal(err)
		}
	}

	// Segment 1: the same prefix, checkpointed while held.
	seg1Rec := records.NewManager()
	gate := &gatedPolicy{Policy: policy.Fair{}}
	b := newBroker(sim.NewEnvironment(), gate, seg1Rec)
	admit(b, jobs[:split])
	hold(b, gate)
	if b.pending.moves == 0 || b.pending.head == 0 {
		t.Fatalf("queue has not compacted and advanced past it (moves %d, head %d); deepen the workload",
			b.pending.moves, b.pending.head)
	}
	// The hold ran every placed job to completion, so the finished jobs
	// are exactly the queue's popped prefix.
	started := len(seg1Rec.Finished())
	cp, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Pending) != split-started {
		t.Fatalf("checkpoint lists %d pending jobs, want %d", len(cp.Pending), split-started)
	}
	for i, p := range cp.Pending {
		want := jobs[started+i]
		if p.Job.ID != want.ID || p.Arrival != want.ArrivalTime {
			t.Fatalf("pending[%d] = %s@%g, want %s@%g", i, p.Job.ID, p.Arrival, want.ID, want.ArrivalTime)
		}
	}
	var cpBuf bytes.Buffer
	if err := cp.Encode(&cpBuf); err != nil {
		t.Fatal(err)
	}

	// Segment 2: restore into a fresh broker and finish the stream.
	cp, err = DecodeCheckpoint(&cpBuf)
	if err != nil {
		t.Fatal(err)
	}
	seg2Rec := records.NewManager()
	resumed := newBroker(sim.NewEnvironmentAt(cp.SimNow), policy.Fair{}, seg2Rec)
	if err := resumed.Restore(cp); err != nil {
		t.Fatal(err)
	}
	admit(resumed, jobs[split:])
	if _, err := resumed.Drain(); err != nil {
		t.Fatal(err)
	}

	want := export(fullRec.Finished())
	got := export(append(seg1Rec.Finished(), seg2Rec.Finished()...))
	if !bytes.Equal(got, want) {
		t.Fatal("resumed export diverges from the uninterrupted run")
	}
	if n := len(fullRec.Finished()); n != len(jobs) {
		t.Fatalf("uninterrupted run finished %d of %d jobs", n, len(jobs))
	}
}
