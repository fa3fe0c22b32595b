package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randSizes draws a random MLP layout: 2–4 layers, widths 1–9.
func randSizes(rng *rand.Rand) []int {
	n := 2 + rng.Intn(3)
	sizes := make([]int, n+1)
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(9)
	}
	return sizes
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestForwardBatchBitIdentical is the batched==per-sample forward
// property: across random shapes, seeds, activations and batch sizes,
// ForwardBatch must reproduce B single-sample Forward calls bit for
// bit (exact float equality — the invariant the executor-equivalence
// CI gates depend on).
func TestForwardBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 50; trial++ {
		act := Tanh
		if trial%2 == 1 {
			act = ReLU
		}
		m := NewMLP(rng, act, randSizes(rng)...)
		batch := 1 + rng.Intn(9)
		xs := make([][]float64, batch)
		for b := range xs {
			xs[b] = randVec(rng, m.InputSize())
		}

		// Per-sample reference.
		want := make([][]float64, batch)
		for b, x := range xs {
			want[b] = append([]float64(nil), m.Forward(x)...)
		}

		ws := NewWorkspace(m, batch)
		in := ws.Input(batch)
		for b, x := range xs {
			copy(in.Row(b), x)
		}
		got := m.ForwardBatch(ws)
		for b := range xs {
			for i, w := range want[b] {
				if got.At(b, i) != w {
					t.Fatalf("trial %d sizes %v batch %d: output[%d][%d] = %g, want %g (bit-exact)",
						trial, m.Sizes, batch, b, i, got.At(b, i), w)
				}
			}
		}
	}
}

// TestBackwardBatchBitIdentical is the batched==per-sample backward
// property: accumulated weight, bias and input gradients from one
// BackwardBatch must be bit-identical to B sequential Forward+Backward
// calls in row order.
func TestBackwardBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 50; trial++ {
		act := Tanh
		if trial%2 == 1 {
			act = ReLU
		}
		m := NewMLP(rng, act, randSizes(rng)...)
		batch := 1 + rng.Intn(9)
		xs := make([][]float64, batch)
		douts := make([][]float64, batch)
		for b := range xs {
			xs[b] = randVec(rng, m.InputSize())
			douts[b] = randVec(rng, m.OutputSize())
		}

		// Per-sample reference: accumulate gradients sample by sample.
		m.ZeroGrad()
		wantDIn := make([][]float64, batch)
		for b := range xs {
			m.Forward(xs[b])
			wantDIn[b] = append([]float64(nil), m.Backward(douts[b])...)
		}
		_, grads := m.Params()
		wantGrads := make([][]float64, len(grads))
		for i, g := range grads {
			wantGrads[i] = append([]float64(nil), g...)
		}

		// Batched path on the same network.
		m.ZeroGrad()
		ws := NewWorkspace(m, batch)
		in := ws.Input(batch)
		for b, x := range xs {
			copy(in.Row(b), x)
		}
		m.ForwardBatch(ws)
		dOut := ws.OutputGrad()
		for b, d := range douts {
			copy(dOut.Row(b), d)
		}
		dIn := m.BackwardBatch(ws)

		for i, want := range wantGrads {
			for j, w := range want {
				if grads[i][j] != w {
					t.Fatalf("trial %d sizes %v batch %d: grad[%d][%d] = %g, want %g (bit-exact)",
						trial, m.Sizes, batch, i, j, grads[i][j], w)
				}
			}
		}
		for b := range xs {
			for i, w := range wantDIn[b] {
				if dIn.At(b, i) != w {
					t.Fatalf("trial %d: dInput[%d][%d] = %g, want %g", trial, b, i, dIn.At(b, i), w)
				}
			}
		}
	}
}

// TestWorkspaceReuseAcrossBatchSizes reuses one workspace for shrinking
// and regrowing minibatches (the PPO tail-batch pattern) and checks the
// results stay bit-identical to per-sample calls.
func TestWorkspaceReuseAcrossBatchSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	m := NewMLP(rng, Tanh, 4, 8, 3)
	ws := NewWorkspace(m, 6)
	for _, batch := range []int{6, 2, 5, 1, 6} {
		xs := make([][]float64, batch)
		in := ws.Input(batch)
		for b := range xs {
			xs[b] = randVec(rng, 4)
			copy(in.Row(b), xs[b])
		}
		got := m.ForwardBatch(ws)
		if got.Rows != batch {
			t.Fatalf("output rows %d, want %d", got.Rows, batch)
		}
		for b, x := range xs {
			want := m.Forward(x)
			for i, w := range want {
				if got.At(b, i) != w {
					t.Fatalf("batch %d row %d: %g != %g", batch, b, got.At(b, i), w)
				}
			}
		}
	}
}

func TestWorkspaceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMLP(rng, Tanh, 3, 5, 2)
	other := NewMLP(rng, Tanh, 3, 6, 2)
	ws := NewWorkspace(m, 4)
	for i, fn := range []func(){
		func() { NewWorkspace(m, 0) },
		func() { ws.Input(0) },
		func() { ws.Input(5) },
		func() { other.ForwardBatch(ws) },
		func() { other.BackwardBatch(ws) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestBatchKernelsMatchVectorForms pins the batched matrix kernels to
// their single-vector counterparts on random data.
func TestBatchKernelsMatchVectorForms(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 30; trial++ {
		rows, cols, batch := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(5)
		w := NewMat(rows, cols)
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64()
		}
		x := NewMat(batch, cols)
		g := NewMat(batch, rows)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64()
		}

		fwd := NewMat(batch, rows)
		w.MulMatT(x, fwd)
		bwd := NewMat(batch, cols)
		w.MulMat(g, bwd)
		acc := NewMat(rows, cols)
		acc.AddOuterBatch(g, x)

		ref := NewMat(rows, cols)
		for b := 0; b < batch; b++ {
			for i, v := range w.MulVec(x.Row(b)) {
				if fwd.At(b, i) != v {
					t.Fatalf("MulMatT row %d col %d: %g != %g", b, i, fwd.At(b, i), v)
				}
			}
			for i, v := range w.MulVecT(g.Row(b)) {
				if bwd.At(b, i) != v {
					t.Fatalf("MulMat row %d col %d: %g != %g", b, i, bwd.At(b, i), v)
				}
			}
			ref.AddOuter(g.Row(b), x.Row(b))
		}
		for i := range ref.Data {
			if acc.Data[i] != ref.Data[i] {
				t.Fatalf("AddOuterBatch entry %d: %g != %g", i, acc.Data[i], ref.Data[i])
			}
		}
	}
}

func randMat(rng *rand.Rand, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// deadZeros writes exact zeros of either sign into a B×N gradient
// matrix the way training produces them: whole sample rows (a clipped
// PPO sample backpropagates nothing) and scattered entries (dead ReLU
// units).
func deadZeros(rng *rand.Rand, g *Mat) {
	zero := func() float64 {
		if rng.Intn(2) == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	}
	for b := 0; b < g.Rows; b++ {
		row := g.Row(b)
		if rng.Intn(5) == 0 {
			for i := range row {
				row[i] = zero()
			}
			continue
		}
		for i := range row {
			if rng.Intn(4) == 0 {
				row[i] = zero()
			}
		}
	}
}

// assertSameBits fails unless got and want hold the same bit patterns,
// so -0 against +0 and NaN against NaN are told apart.
func assertSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %g (%#x), want %g (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkBatchKernels compares MulMatT, MulMat and AddOuterBatch with B
// calls of MulVec, MulVecT and AddOuter, bit for bit. acc is the matrix
// AddOuterBatch accumulates into; it is left holding the result.
func checkBatchKernels(t *testing.T, w, x, g, acc *Mat) {
	t.Helper()
	batch := x.Rows
	fwd := NewMat(batch, w.Rows)
	w.MulMatT(x, fwd)
	bwd := NewMat(batch, w.Cols)
	w.MulMat(g, bwd)
	ref := acc.Clone()
	acc.AddOuterBatch(g, x)
	for b := 0; b < batch; b++ {
		assertSameBits(t, "MulMatT row", fwd.Row(b), w.MulVec(x.Row(b)))
		assertSameBits(t, "MulMat row", bwd.Row(b), w.MulVecT(g.Row(b)))
		ref.AddOuter(g.Row(b), x.Row(b))
	}
	assertSameBits(t, "AddOuterBatch", acc.Data, ref.Data)
}

// TestBatchKernelsBitIdenticalAtRealShapes pins the blocked kernels to
// the vector forms at the production layer shapes (16-64-64-5 actor,
// 16-64-64-1 critic, minibatch 64 and an 8-sample tail) and at random
// shapes up to 70 wide, odd sizes included, so every tile remainder
// runs. Gradients carry exact ±0 entries, and AddOuterBatch starts from
// a non-zero matrix that also holds some -0 entries.
func TestBatchKernelsBitIdenticalAtRealShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	shapes := [][3]int{ // rows, cols, batch
		{64, 16, 64}, {64, 64, 64}, {5, 64, 64}, {1, 64, 64},
		{64, 16, 8}, {64, 64, 8}, {5, 64, 8}, {1, 64, 8},
	}
	for trial := 0; trial < 150; trial++ {
		rows, cols, batch := 1+rng.Intn(70), 1+rng.Intn(70), 1+rng.Intn(70)
		if trial < len(shapes) {
			rows, cols, batch = shapes[trial][0], shapes[trial][1], shapes[trial][2]
		}
		g := randMat(rng, batch, rows)
		deadZeros(rng, g)
		acc := randMat(rng, rows, cols)
		if trial%2 == 1 {
			for i := range acc.Data {
				if rng.Intn(8) == 0 {
					acc.Data[i] = math.Copysign(0, -1)
				}
			}
		}
		checkBatchKernels(t, randMat(rng, rows, cols), randMat(rng, batch, cols), g, acc)
	}
}

// TestBatchKernelsSkipZerosBesideNonFinite covers the inputs where the
// vector forms' zero skip is observable: a zero gradient entry meeting
// an infinite or NaN weight or input (0·Inf is NaN, a skipped term is
// not), and an accumulator entry of -0 (-0 + +0 is +0).
func TestBatchKernelsSkipZerosBesideNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	bad := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for trial := 0; trial < 60; trial++ {
		rows, cols, batch := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
		w := randMat(rng, rows, cols)
		x := randMat(rng, batch, cols)
		g := randMat(rng, batch, rows)
		deadZeros(rng, g)
		switch trial % 3 {
		case 0:
			w.Data[rng.Intn(len(w.Data))] = bad[rng.Intn(len(bad))]
		case 1:
			x.Data[rng.Intn(len(x.Data))] = bad[rng.Intn(len(bad))]
		}
		acc := NewMat(rows, cols)
		for i := range acc.Data {
			acc.Data[i] = math.Copysign(0, -1)
		}
		checkBatchKernels(t, w, x, g, acc)
	}
}

// TestWorkspacesConfinedAcrossGoroutines runs two goroutines, each with
// its own MLP clone and Workspace, through ForwardBatch/BackwardBatch at
// the production shapes, and checks outputs, input gradients and
// parameter gradients against a per-sample run bit for bit. Under
// -race it also fails if the kernels share scratch between workspaces.
func TestWorkspacesConfinedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	base := NewMLP(rng, Tanh, 16, 64, 64, 5)
	const batch = 64
	sizes := []int{batch, 8, batch, 37} // full and tail minibatches
	type data struct{ x, dOut *Mat }
	inputs := make([][]data, 2)
	for k := range inputs {
		for _, n := range sizes {
			inputs[k] = append(inputs[k], data{randMat(rng, n, 16), randMat(rng, n, 5)})
		}
	}

	// Per-sample reference, one goroutine's inputs at a time.
	type result struct{ out, dIn, grads [][]float64 }
	want := make([][]result, 2)
	for k := range inputs {
		m := base.Clone()
		for _, d := range inputs[k] {
			m.ZeroGrad()
			var r result
			for b := 0; b < d.x.Rows; b++ {
				r.out = append(r.out, append([]float64(nil), m.Forward(d.x.Row(b))...))
				r.dIn = append(r.dIn, append([]float64(nil), m.Backward(d.dOut.Row(b))...))
			}
			_, grads := m.Params()
			for _, g := range grads {
				r.grads = append(r.grads, append([]float64(nil), g...))
			}
			want[k] = append(want[k], r)
		}
	}

	got := make([][]result, 2)
	var wg sync.WaitGroup
	for k := range inputs {
		m := base.Clone()
		ws := NewWorkspace(m, batch)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for _, d := range inputs[k] {
				m.ZeroGrad()
				copy(ws.Input(d.x.Rows).Data, d.x.Data)
				var r result
				out := m.ForwardBatch(ws)
				copy(ws.OutputGrad().Data, d.dOut.Data)
				dIn := m.BackwardBatch(ws)
				for b := 0; b < d.x.Rows; b++ {
					r.out = append(r.out, append([]float64(nil), out.Row(b)...))
					r.dIn = append(r.dIn, append([]float64(nil), dIn.Row(b)...))
				}
				_, grads := m.Params()
				for _, g := range grads {
					r.grads = append(r.grads, append([]float64(nil), g...))
				}
				got[k] = append(got[k], r)
			}
		}(k)
	}
	wg.Wait()

	for k := range want {
		for i, w := range want[k] {
			g := got[k][i]
			for b := range w.out {
				assertSameBits(t, "output row", g.out[b], w.out[b])
				assertSameBits(t, "input gradient row", g.dIn[b], w.dIn[b])
			}
			for p := range w.grads {
				assertSameBits(t, "parameter gradient", g.grads[p], w.grads[p])
			}
		}
	}
}

// TestSteadyStateZeroAllocs is the allocation gate from the issue:
// after warmup, single-sample Forward/Backward and the batched
// ForwardBatch/BackwardBatch must not allocate at all.
func TestSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLP(rng, Tanh, 16, 64, 64, 5)
	x := randVec(rng, 16)
	dOut := randVec(rng, 5)
	ws := NewWorkspace(m, 64)
	in := ws.Input(64)
	for b := 0; b < 64; b++ {
		copy(in.Row(b), x)
	}

	if n := testing.AllocsPerRun(100, func() { m.Forward(x) }); n != 0 {
		t.Errorf("Forward allocates %g/op, want 0", n)
	}
	m.Forward(x)
	if n := testing.AllocsPerRun(100, func() { m.Backward(dOut) }); n != 0 {
		t.Errorf("Backward allocates %g/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.ForwardBatch(ws) }); n != 0 {
		t.Errorf("ForwardBatch allocates %g/op, want 0", n)
	}
	m.ForwardBatch(ws)
	if n := testing.AllocsPerRun(100, func() { m.BackwardBatch(ws) }); n != 0 {
		t.Errorf("BackwardBatch allocates %g/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ws.Input(32); ws.Input(64) }); n != 0 {
		t.Errorf("Workspace.Input allocates %g/op, want 0", n)
	}
}
