// Package nn implements the neural-network substrate needed for the
// paper's PPO scheduling policy: dense multi-layer perceptrons with tanh
// activations, reverse-mode gradients, the Adam optimizer, and JSON model
// persistence. It replaces the PyTorch stack underneath Stable-Baselines3
// in the original implementation, using only the standard library.
//
// The compute core is batched and allocation-free. Mat.MulMatT,
// Mat.MulMat and Mat.AddOuterBatch run one register-blocked kernel:
// operands are laid out (transposed where needed) so both stream
// contiguously along the reduction axis, and outputs are computed in
// 2×2 tiles of independent accumulators. Blocking changes only how many
// sums are live at once. Every output element keeps the exact
// arithmetic of its single-vector form (MulVec, MulVecT, AddOuter): the
// same initial value (+0, or the existing gradient entry), the same
// addends in the same order (columns, rows or samples ascending), the
// same zero-gradient skip, and no fused multiply-add, so batched
// results are bit-identical to the per-sample path. Caller-owned
// Workspace buffers, transpose scratch included, let MLP.ForwardBatch /
// MLP.BackwardBatch run entire minibatches with zero allocations in
// steady state. A Workspace belongs to one goroutine; ForwardBatch
// never mutates MLP state, so one model can serve concurrent forward
// passes.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat allocates a zero matrix.
func NewMat(rows, cols int) *Mat {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (r,c).
func (m *Mat) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r,c).
func (m *Mat) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Zero resets all elements to zero.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns row r as a slice view into the matrix (no copy).
func (m *Mat) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// MulVec computes m · x for a vector x of length Cols, writing into a new
// slice of length Rows.
func (m *Mat) MulVec(x []float64) []float64 {
	out := make([]float64, m.Rows)
	m.MulVecInto(x, out)
	return out
}

// MulVecInto is the allocation-free MulVec: it computes m · x into out,
// which must have length Rows. Each element is a dot product accumulated
// over columns in ascending order — the accumulation order every batched
// kernel below preserves, which is what keeps batched and per-sample
// results bit-identical.
func (m *Mat) MulVecInto(x, out []float64) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("nn: MulVec dim mismatch: %d cols vs %d", m.Cols, len(x)))
	}
	if len(out) != m.Rows {
		panic(fmt.Sprintf("nn: MulVecInto out dim mismatch: %d rows vs %d", m.Rows, len(out)))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		s := 0.0
		for c, w := range row {
			s += w * x[c]
		}
		out[r] = s
	}
}

// MulVecT computes mᵀ · g (used for backpropagating through a dense
// layer): g has length Rows, result has length Cols.
func (m *Mat) MulVecT(g []float64) []float64 {
	out := make([]float64, m.Cols)
	m.MulVecTInto(g, out)
	return out
}

// MulVecTInto is the allocation-free MulVecT: it computes mᵀ · g into
// out (length Cols), zeroing out first and accumulating rows in
// ascending order, skipping zero gradient entries exactly like the
// allocating form.
func (m *Mat) MulVecTInto(g, out []float64) {
	if len(g) != m.Rows {
		panic(fmt.Sprintf("nn: MulVecT dim mismatch: %d rows vs %d", m.Rows, len(g)))
	}
	if len(out) != m.Cols {
		panic(fmt.Sprintf("nn: MulVecTInto out dim mismatch: %d cols vs %d", m.Cols, len(out)))
	}
	for i := range out {
		out[i] = 0
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		gr := g[r]
		if gr == 0 {
			continue
		}
		for c, w := range row {
			out[c] += w * gr
		}
	}
}

// MulMatT computes out = x · mᵀ — the batched form of MulVec, with the
// receiver as the weight matrix: row b of out is m · (row b of x).
// Shapes: x is B×Cols, out is B×Rows. Every output element is the
// MulVec dot product (+0, then columns ascending), so a batch of B rows
// is bit-identical to B single-sample calls.
//
//repro:noalloc
func (m *Mat) MulMatT(x, out *Mat) {
	if x.Cols != m.Cols || out.Cols != m.Rows || out.Rows != x.Rows {
		panic(fmt.Sprintf("nn: MulMatT shape mismatch: %dx%d · (%dx%d)ᵀ -> %dx%d",
			x.Rows, x.Cols, m.Rows, m.Cols, out.Rows, out.Cols))
	}
	dotRows(x, m, out, false)
}

// MulMat computes out = g · m — the batched form of MulVecT, with the
// receiver as the weight matrix: row b of out is mᵀ · (row b of g).
// Shapes: g is B×Rows, out is B×Cols. Every output element matches
// MulVecT exactly (+0, then rows ascending, zero entries of g skipped).
// It allocates the Rows×Cols transpose of m; MLP.BackwardBatch runs the
// same kernel on Workspace-owned scratch.
func (m *Mat) MulMat(g, out *Mat) {
	m.mulMat(g, out, make([]float64, m.Rows*m.Cols))
}

// mulMat is MulMat with caller-owned scratch of at least Rows×Cols.
//
//repro:noalloc
func (m *Mat) mulMat(g, out *Mat, scratch []float64) {
	if g.Cols != m.Rows || out.Cols != m.Cols || out.Rows != g.Rows {
		panic(fmt.Sprintf("nn: MulMat shape mismatch: %dx%d · %dx%d -> %dx%d",
			g.Rows, g.Cols, m.Rows, m.Cols, out.Rows, out.Cols))
	}
	mt, finite := transposeInto(m, scratch)
	// A skipped term would have added w·0 = ±0 to a sum that started at
	// +0. Under round-to-nearest such a sum is never -0, and adding ±0
	// to anything else leaves it unchanged, so for finite weights the
	// skip cannot change a bit. A non-finite weight makes w·0 NaN.
	if finite {
		dotRows(g, &mt, out, false)
	} else {
		dotRowsSkip(g, &mt, out, false)
	}
}

// AddOuterBatch accumulates Σ_b g[b] ⊗ x[b] into the matrix — the
// batched form of AddOuter for a dense layer's weight gradient over a
// minibatch. Every entry starts from its current value and receives its
// per-sample contributions in row order, zero entries of g skipped,
// exactly as B separate AddOuter calls would apply them. Shapes: g is
// B×Rows, x is B×Cols. It allocates transposes of g and x;
// MLP.BackwardBatch runs the same kernel on Workspace-owned scratch.
func (m *Mat) AddOuterBatch(g, x *Mat) {
	m.addOuterBatch(g, x, make([]float64, g.Rows*(m.Rows+m.Cols)))
}

// addOuterBatch is AddOuterBatch with caller-owned scratch of at least
// B×(Rows+Cols).
//
//repro:noalloc
func (m *Mat) addOuterBatch(g, x *Mat, scratch []float64) {
	if g.Cols != m.Rows || x.Cols != m.Cols || g.Rows != x.Rows {
		panic("nn: AddOuterBatch shape mismatch")
	}
	gt, _ := transposeInto(g, scratch)
	xt, finite := transposeInto(x, scratch[len(gt.Data):])
	// As in mulMat, a skipped term would add ±0; that leaves every sum
	// unchanged unless x holds a non-finite value or the sum starts
	// at -0 (-0 + +0 is +0).
	if finite && !hasNegZero(m.Data) {
		dotRows(&gt, &xt, m, true)
	} else {
		dotRowsSkip(&gt, &xt, m, true)
	}
}

// transposeInto writes the transpose of src into the front of dst and
// returns it as a Cols×Rows view, reporting whether every element is
// finite.
//
//repro:noalloc
func transposeInto(src *Mat, dst []float64) (t Mat, finite bool) {
	rows, cols := src.Rows, src.Cols
	t = Mat{Rows: cols, Cols: rows, Data: dst[:rows*cols]}
	finite = true
	for c := 0; c < cols; c++ {
		// Contiguous writes, strided reads: the cheaper direction.
		col, s := t.Data[c*rows:(c+1)*rows], src.Data[c:]
		for r := range col {
			v := s[r*cols]
			col[r] = v
			if v-v != 0 { // Inf or NaN
				finite = false
			}
		}
	}
	return t, finite
}

// hasNegZero reports whether v holds a negative zero.
func hasNegZero(v []float64) bool {
	for _, x := range v {
		if x == 0 && math.Signbit(x) {
			return true
		}
	}
	return false
}

// dotRows sets out[i][j] = s + Σ_k bt[j][k]·a[i][k], summed in
// ascending k, where s is +0, or out[i][j]'s current value when
// accumulate is set. a is I×K, bt is J×K and out is I×J, so both
// operands stream contiguously along the reduction axis. Outputs are
// computed in 2×2 tiles of independent accumulators: each (a, bt) load
// pair feeds four multiply-adds, and four dependency chains hide the
// floating-point add latency that bounds a single dot product. Blocking
// changes only how many sums are live at once; each sum still sees the
// same addends in the same order, so it is bit-identical to the
// one-element loop.
//
//repro:noalloc
func dotRows(a, bt, out *Mat, accumulate bool) {
	k, nj := a.Cols, bt.Rows
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		a0 := a.Data[i*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k][:len(a0)]
		o0 := out.Data[i*nj : (i+1)*nj]
		o1 := out.Data[(i+1)*nj : (i+2)*nj][:len(o0)]
		j := 0
		for ; j+2 <= nj; j += 2 {
			t0 := bt.Data[j*k : (j+1)*k][:len(a0)]
			t1 := bt.Data[(j+1)*k : (j+2)*k][:len(a0)]
			var s00, s01, s10, s11 float64
			if accumulate {
				s00, s01, s10, s11 = o0[j], o0[j+1], o1[j], o1[j+1]
			}
			for c, v0 := range a0 {
				v1, w0, w1 := a1[c], t0[c], t1[c]
				s00 += w0 * v0
				s01 += w1 * v0
				s10 += w0 * v1
				s11 += w1 * v1
			}
			o0[j], o0[j+1], o1[j], o1[j+1] = s00, s01, s10, s11
		}
		if j < nj {
			t0 := bt.Data[j*k : (j+1)*k][:len(a0)]
			var s0, s1 float64
			if accumulate {
				s0, s1 = o0[j], o1[j]
			}
			for c, v0 := range a0 {
				w0 := t0[c]
				s0 += w0 * v0
				s1 += w0 * a1[c]
			}
			o0[j], o1[j] = s0, s1
		}
	}
	if i < a.Rows {
		a0 := a.Data[i*k : (i+1)*k]
		o0 := out.Data[i*nj : (i+1)*nj]
		j := 0
		for ; j+2 <= nj; j += 2 {
			t0 := bt.Data[j*k : (j+1)*k][:len(a0)]
			t1 := bt.Data[(j+1)*k : (j+2)*k][:len(a0)]
			var s0, s1 float64
			if accumulate {
				s0, s1 = o0[j], o0[j+1]
			}
			for c, v0 := range a0 {
				s0 += t0[c] * v0
				s1 += t1[c] * v0
			}
			o0[j], o0[j+1] = s0, s1
		}
		if j < nj {
			t0 := bt.Data[j*k : (j+1)*k][:len(a0)]
			var s0 float64
			if accumulate {
				s0 = o0[j]
			}
			for c, v0 := range a0 {
				s0 += t0[c] * v0
			}
			o0[j] = s0
		}
	}
}

// dotRowsSkip is dotRows with the vector forms' zero skip: a term whose
// a[i][k] is zero is left out of the sum. It runs one element at a
// time, and only when non-finite operands or a -0 accumulator make the
// skip observable.
//
//repro:noalloc
func dotRowsSkip(a, bt, out *Mat, accumulate bool) {
	k, nj := a.Cols, bt.Rows
	for i := 0; i < a.Rows; i++ {
		ai := a.Data[i*k : (i+1)*k]
		oi := out.Data[i*nj : (i+1)*nj]
		for j := range oi {
			tj := bt.Data[j*k : (j+1)*k][:len(ai)]
			var s float64
			if accumulate {
				s = oi[j]
			}
			for c, v := range ai {
				if v != 0 {
					s += tj[c] * v
				}
			}
			oi[j] = s
		}
	}
}

// AddOuter accumulates g ⊗ x into the matrix (gradient of a dense layer's
// weights): m[r][c] += g[r]*x[c].
func (m *Mat) AddOuter(g, x []float64) {
	if len(g) != m.Rows || len(x) != m.Cols {
		panic("nn: AddOuter dim mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		gr := g[r]
		if gr == 0 {
			continue
		}
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c := range row {
			row[c] += gr * x[c]
		}
	}
}

// XavierInit fills the matrix with orthogonal-ish scaled uniform noise
// (Xavier/Glorot): U(-a, a) with a = sqrt(6/(fanIn+fanOut)) * gain.
func (m *Mat) XavierInit(rng *rand.Rand, gain float64) {
	a := gain * math.Sqrt(6.0/float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2*a - a
	}
}

// VecAdd returns a+b elementwise in a new slice.
func VecAdd(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("nn: VecAdd length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("nn: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
