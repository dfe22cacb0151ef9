// Package tensor provides the dense float32 linear-algebra kernels used by
// the Photon training substrate: matrix multiplication (with transposed
// variants for backpropagation), row-wise softmax, and the element-wise
// vector operations needed by a transformer language model.
//
// The package is deliberately small and allocation-conscious. All kernels
// operate on flat []float32 buffers with explicit dimensions so callers can
// reuse scratch memory across training steps. Matrix multiplication is
// cache-blocked and, above a size threshold, parallelized across row bands
// with goroutines.
package tensor

import (
	"fmt"
	"math"
	"math/bits"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
//
//photon:allocok
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns the i-th row as a sub-slice (no copy).
//
//photon:hotpath
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of the matrix.
//
//photon:allocok
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero clears all elements in place.
//
//photon:hotpath
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// parallelThreshold is the number of multiply-adds above which a kernel fans
// out across the worker pool. Tuned for small-model training where many
// matmuls are tiny and dispatch overhead dominates.
const parallelThreshold = 1 << 16

// MatMul computes C = A·B where A is m×k, B is k×n, and C is m×n.
// C must not alias A or B.
//
//photon:hotpath
func MatMul(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	dispatch(a.Rows, satMul(a.Cols, b.Cols), task{kind: kMatMul, c: *c, a: *a, b: *b})
}

// MatMulTransAAccum computes C += Aᵀ·B where A is k×m, B is k×n, C is m×n:
// the kernel used for weight gradients (dW += Xᵀ·dY).
// Parallelized over output rows (columns of A): each band owns its C rows so
// no synchronization is needed.
//
//photon:hotpath
func MatMulTransAAccum(c, a, b *Matrix) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic("tensor: MatMulTransAAccum shape mismatch")
	}
	dispatch(a.Cols, satMul(b.Cols, a.Rows), task{kind: kMatMulTransAAccum, c: *c, a: *a, b: *b})
}

// MatMulTransB computes C = A·Bᵀ where A is m×k, B is n×k, C is m×n.
// This is the kernel used for input gradients (dX = dY·Wᵀ) and attention
// scores (Q·Kᵀ).
//
//photon:hotpath
func MatMulTransB(c, a, b *Matrix) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch (%dx%d)·(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	dispatch(a.Rows, satMul(a.Cols, b.Rows), task{kind: kMatMulTransB, c: *c, a: *a, b: *b})
}

// axpy computes y += a*x for equal-length slices: y[i] = fma32(a, x[i], y[i]).
//
//photon:hotpath
func axpy(a float32, x, y []float32) {
	y = y[:len(x)]
	if useAVX2 && len(x) > 0 {
		axpyAVX2(a, &x[0], &y[0], len(x))
		return
	}
	for i, v := range x {
		y[i] = fma32(a, v, y[i])
	}
}

// Axpy computes y += a*x for equal-length slices (exported form).
//
//photon:hotpath
func Axpy(a float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	axpy(a, x, y)
}

// Dot returns the inner product of two equal-length vectors: element i of
// the 8·⌊n/8⌋ prefix accumulates by fma32 into lane i mod 8, the lanes reduce
// by the tree ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)), and the n mod 8 tail
// accumulates by fma32 into the sum, in order.
//
//photon:hotpath
func Dot(x, y []float32) float32 {
	y = y[:len(x)]
	if useAVX2 && len(x) > 0 {
		return dotAVX2(&x[0], &y[0], len(x))
	}
	var l [8]float32
	n8 := len(x) &^ 7
	for i := 0; i < n8; i += 8 {
		for j := range l {
			l[j] = fma32(x[i+j], y[i+j], l[j])
		}
	}
	s := ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
	for i := n8; i < len(x); i++ {
		s = fma32(x[i], y[i], s)
	}
	return s
}

// Scale multiplies every element of x by a in place.
//
//photon:hotpath
func Scale(a float32, x []float32) {
	if useAVX2 && len(x) > 0 {
		scaleAVX2(a, &x[0], len(x))
		return
	}
	for i := range x {
		x[i] *= a
	}
}

// Add computes dst[i] += src[i].
//
//photon:hotpath
func Add(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Add length mismatch")
	}
	if useAVX2 && len(src) > 0 {
		addAVX2(&dst[0], &src[0], len(src))
		return
	}
	for i, v := range src {
		dst[i] += v
	}
}

// Sub computes dst[i] -= src[i].
//
//photon:hotpath
func Sub(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Sub length mismatch")
	}
	if useAVX2 && len(src) > 0 {
		subAVX2(&dst[0], &src[0], len(src))
		return
	}
	for i, v := range src {
		dst[i] -= v
	}
}

// Mul computes dst[i] *= src[i].
//
//photon:hotpath
func Mul(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Mul length mismatch")
	}
	if useAVX2 && len(src) > 0 {
		mulAVX2(&dst[0], &src[0], len(src))
		return
	}
	for i, v := range src {
		dst[i] *= v
	}
}

// AdamWFactors are one AdamW step's float32 factors: the betas and their
// complements, the bias corrections 1/(1−βᵗ), the learning rate, the
// learning rate times the weight decay, and ε; and Fresh, set on the first
// step, when the moments are zero: they are then not read. The assembly body
// reads them at these offsets.
type AdamWFactors struct {
	B1, OB1, B2, OB2 float32
	InvC1, InvC2     float32
	LR, WD, Eps      float32
	Fresh            bool
}

// AdamW applies one AdamW update to data from grad, updating the moments m
// and v in place:
//
//	m ← B1·m + OB1·g,  v ← B2·v + OB2·g·g,
//	data ← data − (LR·(m·InvC1)/(√(v·InvC2) + Eps) + WD·data),
//
// every operation rounded to float32, the square root too. With Fresh the
// old m and v are taken as +0 without being read, so B1·m + OB1·g is still
// an add (−0 from OB1·g becomes +0, as after zeroing). grad, m and v must be
// at least as long as data.
//
//photon:hotpath
func AdamW(data, grad, m, v []float32, c *AdamWFactors) {
	grad, m, v = grad[:len(data)], m[:len(data)], v[:len(data)]
	j := 0
	if useAVX2 && len(data) >= 8 {
		j = len(data) &^ 7
		adamwAVX2(&data[0], &grad[0], &m[0], &v[0], j, c)
	}
	f := *c
	for ; j < len(data); j++ {
		g := grad[j]
		var mj, vj float32 // the fresh moments
		if !f.Fresh {
			mj, vj = m[j], v[j]
		}
		mj = float32(f.B1*mj) + float32(f.OB1*g)
		vj = float32(f.B2*vj) + float32(f.OB2*g*g)
		m[j], v[j] = mj, vj
		mhat := mj * f.InvC1
		vhat := vj * f.InvC2
		data[j] -= f.LR*mhat/(float32(math.Sqrt(float64(vhat)))+f.Eps) + float32(f.WD*data[j])
	}
}

// FoldMarks adds v into acc, acc[i] = v[i] + acc[i], and marks each sum
// against the key bracket [lo, hi]. A sum's key is its bits with the sign
// cleared, which orders like its magnitude (a NaN's above +Inf's). Bit i%64
// of above[i/64] is set when the key exceeds hi, and of within[i/64] when
// lo ≤ key ≤ hi; both need (len(v)+63)/64 words, which are overwritten. It
// returns how many elements each marks. The assembly takes 64 elements a
// word: add, store, and the two compares, eight lanes at a time.
//
//photon:hotpath
func FoldMarks(acc, v []float32, lo, hi uint32, above, within []uint64) (nAbove, nWithin int) {
	n := len(v)
	acc = acc[:n]
	words := (n + 63) / 64
	above, within = above[:words], within[:words]
	// Every key is at most MaxInt32: clamping changes no mark, and keeps
	// the bounds inside the assembly's signed compares.
	lo, hi = min(lo, math.MaxInt32+1), min(hi, math.MaxInt32)
	i := 0
	if useAVX2 && n >= 64 {
		i = n &^ 63
		nAbove, nWithin = foldMarksAVX2(&acc[0], &v[0], i, int32(lo-1), int32(hi), &above[0], &within[0])
	}
	for ; i < n; i += 64 {
		a, w := foldMarkWord(acc[i:min(i+64, n)], v[i:min(i+64, n)], lo, hi)
		above[i/64], within[i/64] = a, w
		nAbove += bits.OnesCount64(a)
		nWithin += bits.OnesCount64(w)
	}
	return nAbove, nWithin
}

// foldMarkWord is FoldMarks over up to 64 elements: one word of each bitmap.
// It is branch-free — the compares are the sign bits of 64-bit differences,
// shifted in from the top — and a function of its own so that the words stay
// in registers.
//
//go:noinline
//photon:hotpath
func foldMarkWord(acc, v []float32, lo, hi uint32) (above, within uint64) {
	acc = acc[:len(v)]
	for j, x := range v {
		s := x + acc[j]
		acc[j] = s
		key := uint64(math.Float32bits(s) & 0x7fffffff)
		gt := (uint64(hi) - key) >> 63 // key > hi
		lt := (key - uint64(lo)) >> 63 // key < lo
		above = above>>1 | gt<<63
		within = within>>1 | ((gt|lt)^1)<<63
	}
	return above >> (64 - len(v)), within >> (64 - len(v))
}

// Fill sets every element of x to v.
//
//photon:hotpath
func Fill(x []float32, v float32) {
	for i := range x {
		x[i] = v
	}
}

// SoftmaxRow converts x to a probability distribution in place using the
// numerically stable max-subtraction form.
//
//photon:hotpath
//photon:nolint unused-export -- reference implementation: TestCausalSoftmaxRowsMatchesReference and nn's reference attention test compare CausalSoftmaxRows against it
func SoftmaxRow(x []float32) {
	if len(x) == 0 {
		return
	}
	softmaxExp(x, rowMax(x))
}

// LogSumExpRow returns log(Σ exp(x_i)) computed stably.
//
//photon:hotpath
func LogSumExpRow(x []float32) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	maxV, sum := ExpRow(nil, x)
	return float64(maxV) + math.Log(sum)
}

// ArgMax returns the index of the largest element of x (first on ties), or
// -1 for an empty slice.
//
//photon:hotpath
func ArgMax(x []float32) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}
