package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// naiveMatMul is the reference O(mnk) implementation used to validate the
// blocked/parallel kernels.
func naiveMatMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for p := 0; p < a.Cols; p++ {
				s += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			c.Set(i, j, float32(s))
		}
	}
	return c
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// FromSlice wraps data, rows·cols elements, as a matrix.
func FromSlice(rows, cols int, data []float32) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: data[: rows*cols : rows*cols]}
}

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	RandNormal(rng, m.Data, 0, 1)
	return m
}

func transpose(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

func matricesClose(t *testing.T, got, want *Matrix, tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape mismatch: got %dx%d want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if !almostEqual(float64(got.Data[i]), float64(want.Data[i]), tol) {
			t.Fatalf("element %d: got %g want %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 3}, {16, 16, 16}, {33, 65, 17}, {128, 64, 96}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randMatrix(rng, m, k)
		b := randMatrix(rng, k, n)
		c := NewMatrix(m, n)
		MatMul(c, a, b)
		matricesClose(t, c, naiveMatMul(a, b), 1e-3)
	}
}

func TestMatMulOverwritesOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 4, 4)
	b := randMatrix(rng, 4, 4)
	c := randMatrix(rng, 4, 4) // pre-filled garbage must be overwritten
	MatMul(c, a, b)
	matricesClose(t, c, naiveMatMul(a, b), 1e-4)
}

func TestMatMulTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMatrix(rng, 9, 4) // k x m
	b := randMatrix(rng, 9, 5) // k x n
	c := NewMatrix(4, 5)
	MatMulTransAAccum(c, a, b)
	matricesClose(t, c, naiveMatMul(transpose(a), b), 1e-3)
}

func TestMatMulTransAAccumAddsToExisting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, 6, 3)
	b := randMatrix(rng, 6, 2)
	c := randMatrix(rng, 3, 2)
	want := naiveMatMul(transpose(a), b)
	Add(want.Data, c.Data)
	MatMulTransAAccum(c, a, b)
	matricesClose(t, c, want, 1e-3)
}

func TestMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMatrix(rng, 8, 3) // m x k
	b := randMatrix(rng, 5, 3) // n x k
	c := NewMatrix(8, 5)
	MatMulTransB(c, a, b)
	matricesClose(t, c, naiveMatMul(a, transpose(b)), 1e-3)
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2))
}

func TestSoftmaxRow(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	SoftmaxRow(x)
	var sum float64
	for _, v := range x {
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax element out of (0,1): %v", v)
		}
		sum += float64(v)
	}
	if !almostEqual(sum, 1, 1e-5) {
		t.Fatalf("softmax does not sum to 1: %v", sum)
	}
	for i := 1; i < len(x); i++ {
		if x[i] <= x[i-1] {
			t.Fatal("softmax should be monotone for monotone inputs")
		}
	}
}

func TestSoftmaxRowStability(t *testing.T) {
	// Very large logits must not overflow.
	x := []float32{1e4, 1e4 + 1}
	SoftmaxRow(x)
	if math.IsNaN(float64(x[0])) || math.IsNaN(float64(x[1])) {
		t.Fatal("softmax produced NaN for large logits")
	}
	if !almostEqual(float64(x[0]+x[1]), 1, 1e-5) {
		t.Fatal("softmax of large logits does not sum to 1")
	}
}

func TestSoftmaxRowEmpty(t *testing.T) {
	SoftmaxRow(nil) // must not panic
}

func TestLogSumExpRow(t *testing.T) {
	x := []float32{0, 0, 0, 0}
	got := LogSumExpRow(x)
	if !almostEqual(got, math.Log(4), 1e-9) {
		t.Fatalf("LogSumExp of zeros: got %v want %v", got, math.Log(4))
	}
	if !math.IsInf(LogSumExpRow(nil), -1) {
		t.Fatal("LogSumExp of empty slice should be -Inf")
	}
}

func TestDotAxpyScale(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{4, 5, 6}
	if got := Dot(x, y); !almostEqual(float64(got), 32, 1e-6) {
		t.Fatalf("Dot: got %v want 32", got)
	}
	Axpy(2, x, y)
	want := []float32{6, 9, 12}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy element %d: got %v want %v", i, y[i], want[i])
		}
	}
	Scale(0.5, y)
	want = []float32{3, 4.5, 6}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Scale element %d: got %v want %v", i, y[i], want[i])
		}
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float32{1, 5, 2, 5}); got != 1 {
		t.Fatalf("ArgMax ties should return first: got %d", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Fatalf("ArgMax(nil): got %d want -1", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ, checked through the kernels.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := randMatrix(rng, m, k)
		b := randMatrix(rng, k, n)
		ab := NewMatrix(m, n)
		MatMul(ab, a, b)
		btat := naiveMatMul(transpose(b), transpose(a))
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if !almostEqual(float64(ab.At(i, j)), float64(btat.At(j, i)), 1e-3) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax is invariant to adding a constant to every logit.
func TestSoftmaxShiftInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(16)
		x := make([]float32, n)
		y := make([]float32, n)
		shift := float32(r.NormFloat64() * 10)
		for i := range x {
			x[i] = float32(r.NormFloat64())
			y[i] = x[i] + shift
		}
		SoftmaxRow(x)
		SoftmaxRow(y)
		for i := range x {
			if !almostEqual(float64(x[i]), float64(y[i]), 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandNormalMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := make([]float32, 200000)
	RandNormal(rng, x, 2, 3)
	var mean float64
	for _, v := range x {
		mean += float64(v)
	}
	mean /= float64(len(x))
	var varr float64
	for _, v := range x {
		d := float64(v) - mean
		varr += d * d
	}
	varr /= float64(len(x))
	if !almostEqual(mean, 2, 0.05) {
		t.Fatalf("RandNormal mean: got %v want 2", mean)
	}
	if !almostEqual(math.Sqrt(varr), 3, 0.05) {
		t.Fatalf("RandNormal std: got %v want 3", math.Sqrt(varr))
	}
}
