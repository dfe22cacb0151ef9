package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// itemView returns item t of a vertically stacked batch matrix.
func itemView(m *Matrix, batch, t int) *Matrix {
	rows := m.Rows / batch
	return FromSlice(rows, m.Cols, m.Data[t*rows*m.Cols:(t+1)*rows*m.Cols])
}

// randShapes generates batched shapes including non-multiples of the 4-wide
// register tiles and the kcBlock cache block (sizes like 1, 3, 129 exercise
// every remainder path).
func randShapes(r *rand.Rand) (batch, m, k, n int) {
	dims := []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 129}
	pick := func() int { return dims[r.Intn(len(dims))] }
	return 1 + r.Intn(4), pick(), pick(), pick()
}

func TestBatchMatMulTransAMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		batch, m, k, n := randShapes(r)
		a := randMatrix(rng, batch*k, m)
		b := randMatrix(rng, batch*k, n)
		c := randMatrix(rng, batch*m, n) // garbage must be overwritten
		BatchMatMulTransA(c, a, b, batch)
		for bt := 0; bt < batch; bt++ {
			want := naiveMatMul(transpose(itemView(a, batch, bt)), itemView(b, batch, bt))
			got := itemView(c, batch, bt)
			for i := range got.Data {
				if !almostEqual(float64(got.Data[i]), float64(want.Data[i]), 1e-4*float64(k)) {
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

// Causal variants: on inputs whose upper triangle is zeroed (for A) the
// causal product must equal the dense product restricted to j ≤ i, and the
// score product must leave every entry above the diagonal untouched. Head
// dim 7 is all tail; 16 is two 8-lane chunks and none.
func TestCausalBatchKernelsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, hd := range []int{7, 16} {
		for _, seq := range []int{1, 2, 3, 5, 8, 13, 33} {
			causalBatchMatchDense(t, rng, seq, hd)
		}
	}
}

func causalBatchMatchDense(t *testing.T, rng *rand.Rand, seq, hd int) {
	const batch = 3
	q := randMatrix(rng, batch*seq, hd)
	k := randMatrix(rng, batch*seq, hd)
	// Scores: causal kernel writes only j ≤ i.
	s := NewMatrix(batch*seq, seq)
	const sentinel = 0x7fc0beef // a quiet NaN no arithmetic produces
	Fill(s.Data, math.Float32frombits(sentinel))
	BatchMatMulTransBCausal(s, q, k, batch)
	for bt := 0; bt < batch; bt++ {
		want := naiveMatMul(itemView(q, batch, bt), transpose(itemView(k, batch, bt)))
		got := itemView(s, batch, bt)
		for i := 0; i < seq; i++ {
			for j := 0; j <= i; j++ {
				if !almostEqual(float64(got.At(i, j)), float64(want.At(i, j)), 1e-4*float64(hd)) {
					t.Fatalf("hd %d seq %d item %d score (%d,%d): got %g want %g", hd, seq, bt, i, j, got.At(i, j), want.At(i, j))
				}
			}
			for j := i + 1; j < seq; j++ {
				if math.Float32bits(got.At(i, j)) != sentinel {
					t.Fatalf("hd %d seq %d item %d score (%d,%d) above the diagonal: wrote %g", hd, seq, bt, i, j, got.At(i, j))
				}
			}
		}
	}
	// Context: P·V with a lower-triangular P must match the dense product.
	p := randMatrix(rng, batch*seq, seq)
	for bt := 0; bt < batch; bt++ {
		for i := 0; i < seq; i++ {
			for j := i + 1; j < seq; j++ {
				itemView(p, batch, bt).Set(i, j, 0)
			}
		}
	}
	v := randMatrix(rng, batch*seq, hd)
	ctx := randMatrix(rng, batch*seq, hd) // garbage must be overwritten
	BatchMatMulCausal(ctx, p, v, batch)
	for bt := 0; bt < batch; bt++ {
		want := naiveMatMul(itemView(p, batch, bt), itemView(v, batch, bt))
		got := itemView(ctx, batch, bt)
		for i := range got.Data {
			if !almostEqual(float64(got.Data[i]), float64(want.Data[i]), 1e-4*float64(seq)) {
				t.Fatalf("hd %d seq %d item %d ctx[%d]: got %g want %g", hd, seq, bt, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestCausalSoftmaxRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const batch, heads, seq = 2, 3, 9
	slopes := []float32{0.5, 0.25, 0.125}
	scale := float32(0.3)
	s := randMatrix(rng, batch*heads*seq, seq)
	ref := s.Clone()
	CausalSoftmaxRows(s, batch, heads, slopes, scale)
	for it := 0; it < batch*heads; it++ {
		slope := slopes[it%heads]
		for i := 0; i < seq; i++ {
			row := make([]float32, i+1)
			for j := 0; j <= i; j++ {
				row[j] = ref.At(it*seq+i, j)*scale + slope*float32(j-i)
			}
			SoftmaxRow(row)
			var sum float64
			for j := 0; j < seq; j++ {
				got := float64(s.At(it*seq+i, j))
				if j <= i {
					if !almostEqual(got, float64(row[j]), 1e-5) {
						t.Fatalf("item %d row %d col %d: got %g want %g", it, i, j, got, row[j])
					}
				} else if got != 0 {
					t.Fatalf("item %d row %d col %d: masked entry %g != 0", it, i, j, got)
				}
				sum += got
			}
			if !almostEqual(sum, 1, 1e-4) {
				t.Fatalf("item %d row %d sums to %g", it, i, sum)
			}
		}
	}
}

// The fused softmax gradient must match the Jacobian-vector product
// dS_ij = scale·P_ij·(dP_ij − Σ_k P_ik·dP_ik) computed naively.
func TestCausalSoftmaxGradRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const batch, heads, seq = 2, 2, 7
	scale := float32(0.7)
	slopes := []float32{0.5, 0.25}
	p := randMatrix(rng, batch*heads*seq, seq)
	CausalSoftmaxRows(p, batch, heads, slopes, 1) // real probabilities, causal support
	dp := randMatrix(rng, batch*heads*seq, seq)
	want := NewMatrix(batch*heads*seq, seq)
	for r := 0; r < p.Rows; r++ {
		i := r % seq
		var dot float64
		for j := 0; j <= i; j++ {
			dot += float64(p.At(r, j)) * float64(dp.At(r, j))
		}
		for j := 0; j <= i; j++ {
			want.Set(r, j, scale*p.At(r, j)*(dp.At(r, j)-float32(dot)))
		}
	}
	CausalSoftmaxGradRows(dp, p, batch, heads, scale)
	for r := 0; r < p.Rows; r++ {
		for j := 0; j < seq; j++ {
			if !almostEqual(float64(dp.At(r, j)), float64(want.At(r, j)), 1e-5) {
				t.Fatalf("row %d col %d: got %g want %g", r, j, dp.At(r, j), want.At(r, j))
			}
		}
	}
}

// TestCausalSoftmaxGradMatchesOneRowLoop holds the four-row interleave of
// CausalSoftmaxGradRows, and the row update's assembly body, to the one-row
// Go loop they replaced, bit for bit: seq 1…13 (every remainder of four) and
// 128, one and eight items, at GOMAXPROCS 1 and 2. Every entry above the
// diagonal starts as a NaN and must come out an exact +0.
func TestCausalSoftmaxGradMatchesOneRowLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(28))
	const heads, scale = 1, float32(0.37)
	seqs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 128}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, items := range []int{1, 8} {
			for _, seq := range seqs {
				p := randMatrix(rng, items*seq, seq)
				CausalSoftmaxRows(p, items, heads, []float32{0.5}, 1)
				dp := randMatrix(rng, items*seq, seq)
				for r := 0; r < dp.Rows; r++ {
					for j := r%seq + 1; j < seq; j++ {
						dp.Set(r, j, float32(math.NaN()))
					}
				}
				want := dp.Clone()
				for r := 0; r < want.Rows; r++ {
					i, pr, dpr := r%seq, p.Row(r), want.Row(r)
					var dot float32
					for j := 0; j <= i; j++ {
						dot += pr[j] * dpr[j]
					}
					for j := 0; j <= i; j++ {
						dpr[j] = scale * pr[j] * (dpr[j] - dot)
					}
					for j := i + 1; j < seq; j++ {
						dpr[j] = 0
					}
				}
				CausalSoftmaxGradRows(dp, p, items, heads, scale)
				for r := 0; r < dp.Rows; r++ {
					if j := sameBits(dp.Row(r), want.Row(r)); j >= 0 {
						t.Fatalf("GOMAXPROCS=%d items=%d seq=%d row %d col %d: %#x, one-row loop %#x", procs, items, seq, r, j,
							math.Float32bits(dp.At(r, j)), math.Float32bits(want.At(r, j)))
					}
				}
			}
		}
	}
}

// sameBits reports the first index where two rows differ bitwise, or -1.
func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

func TestBatchShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"rows-not-divisible": func() { BatchMatMulCausal(NewMatrix(3, 3), NewMatrix(3, 3), NewMatrix(3, 2), 2) },
		"inner-mismatch":     func() { BatchMatMulTransA(NewMatrix(6, 2), NewMatrix(4, 3), NewMatrix(6, 2), 2) },
		"causal-not-square":  func() { BatchMatMulTransBCausal(NewMatrix(4, 3), NewMatrix(4, 5), NewMatrix(6, 5), 2) },
		"softmax-slopes":     func() { CausalSoftmaxRows(NewMatrix(4, 2), 1, 2, []float32{1}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// satMul must saturate instead of overflowing: the volume hint for a
// paper-scale gradient matmul (rows · cols²) exceeds int64 and previously
// wrapped negative, silently disabling the parallel path.
func TestSatMulSaturates(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, maxInt, 0},
		{maxInt, 0, 0},
		{1, maxInt, maxInt},
		{maxInt, 2, maxInt},
		{1 << 32, 1 << 32, maxInt},
		{123, 456, 123 * 456},
	}
	for _, c := range cases {
		if got := satMul(c.a, c.b); got != c.want {
			t.Errorf("satMul(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestBandStep pins dispatch's split rule: bands of whole row tiles, and one
// band (inline) for fewer items than two row tiles.
func TestBandStep(t *testing.T) {
	cases := []struct{ items, tile, workers, want int }{
		{4, 3, 2, 4}, // a 4-row A·Bᵀ product: inline, not 3/1
		{5, 3, 2, 5}, // still under two dot tiles
		{6, 3, 2, 3}, // 3/3
		{8, 3, 2, 6}, // 6/2, the split measured best for 8 logits rows
		{4, 4, 2, 4}, // one tile4x16 row group
		{8, 4, 2, 4}, // 4/4
		{9, 4, 2, 8}, // 8/1: the last band takes what is left
		{2, 1, 2, 1}, // one-row kernels split at two items
		{3, 1, 2, 2}, // 2/1
		{7, 1, 8, 1}, // more workers than items
		{100, 1, 4, 25},
		{8, 3, 1, 8}, // one worker: inline
		{1, 1, 2, 1},
	}
	for _, c := range cases {
		if got := bandStep(c.items, c.tile, c.workers); got != c.want {
			t.Errorf("bandStep(%d items, tile %d, %d workers) = %d, want %d", c.items, c.tile, c.workers, got, c.want)
		}
	}
}

// Regression: a volume hint near MaxInt must not overflow the serial/parallel
// decision — every row must still be processed exactly once.
func TestParallelHugeVolumeHintCoversAllRows(t *testing.T) {
	const rows = 1000
	var counts [rows]int32
	var fn = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	}
	Parallel(rows, maxInt, fn)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("row %d processed %d times", i, c)
		}
	}
}

// The pool must degrade to inline execution under GOMAXPROCS(1) — the mode
// testing.AllocsPerRun measures in — and still cover every band.
func TestParallelSingleProcInline(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var counts [64]int32
	fn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			counts[i]++ // no atomics: must run on the calling goroutine
		}
	}
	Parallel(len(counts), maxInt, fn)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("row %d processed %d times", i, c)
		}
	}
}

// Large shapes above parallelThreshold: on multi-core machines these go
// through the worker pool (band splitting + channel dispatch), so this is
// the correctness test for the parallel path itself. Odd sizes exercise the
// band-boundary and register-tile remainders at scale.
func TestParallelKernelsLargeShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("large-shape kernel comparison")
	}
	rng := rand.New(rand.NewSource(31))
	m, k, n := 203, 157, 211
	a := randMatrix(rng, m, k)
	b := randMatrix(rng, k, n)
	c := NewMatrix(m, n)
	MatMul(c, a, b)
	matricesClose(t, c, naiveMatMul(a, b), 1e-2)

	bt := randMatrix(rng, n, k)
	ct := NewMatrix(m, n)
	MatMulTransB(ct, a, bt)
	matricesClose(t, ct, naiveMatMul(a, transpose(bt)), 1e-2)

	at := randMatrix(rng, k, m)
	ca := NewMatrix(m, n)
	bb := randMatrix(rng, k, n)
	MatMulTransAAccum(ca, at, bb)
	matricesClose(t, ca, naiveMatMul(transpose(at), bb), 1e-2)

	// Batched causal pipeline at attention scale (items over the pool).
	const items, seq, hd, heads = 8, 96, 16, 4
	q := randMatrix(rng, items*seq, hd)
	kk := randMatrix(rng, items*seq, hd)
	v := randMatrix(rng, items*seq, hd)
	s := NewMatrix(items*seq, seq)
	BatchMatMulTransBCausal(s, q, kk, items)
	CausalSoftmaxRows(s, items/heads, heads, testSlopes(heads), 0.25)
	ctx := NewMatrix(items*seq, hd)
	BatchMatMulCausal(ctx, s, v, items)
	for it := 0; it < items; it++ {
		for i := 0; i < seq; i++ {
			var sum float64
			for j := 0; j <= i; j++ {
				sum += float64(s.At(it*seq+i, j))
			}
			if !almostEqual(sum, 1, 1e-4) {
				t.Fatalf("item %d row %d: probabilities sum to %g", it, i, sum)
			}
		}
	}
}
