package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// expVec and tanhVec run the lane bodies over a float64 slice as expSum
// does: whole groups of four in assembly, a group with a flagged lane and
// the tail through math.
func expVec(dst, src []float64) {
	i := 0
	for len(src)-i >= 4 {
		if i += expAVX2(&dst[i], &src[i], len(src)-i); len(src)-i < 4 {
			break
		}
		for end := i + 4; i < end; i++ {
			dst[i] = math.Exp(src[i])
		}
	}
	for ; i < len(src); i++ {
		dst[i] = math.Exp(src[i])
	}
}

func tanhVec(dst, src []float64) {
	i := len(src) &^ 3
	if i > 0 {
		tanhAVX2(&dst[0], &src[0], i)
	}
	for ; i < len(src); i++ {
		dst[i] = math.Tanh(src[i])
	}
}

// transcendentalEdges are the inputs where math.Exp or math.tanh changes
// branch, and the float32-rounded values the softmax and GELU bodies feed.
func transcendentalEdges() []float64 {
	const overflow = 7.09782712893384e+02 // math.archExp's threshold
	const tanhClamp = 44.014845965556525  // 0.5·MAXLOG in math.tanh
	e := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff8000000000123), // negative NaN with a payload
		709.78, overflow, math.Nextafter(overflow, 0), math.Nextafter(overflow, 1000),
		709.4, 709.43, 709.44, 709.5, 709.7, 710, 1000, 1e300, -1e300,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2.2250738585072014e-308, 1e-300, -1e-300, 1e-20, -1e-20,
		0.625, -0.625, math.Nextafter(0.625, 0), math.Nextafter(-0.625, 0),
		44.01, -44.01, tanhClamp, -tanhClamp, math.Nextafter(tanhClamp, 100), math.Nextafter(-tanhClamp, -100),
		44.02, -44.02, 88.03, 88.72, 88.73, -87.33, -87.34, -103.97, -103.98,
		1, -1, 0.5, -0.5, 2, -2, 10, -10, 20, 700, -700,
	}
	// The denormal and underflow band of exp: results below the smallest
	// normal number, then zero.
	for x := -708.0; x >= -745.5; x -= 0.37 {
		e = append(e, x, float64(float32(x)))
	}
	for _, x := range []float64{-708.39, -708.3964, -708.4, -744.44, -745.13, -745.1332191019412, -745.14, -746} {
		e = append(e, x, math.Nextafter(x, 0), math.Nextafter(x, -1000))
	}
	return e
}

// transcendentalInputs fills s with a mix of edges, float32-rounded values
// and uniform draws over exp's and tanh's whole interesting range.
func transcendentalInputs(rng *rand.Rand, s, edges []float64) {
	for i := range s {
		switch rng.Intn(5) {
		case 0:
			s[i] = edges[rng.Intn(len(edges))]
		case 1:
			s[i] = float64(float32(rng.NormFloat64() * 4))
		case 2:
			s[i] = (rng.Float64()*2 - 1) * 760
		case 3:
			s[i] = (rng.Float64()*2 - 1) * 50
		default:
			s[i] = rng.Float64()*2 - 1
		}
	}
}

// guarded64 returns a length-n slice at an odd offset inside a buffer whose
// other words hold a sentinel.
func guarded64(rng *rand.Rand, n int) (buf, s []float64) {
	const sentinel = -12345.678
	off := 1 + 2*rng.Intn(3)
	buf = make([]float64, off+n+5)
	for i := range buf {
		buf[i] = sentinel
	}
	return buf, buf[off : off+n : off+n]
}

func checkGuards64(t *testing.T, what string, n int, buf, s []float64) {
	t.Helper()
	off := len(buf) - 5 - len(s)
	for i, v := range buf {
		if (i < off || i >= off+len(s)) && v != -12345.678 {
			t.Fatalf("%s n=%d: wrote outside its operand at buf[%d]", what, n, i)
		}
	}
}

var laneBodies = []struct {
	name string
	vec  func(dst, src []float64)
	ref  func(float64) float64
}{
	{"exp", expVec, math.Exp},
	{"tanh", tanhVec, math.Tanh},
}

// checkLanes fails unless vec gives ref's bits on every element of src.
func checkLanes(t *testing.T, name string, vec func(dst, src []float64), ref func(float64) float64, src []float64) {
	t.Helper()
	dst := make([]float64, len(src))
	vec(dst, src)
	for i, x := range src {
		if want := ref(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("%s(%v) [bits %#x] lane %d of %d: asm %v (%#x), math %v (%#x)",
				name, x, math.Float64bits(x), i, len(src), dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
		}
	}
}

// TestTranscendentalBitwiseEqualGo holds the exp and tanh lane bodies to
// math.Exp and math.Tanh bit for bit: every length 0…67 at unaligned starts
// with guard words around the output, then every edge input in every lane of
// a group whose other lanes are ordinary, so the edge is not hidden behind a
// neighbour's fallback. math is compared as compiled, so should a Go
// release start fusing math.tanh's multiply-adds on amd64 (Go 1.24 does not
// at any GOAMD64 level; it does on arm64), the dense sweeps fail rather than
// the bits drifting.
func TestTranscendentalBitwiseEqualGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(24))
	edges := transcendentalEdges()
	for _, b := range laneBodies {
		for n := 0; n <= 67; n++ {
			for rep := 0; rep < 8; rep++ {
				_, src := guarded64(rng, n)
				transcendentalInputs(rng, src, edges)
				dbuf, dst := guarded64(rng, n)
				b.vec(dst, src)
				checkGuards64(t, b.name, n, dbuf, dst)
				for i, x := range src {
					if want := b.ref(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
						t.Fatalf("%s n=%d [%d]: %s(%v) asm %#x, math %#x", b.name, n, i, b.name, x,
							math.Float64bits(dst[i]), math.Float64bits(want))
					}
				}
			}
		}
		for _, e := range edges {
			for lane := 0; lane < 4; lane++ {
				src := []float64{0.3, -1.7, 2.9, -0.05}
				src[lane] = e
				checkLanes(t, b.name, b.vec, b.ref, src)
			}
		}
	}
	// Dense sweeps: fusing one multiply-add of math.tanh's polynomial moves
	// about 3 in 10⁴ small-branch results by an ulp, so a handful of inputs
	// would not notice it; 2¹⁷ do, hundreds of times over.
	for _, sw := range []struct {
		body   int
		lo, hi float64
	}{{0, -745.2, 709.8}, {0, -2, 2}, {1, -0.7, 0.7}, {1, -45, 45}} {
		src := make([]float64, 1<<17)
		for i := range src {
			src[i] = sw.lo + (sw.hi-sw.lo)*rng.Float64()
		}
		b := laneBodies[sw.body]
		checkLanes(t, b.name, b.vec, b.ref, src)
	}
}

// FuzzExpBitwise: for any float64 x, the exp and tanh lane bodies give
// math's bits on x, on its neighbours in the same vector and on its float32
// rounding.
func FuzzExpBitwise(f *testing.F) {
	if !hasAVX2FMA() {
		f.Skip("CPU lacks AVX2+FMA")
	}
	for _, e := range transcendentalEdges() {
		f.Add(e)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		src := []float64{x, -x, x / 2, float64(float32(x)), x}
		for _, b := range laneBodies {
			checkLanes(t, b.name, b.vec, b.ref, src)
		}
	})
}

// rowCase is a row kernel called on a copy of its operands; out returns
// what it produced, flattened to float32 bits and float64 bits.
type rowCase struct {
	name string
	run  func(x, y []float32) (f32 []float32, f64 []float64)
}

var rowCases = []rowCase{
	{"SoftmaxRow", func(x, _ []float32) ([]float32, []float64) {
		SoftmaxRow(x)
		return x, nil
	}},
	{"LogSumExpRow", func(x, _ []float32) ([]float32, []float64) {
		return nil, []float64{LogSumExpRow(x)}
	}},
	{"ExpRow", func(x, y []float32) ([]float32, []float64) {
		if len(x) == 0 {
			return nil, nil
		}
		m, sum := ExpRow(y, x)
		return append(y, m), []float64{sum}
	}},
	{"biasMax", func(x, _ []float32) ([]float32, []float64) {
		m := biasMax(x, 0.37, 0.0625, len(x)-1)
		return append(x, m), nil
	}},
	{"CausalSoftmaxRows", func(x, _ []float32) ([]float32, []float64) {
		seq := int(math.Sqrt(float64(len(x))))
		s := FromSlice(seq, seq, x[:seq*seq])
		if seq > 0 {
			CausalSoftmaxRows(s, 1, 1, []float32{0.125}, 0.37)
		}
		return s.Data, nil
	}},
	// Head dim 1, so each score is one rounded product on both paths and the
	// probabilities show the softmax alone (the context product is only
	// tolerance-equal across paths).
	{"AttendDecode", func(x, y []float32) ([]float32, []float64) {
		if len(x) == 0 {
			return nil, nil
		}
		qrows := min(len(x), 3)
		it := DecodeItem{Q: y[:qrows], K: x, V: y, Probs: make([]float32, qrows*len(x)),
			Ctx: make([]float32, qrows), QRows: qrows, KRows: len(x), Slope: 0.25}
		AttendDecode([]DecodeItem{it}, 0.5)
		return it.Probs, nil
	}},
	{"GELU", func(x, y []float32) ([]float32, []float64) {
		GELU(y, x)
		return y, nil
	}},
	// Both outputs of the fused body; the Go loop is geluScalar and
	// geluGradScalar per element.
	{"GELUWithGrad", func(x, y []float32) ([]float32, []float64) {
		dg := make([]float32, len(x))
		GELUWithGrad(y, dg, x)
		return append(y, dg...), nil
	}},
}

// rowInputs fills x with scores or pre-activations: mostly ordinary values,
// some far enough below the row's maximum that exp lands in the denormal
// band or underflows, some past tanh's edges, and with special set a few
// zeros of either sign, infinities and NaNs.
func rowInputs(rng *rand.Rand, x []float32, special bool) {
	for i := range x {
		switch v := rng.Intn(16); {
		case v < 9:
			x[i] = float32(rng.NormFloat64() * 3)
		case v < 11:
			x[i] = float32(-700 - 60*rng.Float64())
		case v < 13:
			x[i] = float32((rng.Float64()*2 - 1) * 60)
		case v == 13:
			x[i] = float32(rng.Float64()*2-1) * 0.7
		case !special:
			x[i] = float32(rng.NormFloat64())
		default:
			x[i] = []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)),
				float32(math.Inf(-1)), float32(math.NaN())}[rng.Intn(5)]
		}
	}
}

// TestRowKernelsBitwiseEqualGo holds every kernel built on the lane bodies
// — the softmaxes, log-sum-exp, the cross-entropy row, the attention score
// bias and maximum, and GELU alone and with its derivative — to its Go loop
// bit for bit, lengths 0…67, unaligned, with and without special values
// (where a NaN output need only be a NaN: its payload is whichever operand
// x86 propagates).
func TestRowKernelsBitwiseEqualGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(25))
	same32 := func(a, b float32) bool {
		return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
	}
	for _, rc := range rowCases {
		for _, special := range []bool{false, true} {
			for n := 0; n <= 67; n++ {
				xbuf, x := guarded(rng, n)
				ybuf, y := guarded(rng, n)
				rowInputs(rng, x, special)
				x0, y0 := slices.Clone(x), slices.Clone(y)
				useAVX2 = false
				want32, want64 := rc.run(slices.Clone(x), slices.Clone(y))
				useAVX2 = true
				got32, got64 := rc.run(x, y)
				checkGuards(t, rc.name, n, xbuf, x)
				checkGuards(t, rc.name, n, ybuf, y)
				for i := range want32 {
					if !same32(got32[i], want32[i]) {
						t.Fatalf("%s n=%d special=%v [%d]: asm %g (%#x), go %g (%#x)\nx=%v\ny=%v", rc.name, n, special, i,
							got32[i], math.Float32bits(got32[i]), want32[i], math.Float32bits(want32[i]), x0, y0)
					}
				}
				for i := range want64 {
					if g, w := got64[i], want64[i]; math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
						t.Fatalf("%s n=%d special=%v: asm %v, go %v\nx=%v", rc.name, n, special, g, w, x0)
					}
				}
			}
		}
	}
}

// TestRowMaxMatchesScan: the lane maxima return what the Go scans return
// wherever a NaN or a zero of either sign sits — in the 8-wide body, in its
// last vector, in the scalar tail, first — including the sign of a zero
// maximum, which the scan takes from the first zero it meets.
func TestRowMaxMatchesScan(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(26))
	nz := float32(math.Copysign(0, -1))
	specials := []float32{float32(math.NaN()), 0, nz}
	for n := 1; n <= 21; n++ {
		for p := 0; p < n; p++ {
			for _, sp := range specials {
				x := make([]float32, n)
				for i := range x {
					x[i] = -float32(rng.Intn(4)) // ties, and zero maxima
					if rng.Intn(3) == 0 {
						x[i] = nz
					}
				}
				x[p] = sp
				for _, f := range []struct {
					name string
					run  func([]float32) float32
				}{
					{"rowMax", rowMax},
					{"biasMax", func(x []float32) float32 { return biasMax(x, 1, 0, len(x)) }},
				} {
					useAVX2 = false
					want := f.run(slices.Clone(x))
					useAVX2 = true
					if got := f.run(slices.Clone(x)); math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("%s(%v) = %#x, scan gives %#x", f.name, x, math.Float32bits(got), math.Float32bits(want))
					}
				}
			}
		}
	}
}
