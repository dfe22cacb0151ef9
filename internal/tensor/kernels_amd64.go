package tensor

// useAVX2 routes the micro-kernels to kernels_amd64.s. CPUID/XGETBV decide
// it once, here, and nothing else does (tests flip it to compare the paths).
var useAVX2 = hasAVX2FMA()

func hasAVX2FMA() bool

//go:noescape
//photon:hotpath
func axpyAVX2(a float32, x, y *float32, n int)

//go:noescape
//photon:hotpath
func tile4x16AVX2(a *float32, ars, aps int, b *float32, ldb int, c *float32, ldc, kc int, skip bool)

//go:noescape
//photon:hotpath
func axpyRowAVX2(a, b *float32, ldb int, c *float32, kc, n int)

//go:noescape
//photon:hotpath
func axpy4inAVX2(a0, a1, a2, a3 float32, x0, x1, x2, x3, y *float32, n int)

//go:noescape
//photon:hotpath
func dotAVX2(x, y *float32, n int) float32

//go:noescape
//photon:hotpath
func dot4AVX2(x, y0, y1, y2, y3 *float32, n int) (s0, s1, s2, s3 float32)

//go:noescape
//photon:hotpath
func dot3x4AVX2(a *float32, lda int, b *float32, ldb int, c *float32, ldc, k, nb int)

//go:noescape
//photon:hotpath
func dot4x2AVX2(x0, x1, y0, y1, y2, y3 *float32, n int) (s00, s01, s02, s03, s10, s11, s12, s13 float32)

//go:noescape
//photon:hotpath
func addAVX2(dst, src *float32, n int)

//go:noescape
//photon:hotpath
func subAVX2(dst, src *float32, n int)

//go:noescape
//photon:hotpath
func mulAVX2(dst, src *float32, n int)

//go:noescape
//photon:hotpath
func softmaxGradAVX2(d, p *float32, n int, dot, scale float32)

//go:noescape
//photon:hotpath
func scaleAVX2(a float32, x *float32, n int)

func fmaPeakAVX2(iters int) // 160·iters flops from registers: BenchmarkFMAPeak

//go:noescape
//photon:hotpath
func expSumAVX2(dst, x *float32, n int, m float32, sum float64, rounded bool) (done int, s float64)

//go:noescape
//photon:hotpath
func maxAVX2(x *float32, n int) float32

//go:noescape
//photon:hotpath
func biasMaxAVX2(row *float32, n int, scale, slope float32, pos int) float32

//go:noescape
//photon:hotpath
func geluAVX2(dst, x *float32, n int)

//go:noescape
//photon:hotpath
func geluWithGradAVX2(y, dg, x *float32, n int)

//go:noescape
//photon:hotpath
func adamwAVX2(data, grad, m, v *float32, n int, c *AdamWFactors)

// expAVX2, tanhAVX2 and geluLanesAVX2 are the lane bodies on float64 slices,
// for the tests that hold them to math.Exp, math.Tanh and the GELU
// expressions bit for bit.

//go:noescape
func expAVX2(dst, src *float64, n int) (done int)

//go:noescape
func tanhAVX2(dst, src *float64, n int)

//go:noescape
func geluLanesAVX2(y, dg, src *float64, n int)

//go:noescape
//photon:hotpath
func foldMarksAVX2(acc, v *float32, n int, loMinus1, hi int32, above, within *uint64) (nAbove, nWithin int)
