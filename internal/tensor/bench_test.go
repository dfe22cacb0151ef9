package tensor

import (
	"math/rand"
	"testing"
)

// Transformer-step shapes: activations[N,k]·weights[k,n] with N = B·T.
var mmShapes = []struct {
	name    string
	m, k, n int
}{
	{"512x64x256", 512, 64, 256},   // FC1 forward
	{"512x256x64", 512, 256, 64},   // FC2 forward
	{"512x64x192", 512, 64, 192},   // fused QKV forward
	{"128x128x128", 128, 128, 128}, // square reference
}

func BenchmarkMatMul(b *testing.B) {
	for _, sh := range mmShapes {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := randMatrix(rng, sh.m, sh.k)
			bb := randMatrix(rng, sh.k, sh.n)
			c := NewMatrix(sh.m, sh.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(c, a, bb)
			}
			reportGFLOPs(b, 2*float64(sh.m)*float64(sh.k)*float64(sh.n))
		})
	}
}

func BenchmarkMatMulTransB(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 512, 64)
	bb := randMatrix(rng, 256, 64)
	c := NewMatrix(512, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransB(c, a, bb)
	}
	reportGFLOPs(b, 2*512*64*256)
}

// reportGFLOPs stops the timer and reports achieved GFLOP/s for a benchmark
// whose iteration performs flopsPerOp floating-point operations; read it
// against BenchmarkFMAPeak's figure for the same core.
func reportGFLOPs(b *testing.B, flopsPerOp float64) {
	b.StopTimer()
	b.ReportMetric(flopsPerOp*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
}

// BenchmarkBatchAttentionKernels times the three batched kernels that make
// up one attention forward at bench shape (B·H=8 items, T=256, d=16).
func BenchmarkBatchAttentionKernels(b *testing.B) {
	const items, seq, hd, heads = 8, 256, 16, 4
	rng := rand.New(rand.NewSource(3))
	q := randMatrix(rng, items*seq, hd)
	k := randMatrix(rng, items*seq, hd)
	v := randMatrix(rng, items*seq, hd)
	s := NewMatrix(items*seq, seq)
	ctx := NewMatrix(items*seq, hd)
	slopes := testSlopes(heads)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchMatMulTransBCausal(s, q, k, items)
		CausalSoftmaxRows(s, items/heads, heads, slopes, 0.25)
		BatchMatMulCausal(ctx, s, v, items)
	}
}

// testSlopes mirrors nn.AlibiSlopes for benchmarks without an import cycle.
func testSlopes(heads int) []float32 {
	slopes := make([]float32, heads)
	for i := range slopes {
		slopes[i] = 1 / float32(int(2)<<i)
	}
	return slopes
}
