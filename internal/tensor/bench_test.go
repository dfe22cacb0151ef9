package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Transformer-step shapes m×k×n: activations[N,k]·weights[k,n] with N = B·T,
// then a decode step's one to four rows a shard over the same weights.
var mmShapes = [][3]int{
	{512, 64, 256},  // FC1 forward
	{512, 256, 64},  // FC2 forward
	{512, 64, 192},  // fused QKV forward
	{128, 128, 128}, // square reference
	// Decode: one to three rows run axpyRow's register tile, four tile4x16.
	{1, 64, 192}, {2, 64, 192}, {3, 64, 192}, {4, 64, 192},
	{1, 64, 256}, {2, 64, 256}, {3, 64, 256}, {4, 64, 256},
	{1, 256, 64}, {2, 256, 64}, {3, 256, 64}, {4, 256, 64},
}

func BenchmarkMatMul(b *testing.B) {
	for _, sh := range mmShapes {
		m, k, n := sh[0], sh[1], sh[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := randMatrix(rng, m, k)
			bb := randMatrix(rng, k, n)
			c := NewMatrix(m, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(c, a, bb)
			}
			reportGFLOPs(b, 2*float64(m)*float64(k)*float64(n))
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

// BenchmarkMatMulTransAAccum is a weight gradient at train-step shape:
// dW[64,256] += Xᵀ·dY with X [256,64] and dY [256,256] (B·T = 256 tokens).
func BenchmarkMatMulTransAAccum(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := randMatrix(rng, 256, 64)
	dy := randMatrix(rng, 256, 256)
	dw := NewMatrix(64, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransAAccum(dw, x, dy)
	}
	reportGFLOPs(b, 2*256*64*256)
}

// BenchmarkBatchMatMulCausal is the attention context product P·V at the
// fed-sync-compute shape (B·H = 8 items, T = 128, head dim 16); flops count
// the causal support only.
func BenchmarkBatchMatMulCausal(b *testing.B) {
	const items, seq, hd = 8, 128, 16
	rng := rand.New(rand.NewSource(7))
	p := randMatrix(rng, items*seq, seq)
	v := randMatrix(rng, items*seq, hd)
	ctx := NewMatrix(items*seq, hd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchMatMulCausal(ctx, p, v, items)
	}
	reportGFLOPs(b, 2*items*hd*seq*(seq+1)/2)
}

// BenchmarkBatchMatMulTransBCausal is the attention score product Q·Kᵀ at
// the fed-sync-compute shape (B·H = 8 items, T = 128, head dim 16); flops
// count the causal support only.
func BenchmarkBatchMatMulTransBCausal(b *testing.B) {
	const items, seq, hd = 8, 128, 16
	rng := rand.New(rand.NewSource(8))
	q := randMatrix(rng, items*seq, hd)
	k := randMatrix(rng, items*seq, hd)
	s := NewMatrix(items*seq, seq)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchMatMulTransBCausal(s, q, k, items)
	}
	reportGFLOPs(b, 2*items*hd*seq*(seq+1)/2)
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

// reportElements stops the timer and reports elements/s for a benchmark whose
// iteration transforms perOp elements.
func reportElements(b *testing.B, perOp int) {
	b.StopTimer()
	b.ReportMetric(float64(perOp)*float64(b.N)/b.Elapsed().Seconds(), "elements/s")
}

// BenchmarkExp measures the transcendental bodies at train-step shapes: the
// cross-entropy row (exp and its float64 sum over a 256-entry vocabulary),
// and GELU alone (decode) and with its derivative (the training forward)
// over one d=64, T=128, B=2 MLP activation (tanh, which takes exp above
// |x| = 0.625).
func BenchmarkExp(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	b.Run("ExpRow-256", func(b *testing.B) {
		x, dst := randMatrix(rng, 64, 256), NewMatrix(64, 256)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < x.Rows; r++ {
				ExpRow(dst.Row(r), x.Row(r))
			}
		}
		reportElements(b, len(x.Data))
	})
	x, dst, dg := randMatrix(rng, 256, 256), NewMatrix(256, 256), NewMatrix(256, 256)
	b.Run("GELU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GELU(dst.Data, x.Data)
		}
		reportElements(b, len(x.Data))
	})
	b.Run("GELUWithGrad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GELUWithGrad(dst.Data, dg.Data, x.Data)
		}
		reportElements(b, len(x.Data))
	})
}

// BenchmarkCausalSoftmax measures the fused attention score epilogue at the
// fed-sync-compute shape (B·H = 8 items, T = 128); elements are the causal
// support's entries.
func BenchmarkCausalSoftmax(b *testing.B) {
	const items, seq, heads = 8, 128, 4
	rng := rand.New(rand.NewSource(5))
	src := randMatrix(rng, items*seq, seq)
	s := NewMatrix(items*seq, seq)
	slopes := testSlopes(heads)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(s.Data, src.Data)
		CausalSoftmaxRows(s, items/heads, heads, slopes, 0.25)
	}
	reportElements(b, items*seq*(seq+1)/2)
}

// BenchmarkCausalSoftmaxGrad measures the fused softmax backward at the
// fed-sync-compute shape (B·H = 8 items, T = 128); elements are the causal
// support's entries.
func BenchmarkCausalSoftmaxGrad(b *testing.B) {
	const items, seq, heads = 8, 128, 4
	rng := rand.New(rand.NewSource(7))
	p := randMatrix(rng, items*seq, seq)
	CausalSoftmaxRows(p, items/heads, heads, testSlopes(heads), 0.25)
	src := randMatrix(rng, items*seq, seq)
	dp := NewMatrix(items*seq, seq)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dp.Data, src.Data)
		CausalSoftmaxGradRows(dp, p, items/heads, heads, 0.25)
	}
	reportElements(b, items*seq*(seq+1)/2)
}

// BenchmarkAdamW measures one AdamW update over the parameter counts of the
// fed-sync-compute (115k) and fed-sync-comm (1M) models, in one band.
func BenchmarkAdamW(b *testing.B) {
	for _, n := range []int{115_000, 1_000_000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			data, grad, m, v := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
			RandNormal(rng, data, 0, 0.02)
			RandNormal(rng, grad, 0, 0.01)
			f := AdamWFactors{B1: 0.9, OB1: 0.1, B2: 0.95, OB2: 0.05, InvC1: 10, InvC2: 20, LR: 1e-3, WD: 1e-5, Eps: 1e-8}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AdamW(data, grad, m, v, &f)
			}
			reportElements(b, n)
		})
	}
}
