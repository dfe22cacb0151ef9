package nn_test

import (
	"math/rand"
	"testing"

	"photon/internal/bench"
	"photon/internal/nn"
	"photon/internal/opt"
)

// benchConfig is the Quick-scale throughput shape, shared with the
// train-throughput experiment (bench.TrainBenchShape) so
// BenchmarkTrainStep and `photon-bench -exp train-throughput` measure the
// same workload.
func benchConfig() nn.Config {
	cfg, _ := bench.TrainBenchShape()
	return cfg
}

func benchBatch(rng *rand.Rand, cfg nn.Config, b int) nn.Batch {
	batch := nn.Batch{}
	for i := 0; i < b; i++ {
		in := make([]int, cfg.SeqLen)
		tg := make([]int, cfg.SeqLen)
		for t := range in {
			in[t] = rng.Intn(cfg.VocabSize)
			tg[t] = rng.Intn(cfg.VocabSize)
		}
		batch.Inputs = append(batch.Inputs, in)
		batch.Targets = append(batch.Targets, tg)
	}
	return batch
}

// BenchmarkTrainStep measures one full training step — zero grads, forward,
// backward, clip, AdamW update — and reports tokens/sec, the headline
// local-compute throughput number for the federated simulation.
func BenchmarkTrainStep(b *testing.B) {
	cfg := benchConfig()
	rng := rand.New(rand.NewSource(1))
	m := nn.NewModel(cfg, rng)
	batch := benchBatch(rng, cfg, 2)
	optimizer := opt.NewAdamW(cfg.Beta1, cfg.Beta2, 0.01)
	tokens := batch.Tokens()

	// Warm up optimizer state and scratch buffers outside the timed region.
	bench.TrainStep(m, batch, optimizer, 1e-4)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.TrainStep(m, batch, optimizer, 1e-4)
	}
	b.StopTimer()
	nsPerStep := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(tokens)/(nsPerStep/1e9), "tokens/s")
	// The count hw.MFU uses: forward + backward ≈ 3× the forward FLOPs.
	b.ReportMetric(3*cfg.FLOPsPerToken()*float64(tokens)/nsPerStep, "GFLOP/s")
}

// BenchmarkForwardBackward isolates loss+gradient compute (no optimizer).
func BenchmarkForwardBackward(b *testing.B) {
	cfg := benchConfig()
	rng := rand.New(rand.NewSource(2))
	m := nn.NewModel(cfg, rng)
	batch := benchBatch(rng, cfg, 2)
	tokens := batch.Tokens()
	m.Params().ZeroGrads()
	m.ForwardBackward(batch)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Params().ZeroGrads()
		m.ForwardBackward(batch)
	}
	b.StopTimer()
	nsPerStep := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(tokens)/(nsPerStep/1e9), "tokens/s")
}

// BenchmarkAttentionForwardBackward isolates the attention sublayer — the
// O(B·H·T²·d) term the batched kernels rewrote — via a 1-block model with a
// long sequence.
func BenchmarkAttentionForwardBackward(b *testing.B) {
	cfg := benchConfig()
	cfg.Blocks = 1
	rng := rand.New(rand.NewSource(3))
	m := nn.NewModel(cfg, rng)
	batch := benchBatch(rng, cfg, 2)
	tokens := batch.Tokens()
	m.Params().ZeroGrads()
	m.ForwardBackward(batch)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Params().ZeroGrads()
		m.ForwardBackward(batch)
	}
	b.StopTimer()
	nsPerStep := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(tokens)/(nsPerStep/1e9), "tokens/s")
}
