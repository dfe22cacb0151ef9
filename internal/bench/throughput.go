package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"photon/internal/nn"
	"photon/internal/opt"
)

// TrainBenchShape is the canonical Quick-scale throughput shape: long enough
// sequences that attention carries a realistic share of the FLOPs, small
// enough that a full step runs in milliseconds on one core. It is shared by
// BenchmarkTrainStep (internal/nn trainbench_test.go) and the
// train-throughput experiment so the two measurements can never drift
// apart.
func TrainBenchShape() (cfg nn.Config, batchSize int) {
	return nn.Config{Name: "bench", Blocks: 2, Dim: 64, Heads: 4, ExpRatio: 4,
		VocabSize: 256, SeqLen: 256, Beta1: 0.9, Beta2: 0.95}, 2
}

// TrainStep runs one full steady-state training step — zero grads, forward,
// backward, clip, optimizer update — the unit both throughput benchmarks
// time.
func TrainStep(m *nn.Model, batch nn.Batch, optimizer opt.Optimizer, lr float64) {
	m.Params().ZeroGrads()
	m.ForwardBackward(batch)
	m.Params().ClipGradNorm(1.0)
	optimizer.Step(m.Params(), lr)
}

// TrainThroughput measures local-compute training throughput — the quantity
// the batched attention kernels and the zero-allocation workspace exist to
// maximize. For each proxy size it runs warm steady-state training steps
// (zero grads + forward + backward + clip + AdamW) and reports wall time per
// step, tokens/sec, and heap allocations per step (which should be zero).
//
// `photon-bench -exp train-throughput` measures it at any scale on any
// machine; end-to-end training throughput claims come from BENCHMARK.json's
// fed-sync-compute workload and the BENCH_e2e.json ledger.
func TrainThroughput(ctx context.Context, w io.Writer, scale Scale) error {
	type shape struct {
		name  string
		cfg   nn.Config
		batch int
	}
	bench, benchBatch := TrainBenchShape()
	shapes := []shape{
		{"tiny (test proxy)", nn.ConfigTiny, 4},
		{"bench (64d, T=256)", bench, benchBatch},
	}
	if scale == Full {
		big := bench
		big.Name = "bench-128d"
		big.Dim, big.Heads, big.SeqLen = 128, 8, 512
		shapes = append(shapes, shape{"full (128d, T=512)", big, 2})
	}
	steps := 3
	if scale == Full {
		steps = 10
	}

	fmt.Fprintf(w, "%-22s %12s %12s %12s %12s\n", "shape", "ns/step", "tokens/s", "B/step", "allocs/step")
	for _, sh := range shapes {
		if err := ctx.Err(); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(7))
		m := nn.NewModel(sh.cfg, rng)
		batch := nn.Batch{}
		for i := 0; i < sh.batch; i++ {
			in := make([]int, sh.cfg.SeqLen)
			tg := make([]int, sh.cfg.SeqLen)
			for t := range in {
				in[t] = rng.Intn(sh.cfg.VocabSize)
				tg[t] = rng.Intn(sh.cfg.VocabSize)
			}
			batch.Inputs = append(batch.Inputs, in)
			batch.Targets = append(batch.Targets, tg)
		}
		optimizer := opt.NewAdamW(sh.cfg.Beta1, sh.cfg.Beta2, 0.01)
		step := func() { TrainStep(m, batch, optimizer, 1e-4) }
		// Warm up workspace + optimizer state outside the measurement.
		step()
		step()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for s := 0; s < steps; s++ {
			step()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)

		nsPerStep := float64(elapsed.Nanoseconds()) / float64(steps)
		tokens := float64(batch.Tokens())
		fmt.Fprintf(w, "%-22s %12.0f %12.0f %12d %12d\n",
			sh.name, nsPerStep, tokens/(nsPerStep/1e9),
			int64(after.TotalAlloc-before.TotalAlloc)/int64(steps),
			int64(after.Mallocs-before.Mallocs)/int64(steps))
	}
	fmt.Fprintf(w, "\nGOMAXPROCS=%d; steady-state steps after warm-up; B/step and allocs/step\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "should be ~0 (workspace-arena training step; see README Performance).\n")
	return nil
}
