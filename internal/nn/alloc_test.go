package nn_test

import (
	"math/rand"
	"testing"

	"photon/internal/nn"
	"photon/internal/opt"
)

// TestTrainStepZeroAlloc asserts the headline workspace guarantee: after
// warm-up, a full training step — zero grads, forward, backward, clip, AdamW
// update — performs zero heap allocations. Every activation lives in the
// model's workspace, every optimizer/state buffer is reused in place, and
// the kernel dispatcher degrades to inline execution without allocating.
// (testing.AllocsPerRun pins GOMAXPROCS to 1, so this measures the serial
// path; the parallel dispatcher is allocation-free by construction — tasks
// travel by value and completion groups are recycled — but goroutine
// scheduling noise makes that impractical to assert directly.)
func TestTrainStepZeroAlloc(t *testing.T) {
	cfg := nn.Config{Name: "alloc", Blocks: 2, Dim: 32, Heads: 4, ExpRatio: 4,
		VocabSize: 64, SeqLen: 32, Beta1: 0.9, Beta2: 0.95}
	rng := rand.New(rand.NewSource(1))
	m := nn.NewModel(cfg, rng)
	batch := benchBatch(rng, cfg, 2)
	optimizer := opt.NewAdamW(cfg.Beta1, cfg.Beta2, 0.01)

	step := func() {
		m.Params().ZeroGrads()
		m.ForwardBackward(batch)
		m.Params().ClipGradNorm(1.0)
		optimizer.Step(m.Params(), 1e-3)
	}
	// Warm up: first steps grow the workspace, optimizer state, and scratch.
	step()
	step()
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("steady-state train step allocates: %v allocs/step, want 0", allocs)
	}
}

// TestLossZeroAlloc asserts the evaluation path (Loss without gradients) is
// also allocation-free after warm-up — validation sweeps inside training
// loops run at full model size every few steps.
func TestLossZeroAlloc(t *testing.T) {
	cfg := nn.Config{Name: "alloc", Blocks: 2, Dim: 32, Heads: 2, ExpRatio: 4,
		VocabSize: 64, SeqLen: 16, Beta1: 0.9, Beta2: 0.95}
	rng := rand.New(rand.NewSource(2))
	m := nn.NewModel(cfg, rng)
	batch := benchBatch(rng, cfg, 2)
	m.Loss(batch)
	m.Loss(batch)
	if allocs := testing.AllocsPerRun(10, func() { m.Loss(batch) }); allocs != 0 {
		t.Fatalf("steady-state Loss allocates: %v allocs/run, want 0", allocs)
	}
}

// TestOptimizerResetKeepsCapacity asserts Reset zeroes state in place
// instead of dropping it: the step after a Reset must not reallocate.
func TestOptimizerResetKeepsCapacity(t *testing.T) {
	cfg := nn.Config{Name: "alloc", Blocks: 1, Dim: 16, Heads: 2, ExpRatio: 4,
		VocabSize: 32, SeqLen: 8, Beta1: 0.9, Beta2: 0.95}
	rng := rand.New(rand.NewSource(3))
	m := nn.NewModel(cfg, rng)
	batch := benchBatch(rng, cfg, 1)
	optimizer := opt.NewAdamW(0.9, 0.95, 0.01)
	m.Params().ZeroGrads()
	m.ForwardBackward(batch)
	optimizer.Step(m.Params(), 1e-3)
	allocs := testing.AllocsPerRun(5, func() {
		optimizer.Reset()
		optimizer.Step(m.Params(), 1e-3)
	})
	if allocs != 0 {
		t.Fatalf("%s: Reset+Step allocates %v allocs, want 0 (state should be zeroed in place)",
			optimizer.Name(), allocs)
	}
}
