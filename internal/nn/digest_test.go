package nn_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"photon/internal/nn"
	"photon/internal/opt"
	"photon/internal/testutil"
)

// TestTrainStepDigest pins the bits of a short training trajectory at the
// fed-sync-compute shape (d=64, T=128, B=2): eight AdamW steps, then an
// FNV-64 of every parameter and every step's loss, at GOMAXPROCS 1 and 2.
// The causal softmax rows run to 128 entries and the GELU pre-activations
// reach both branches of tanh (|inner| below and above 0.625), so a kernel
// or transcendental change that moves any bit of the train step moves the
// digest. The tensor kernels give it on either path; the test skips where
// math.Exp or math.tanh differs from amd64's with FMA.
func TestTrainStepDigest(t *testing.T) {
	if !testutil.ExpFMAOnAMD64() {
		t.Skip("the digests were taken with amd64's math.Exp FMA sequence; this machine's exp or tanh differs")
	}
	const want = "3c0cc97b86879f15"
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		got, small, large := trainDigest()
		runtime.GOMAXPROCS(prev)
		if small == 0 || large == 0 {
			t.Fatalf("GOMAXPROCS=%d: GELU inputs on the tanh branches: %d below 0.625, %d at or above; want both", procs, small, large)
		}
		if got != want {
			t.Errorf("GOMAXPROCS=%d: digest %s, want %s", procs, got, want)
		}
		t.Logf("GOMAXPROCS=%d: GELU inputs %d below the 0.625 tanh edge, %d above", procs, small, large)
	}
}

// trainDigest runs the pinned trajectory and returns its digest and how many
// GELU inputs fell on each tanh branch.
func trainDigest() (digest string, small, large int) {
	cfg := nn.Config{Name: "bench-compute", Blocks: 2, Dim: 64, Heads: 4, ExpRatio: 4,
		VocabSize: 256, SeqLen: 128, Beta1: 0.9, Beta2: 0.95}
	rng := rand.New(rand.NewSource(24))
	m := nn.NewModel(cfg, rng)
	batch := benchBatch(rng, cfg, 2)
	optimizer := opt.NewAdamW(cfg.Beta1, cfg.Beta2, 0.01)

	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	const geluCoef = 0.7978845608028654
	for step := 0; step < 8; step++ {
		m.Params().ZeroGrads()
		put(math.Float64bits(m.ForwardBackward(batch)))
		m.Params().ClipGradNorm(1.0)
		optimizer.Step(m.Params(), 1e-2)
		for _, blk := range m.Blocks {
			for _, v := range nn.GELUInput(blk) {
				xf := float64(v)
				if math.Abs(geluCoef*(xf+0.044715*xf*xf*xf)) < 0.625 {
					small++
				} else {
					large++
				}
			}
		}
	}
	for _, p := range m.Params() {
		for _, v := range p.Data {
			put(uint64(math.Float32bits(v)))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), small, large
}
