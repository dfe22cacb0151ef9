package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"photon/internal/tensor"
)

func testConfig() Config {
	return Config{Name: "test", Blocks: 2, Dim: 16, Heads: 2, ExpRatio: 4,
		VocabSize: 13, SeqLen: 6, Beta1: 0.9, Beta2: 0.95}
}

func testBatch(rng *rand.Rand, cfg Config, b int) Batch {
	batch := Batch{}
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

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Blocks = 0 },
		func(c *Config) { c.Dim = -1 },
		func(c *Config) { c.Heads = 0 },
		func(c *Config) { c.Heads = 3 }, // does not divide Dim=16
		func(c *Config) { c.ExpRatio = 0 },
		func(c *Config) { c.VocabSize = 1 },
		func(c *Config) { c.SeqLen = 0 },
	}
	for i, mutate := range cases {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestParamCountMatchesModel(t *testing.T) {
	cfg := testConfig()
	m := NewModel(cfg, rand.New(rand.NewSource(1)))
	if got, want := int64(m.NumParams()), cfg.ParamCount(); got != want {
		t.Fatalf("analytic ParamCount %d != actual %d", want, got)
	}
}

func TestPaperConfigParamCounts(t *testing.T) {
	// The presets must land near their nominal size labels (Table 4).
	want := map[string][2]float64{ // name -> [min, max] in billions
		"75M":  {0.05, 0.12},
		"125M": {0.10, 0.16},
		"350M": {0.28, 0.42},
		"1.3B": {1.1, 1.5},
		"3B":   {2.4, 3.3},
		"7B":   {6.0, 7.5},
	}
	for _, cfg := range PaperConfigs() {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", cfg.Name, err)
		}
		b := float64(cfg.ParamCount()) / 1e9
		r := want[cfg.Name]
		if b < r[0] || b > r[1] {
			t.Errorf("%s: %0.3fB params outside [%g, %g]B", cfg.Name, b, r[0], r[1])
		}
	}
}

func TestNumericalGradients(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(42))
	m := NewModel(cfg, rng)
	batch := testBatch(rng, cfg, 2)

	m.Params().ZeroGrads()
	m.ForwardBackward(batch)

	const eps = 1e-2
	checked, failures := 0, 0
	for _, p := range m.Params() {
		stride := len(p.Data)/5 + 1
		for i := 0; i < len(p.Data); i += stride {
			orig := p.Data[i]
			p.Data[i] = orig + eps
			lp := m.Loss(batch)
			p.Data[i] = orig - eps
			lm := m.Loss(batch)
			p.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := float64(p.Grad[i])
			diff := math.Abs(num - ana)
			tol := 2e-3 + 0.05*math.Max(math.Abs(num), math.Abs(ana))
			if diff > tol {
				failures++
				if failures <= 5 {
					t.Errorf("%s[%d]: numeric %.6f analytic %.6f (diff %.2g)", p.Name, i, num, ana, diff)
				}
			}
			checked++
		}
	}
	if checked < 40 {
		t.Fatalf("gradient check covered only %d elements", checked)
	}
	if failures > 0 {
		t.Fatalf("%d/%d gradient checks failed", failures, checked)
	}
}

func TestForwardDeterminism(t *testing.T) {
	cfg := testConfig()
	m1 := NewModel(cfg, rand.New(rand.NewSource(7)))
	m2 := NewModel(cfg, rand.New(rand.NewSource(7)))
	batch := testBatch(rand.New(rand.NewSource(9)), cfg, 3)
	l1, l2 := m1.Loss(batch), m2.Loss(batch)
	if l1 != l2 {
		t.Fatalf("same seed, different loss: %v vs %v", l1, l2)
	}
}

func TestInitialLossNearUniform(t *testing.T) {
	cfg := testConfig()
	m := NewModel(cfg, rand.New(rand.NewSource(3)))
	batch := testBatch(rand.New(rand.NewSource(4)), cfg, 4)
	loss := m.Loss(batch)
	uniform := math.Log(float64(cfg.VocabSize))
	if math.Abs(loss-uniform) > 0.5 {
		t.Fatalf("initial loss %.3f far from uniform %.3f", loss, uniform)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(5))
	m := NewModel(cfg, rng)
	batch := testBatch(rng, cfg, 4)
	initial := m.Loss(batch)
	// Plain SGD on a fixed batch must overfit it.
	for step := 0; step < 60; step++ {
		m.Params().ZeroGrads()
		m.ForwardBackward(batch)
		for _, p := range m.Params() {
			tensor.Axpy(-0.5, p.Grad, p.Data)
		}
	}
	final := m.Loss(batch)
	if final >= initial*0.7 {
		t.Fatalf("loss did not drop enough: %.4f -> %.4f", initial, final)
	}
}

func TestCausalityNoFutureLeak(t *testing.T) {
	// Changing a future token must not change logits at earlier positions.
	cfg := testConfig()
	m := NewModel(cfg, rand.New(rand.NewSource(6)))
	in1 := [][]int{{1, 2, 3, 4, 5, 6}}
	in2 := [][]int{{1, 2, 3, 4, 5, 9}} // differs only at the last position
	l1 := m.Logits(in1)
	l2 := m.Logits(in2)
	for pos := 0; pos < 5; pos++ {
		for j := 0; j < cfg.VocabSize; j++ {
			if l1.Row(pos)[j] != l2.Row(pos)[j] {
				t.Fatalf("logits at position %d changed when future token changed", pos)
			}
		}
	}
	// And the last position must change (sanity that the test has power).
	same := true
	for j := 0; j < cfg.VocabSize; j++ {
		if l1.Row(5)[j] != l2.Row(5)[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("last-position logits identical despite input change")
	}
}

func TestPaddingTargetsIgnored(t *testing.T) {
	cfg := testConfig()
	m := NewModel(cfg, rand.New(rand.NewSource(8)))
	in := [][]int{{1, 2, 3, 4, 5, 6}}
	full := Batch{Inputs: in, Targets: [][]int{{2, 3, 4, 5, 6, 7}}}
	masked := Batch{Inputs: in, Targets: [][]int{{2, 3, 4, -1, -1, -1}}}
	if full.Tokens() != 6 || masked.Tokens() != 3 {
		t.Fatalf("Tokens(): got %d and %d", full.Tokens(), masked.Tokens())
	}
	lf, lm := m.Loss(full), m.Loss(masked)
	if lf == lm {
		t.Fatal("masking targets should change the mean loss")
	}
	// Gradients for a fully masked batch must be zero.
	m.Params().ZeroGrads()
	m.ForwardBackward(Batch{Inputs: in, Targets: [][]int{{-1, -1, -1, -1, -1, -1}}})
	if n := m.Params().GradNorm(); n != 0 {
		t.Fatalf("fully masked batch produced nonzero grad norm %v", n)
	}
}

func TestFlattenLoadRoundTrip(t *testing.T) {
	cfg := testConfig()
	m1 := NewModel(cfg, rand.New(rand.NewSource(10)))
	m2 := NewModel(cfg, rand.New(rand.NewSource(11)))
	flat := m1.Params().Flatten(nil)
	if err := m2.Params().LoadFlat(flat); err != nil {
		t.Fatal(err)
	}
	batch := testBatch(rand.New(rand.NewSource(12)), cfg, 2)
	if l1, l2 := m1.Loss(batch), m2.Loss(batch); l1 != l2 {
		t.Fatalf("loaded model differs: %v vs %v", l1, l2)
	}
	if err := m2.Params().LoadFlat(flat[:len(flat)-1]); err == nil {
		t.Fatal("LoadFlat accepted wrong length")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := &Param{Name: "p", Data: make([]float32, 2), Grad: []float32{3, 4}}
	ps := ParamSet{p}
	pre := ps.ClipGradNorm(1.0)
	if math.Abs(pre-5) > 1e-6 {
		t.Fatalf("pre-clip norm: got %v want 5", pre)
	}
	if post := ps.GradNorm(); math.Abs(post-1) > 1e-5 {
		t.Fatalf("post-clip norm: got %v want 1", post)
	}
	// No-op cases.
	p.Grad = []float32{0.1, 0}
	if got := ps.ClipGradNorm(0); math.Abs(got-0.1) > 1e-6 {
		t.Fatalf("maxNorm<=0 should only report the norm, got %v", got)
	}
	if p.Grad[0] != 0.1 {
		t.Fatal("maxNorm<=0 must not modify gradients")
	}
}

func TestAlibiSlopes(t *testing.T) {
	s := AlibiSlopes(8)
	if len(s) != 8 {
		t.Fatalf("want 8 slopes, got %d", len(s))
	}
	if math.Abs(float64(s[0])-0.5) > 1e-6 {
		t.Fatalf("first slope for 8 heads should be 2^-1: got %v", s[0])
	}
	for i := 1; i < len(s); i++ {
		if s[i] >= s[i-1] || s[i] <= 0 {
			t.Fatal("slopes must be positive and strictly decreasing")
		}
	}
}

func TestPerplexity(t *testing.T) {
	if got := Perplexity(0); got != 1 {
		t.Fatalf("Perplexity(0): got %v want 1", got)
	}
	if got := Perplexity(math.Log(42)); math.Abs(got-42) > 1e-9 {
		t.Fatalf("Perplexity(ln 42): got %v want 42", got)
	}
}

// Property: loss is permutation-equivariant across batch rows — shuffling
// the sequences in a batch must not change the mean loss.
func TestBatchPermutationInvarianceProperty(t *testing.T) {
	cfg := testConfig()
	m := NewModel(cfg, rand.New(rand.NewSource(13)))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := testBatch(r, cfg, 3)
		l1 := m.Loss(b)
		perm := Batch{
			Inputs:  [][]int{b.Inputs[2], b.Inputs[0], b.Inputs[1]},
			Targets: [][]int{b.Targets[2], b.Targets[0], b.Targets[1]},
		}
		l2 := m.Loss(perm)
		return math.Abs(l1-l2) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: gradient accumulation over two calls equals one call on the
// concatenated batch scaled appropriately (same per-token normalization when
// batches have equal token counts).
func TestGradAccumulationProperty(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(14))
	m := NewModel(cfg, rng)
	b1 := testBatch(rng, cfg, 2)
	b2 := testBatch(rng, cfg, 2)

	m.Params().ZeroGrads()
	m.ForwardBackward(b1)
	m.ForwardBackward(b2)
	accum := make([]float32, 0, m.NumParams())
	for _, p := range m.Params() {
		accum = append(accum, p.Grad...)
	}

	joint := Batch{Inputs: append(append([][]int{}, b1.Inputs...), b2.Inputs...),
		Targets: append(append([][]int{}, b1.Targets...), b2.Targets...)}
	m.Params().ZeroGrads()
	m.ForwardBackward(joint)
	i := 0
	for _, p := range m.Params() {
		for _, g := range p.Grad {
			// Joint batch normalizes by 2x tokens, so accumulated grads are 2x.
			if math.Abs(float64(accum[i])-2*float64(g)) > 1e-3+0.02*math.Abs(float64(g)) {
				t.Fatalf("accumulated grad mismatch at %d: %v vs 2*%v", i, accum[i], g)
			}
			i++
		}
	}
}

// TestGELUGradNumerical holds GELU.Backward's dX (dY times the derivative
// Forward caches) to a central difference of GELU.Forward, over one row long
// enough to reach both the four-lane body and the scalar tail.
func TestGELUGradNumerical(t *testing.T) {
	xs := []float32{-3, -1, -0.1, 0, 0.1, 1, 3, -0.7, 0.7, 2}
	dys := []float32{1, 0.5, -2, 1, 1, -1, 0.25, 3, 1, -0.5}
	const eps = 1e-3
	var g GELU
	ws := NewWorkspace()
	shifted := func(d float32) []float32 {
		x := tensor.NewMatrix(1, len(xs))
		for i, v := range xs {
			x.Data[i] = v + d
		}
		return g.Forward(ws, x).Data
	}
	up, down := shifted(eps), shifted(-eps)
	shifted(0)
	dx := g.Backward(&tensor.Matrix{Rows: 1, Cols: len(dys), Data: dys})
	for i, x := range xs {
		num := float64(dys[i]) * (float64(up[i]) - float64(down[i])) / (2 * eps)
		if ana := float64(dx.Data[i]); math.Abs(num-ana) > 1e-3*math.Max(1, math.Abs(float64(dys[i]))) {
			t.Fatalf("GELU grad at %v: numeric %v analytic %v", x, num, ana)
		}
	}
}

func TestRaggedBatchPanics(t *testing.T) {
	cfg := testConfig()
	m := NewModel(cfg, rand.New(rand.NewSource(15)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged batch")
		}
	}()
	m.Logits([][]int{{1, 2, 3}, {1, 2}})
}

func TestEmbeddingOutOfRangePanics(t *testing.T) {
	cfg := testConfig()
	m := NewModel(cfg, rand.New(rand.NewSource(16)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-vocab token")
		}
	}()
	m.Logits([][]int{{cfg.VocabSize}})
}

// Regression: a Targets that covers fewer rows than Inputs (or none at all)
// must behave as all-padding for the uncovered rows — zero loss, zero
// gradient — and must not read stale target ids from the recycled scratch.
func TestPartialTargetsTreatedAsPadding(t *testing.T) {
	cfg := testConfig()
	m := NewModel(cfg, rand.New(rand.NewSource(20)))
	in := [][]int{{1, 2, 3, 4, 5, 6}, {2, 3, 4, 5, 6, 7}}
	// Warm the scratch with a fully labeled batch first.
	full := Batch{Inputs: in, Targets: [][]int{{2, 3, 4, 5, 6, 7}, {3, 4, 5, 6, 7, 8}}}
	m.Loss(full)
	// Empty targets: no labeled tokens anywhere.
	if got := m.Loss(Batch{Inputs: in, Targets: [][]int{}}); got != 0 {
		t.Fatalf("empty Targets: loss %v, want 0", got)
	}
	// One row of targets for two input rows: must equal a batch where the
	// second row is explicitly padded.
	partial := Batch{Inputs: in, Targets: [][]int{{2, 3, 4, 5, 6, 7}}}
	padded := Batch{Inputs: in, Targets: [][]int{{2, 3, 4, 5, 6, 7}, {-1, -1, -1, -1, -1, -1}}}
	if lp, lw := m.Loss(partial), m.Loss(padded); lp != lw {
		t.Fatalf("partial Targets: loss %v, explicit padding %v", lp, lw)
	}
	m.Params().ZeroGrads()
	m.ForwardBackward(Batch{Inputs: in, Targets: [][]int{}})
	if n := m.Params().GradNorm(); n != 0 {
		t.Fatalf("empty Targets produced nonzero grad norm %v", n)
	}
}
