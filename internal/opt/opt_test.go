package opt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"photon/internal/nn"
)

// quadParams builds a one-parameter "model" for optimizer convergence tests:
// minimizing f(x) = ½Σ(x_i − target)² whose gradient is (x_i − target).
func quadParams(n int, init float32) nn.ParamSet {
	p := &nn.Param{Name: "x", Data: make([]float32, n), Grad: make([]float32, n)}
	for i := range p.Data {
		p.Data[i] = init
	}
	return nn.ParamSet{p}
}

func quadGrad(ps nn.ParamSet, target float32) float64 {
	p := ps[0]
	var loss float64
	for i, x := range p.Data {
		d := x - target
		p.Grad[i] = d
		loss += 0.5 * float64(d) * float64(d)
	}
	return loss
}

func converges(t *testing.T, o Optimizer, lr float64, steps int) {
	t.Helper()
	ps := quadParams(4, 10)
	initial := quadGrad(ps, 2)
	for i := 0; i < steps; i++ {
		quadGrad(ps, 2)
		o.Step(ps, lr)
	}
	final := quadGrad(ps, 2)
	if final > initial*1e-3 {
		t.Fatalf("%s did not converge: %.4g -> %.4g", o.Name(), initial, final)
	}
}

func TestAdamWConverges(t *testing.T) { converges(t, NewAdamW(0.9, 0.95, 0), 0.5, 300) }

func TestAdamWFirstStepIsSignSGD(t *testing.T) {
	// With bias correction, the first AdamW step is ≈ lr·sign(g).
	a := NewAdamW(0.9, 0.95, 0)
	ps := quadParams(1, 5)
	quadGrad(ps, 0) // grad = 5
	before := ps[0].Data[0]
	a.Step(ps, 0.1)
	got := float64(before - ps[0].Data[0])
	if math.Abs(got-0.1) > 1e-3 {
		t.Fatalf("first AdamW step: got %v want ~0.1", got)
	}
}

func TestAdamWWeightDecayPullsTowardZero(t *testing.T) {
	a := NewAdamW(0.9, 0.95, 0.1)
	ps := quadParams(1, 1)
	// Zero gradient: only decay acts.
	ps[0].Grad[0] = 0
	for i := 0; i < 10; i++ {
		a.Step(ps, 1.0)
	}
	if v := ps[0].Data[0]; v >= 1 || v <= 0 {
		t.Fatalf("weight decay should shrink param toward 0, got %v", v)
	}
}

func TestResetClearsState(t *testing.T) {
	o := NewAdamW(0.9, 0.95, 0)
	ps := quadParams(2, 3)
	quadGrad(ps, 0)
	o.Step(ps, 0.1)
	o.Reset()
	// After reset, a step on a fresh equivalent problem must match a fresh
	// optimizer bit-for-bit (stateless-per-round requirement).
	ps2 := quadParams(2, 3)
	// Align data so both optimizers see identical inputs, then compute
	// gradients at the aligned point.
	copy(ps[0].Data, ps2[0].Data)
	quadGrad(ps, 0)
	quadGrad(ps2, 0)
	fresh := NewAdamW(0.9, 0.95, 0)
	o.Step(ps, 0.1)
	fresh.Step(ps2, 0.1)
	if ps[0].Data[0] != ps2[0].Data[0] {
		t.Fatalf("%s: reset state differs from fresh optimizer", o.Name())
	}
}

func TestCosineScheduleShape(t *testing.T) {
	c := Cosine{Max: 1.0, Min: 0.1, Warmup: 10, Period: 110}
	if lr := c.LR(0); lr <= 0 || lr > 0.2 {
		t.Fatalf("warmup start too high: %v", lr)
	}
	if lr := c.LR(9); math.Abs(lr-1.0) > 1e-9 {
		t.Fatalf("end of warmup should reach Max: %v", lr)
	}
	if lr := c.LR(10); math.Abs(lr-1.0) > 1e-9 {
		t.Fatalf("decay should start at Max: %v", lr)
	}
	mid := c.LR(60)
	if math.Abs(mid-0.55) > 1e-9 { // halfway through decay: (Max+Min)/2
		t.Fatalf("midpoint: got %v want 0.55", mid)
	}
	if lr := c.LR(1000); lr != 0.1 {
		t.Fatalf("post-period should hold Min: %v", lr)
	}
	// Monotone non-increasing after warmup.
	prev := c.LR(10)
	for s := 11; s <= 110; s++ {
		cur := c.LR(s)
		if cur > prev+1e-12 {
			t.Fatalf("cosine decay not monotone at step %d", s)
		}
		prev = cur
	}
}

func TestPaperCosine(t *testing.T) {
	c := PaperCosine(6e-4, 40960)
	if math.Abs(c.Min-6e-5) > 1e-15 {
		t.Fatalf("min should be max/10: %v", c.Min)
	}
	if c.Warmup != 409 {
		t.Fatalf("warmup should be 1%% of period: %d", c.Warmup)
	}
	if c2 := PaperCosine(1e-3, 5); c2.Warmup != 1 {
		t.Fatalf("warmup floor of 1: %d", c2.Warmup)
	}
}

func TestLinearLRScale(t *testing.T) {
	if got := LinearLRScale(6e-4, 256, 32); math.Abs(got-7.5e-5) > 1e-12 {
		t.Fatalf("linear scale: got %v", got)
	}
	if got := LinearLRScale(1, 0, 5); got != 1 {
		t.Fatalf("degenerate ref batch: got %v", got)
	}
}

// Property: cosine LR is always within [Min, Max] for any step.
func TestCosineBoundsProperty(t *testing.T) {
	c := Cosine{Max: 2.0, Min: 0.2, Warmup: 7, Period: 300}
	f := func(step int) bool {
		if step < 0 {
			step = -step
		}
		lr := c.LR(step % 10000)
		return lr >= c.Min-1e-12 && lr <= c.Max+1e-12 && lr > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AdamW with zero weight decay is scale-free in the gradient —
// scaling all gradients by a positive constant leaves the update direction
// and (approximately) magnitude unchanged.
func TestAdamWGradientScaleInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := float32(r.NormFloat64())
		if g == 0 {
			return true
		}
		scale := float32(1 + r.Float64()*100)

		run := func(gr float32) float32 {
			a := NewAdamW(0.9, 0.95, 0)
			ps := quadParams(1, 0)
			for i := 0; i < 5; i++ {
				ps[0].Grad[0] = gr
				a.Step(ps, 0.01)
			}
			return ps[0].Data[0]
		}
		x1, x2 := run(g), run(g*scale)
		return math.Abs(float64(x1-x2)) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestResetStepsLikeFresh: after steps that fill the moments, Reset and two
// steps update every parameter and moment to the bits a new optimizer's two
// steps give, with gradients that include −0.
func TestResetStepsLikeFresh(t *testing.T) {
	mk := func() nn.ParamSet {
		ps := nn.ParamSet{{Name: "w", Data: make([]float32, 67), Grad: make([]float32, 67)}, {Name: "b", Data: make([]float32, 5), Grad: make([]float32, 5)}}
		for _, p := range ps {
			for i := range p.Data {
				p.Data[i] = float32(i%7) * 0.1
			}
		}
		return ps
	}
	grads := func(ps nn.ParamSet, step int) {
		for _, p := range ps {
			for i := range p.Grad {
				p.Grad[i] = float32((i*step)%5-2) * 0.01
				if i%9 == 0 {
					p.Grad[i] = float32(math.Copysign(0, -1))
				}
			}
		}
	}
	used, ps := NewAdamW(0.9, 0.95, 0.1), mk()
	for step := 1; step <= 3; step++ {
		grads(ps, step+7)
		used.Step(ps, 0.05)
	}
	used.Reset()
	fresh, ps2 := NewAdamW(0.9, 0.95, 0.1), mk()
	for i, p := range ps {
		copy(p.Data, ps2[i].Data)
	}
	for step := 1; step <= 2; step++ {
		grads(ps, step)
		grads(ps2, step)
		used.Step(ps, 0.05)
		fresh.Step(ps2, 0.05)
	}
	same := func(a, b [][]float32) bool {
		for i := range a {
			for j := range a[i] {
				if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
					return false
				}
			}
		}
		return true
	}
	data := func(ps nn.ParamSet) (d [][]float32) {
		for _, p := range ps {
			d = append(d, p.Data)
		}
		return d
	}
	if !same(data(ps), data(ps2)) || !same(used.m, fresh.m) || !same(used.v, fresh.v) {
		t.Fatal("steps after Reset differ from a new optimizer's")
	}
}
