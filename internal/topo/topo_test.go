package topo

import (
	"math"
	"testing"
	"testing/quick"
)

func testModel() Model {
	return Model{
		ModelSizeMB:   250, // 125M params in BF16
		BandwidthMBps: GbpsToMBps(10),
		Throughput:    2,
		LocalSteps:    512,
	}
}

func TestGbpsToMBps(t *testing.T) {
	if got := GbpsToMBps(8); got != 1000 {
		t.Fatalf("8 Gbps should be 1000 MB/s, got %v", got)
	}
}

func TestValidate(t *testing.T) {
	if err := testModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Model{
		{ModelSizeMB: 0, BandwidthMBps: 1, Throughput: 1, LocalSteps: 1},
		{ModelSizeMB: 1, BandwidthMBps: 0, Throughput: 1, LocalSteps: 1},
		{ModelSizeMB: 1, BandwidthMBps: 1, Throughput: 0, LocalSteps: 1},
		{ModelSizeMB: 1, BandwidthMBps: 1, Throughput: 1, LocalSteps: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted", i)
		}
	}
}

func TestLocalComputeTime(t *testing.T) {
	m := testModel()
	if got := m.LocalComputeTime(); got != 256 { // 512 steps / 2 batches/s
		t.Fatalf("Eq.1: got %v want 256", got)
	}
}

func TestCommTimeEquations(t *testing.T) {
	m := testModel()
	k := 8
	s, b := m.ModelSizeMB, m.BandwidthMBps
	if got, want := m.CommTime(PS, k), float64(k)*s/b; math.Abs(got-want) > 1e-9 {
		t.Errorf("Eq.2 PS: got %v want %v", got, want)
	}
	if got, want := m.CommTime(AR, k), float64(k-1)*s/b; math.Abs(got-want) > 1e-9 {
		t.Errorf("Eq.3 AR: got %v want %v", got, want)
	}
	if got, want := m.CommTime(RAR, k), 2*s*float64(k-1)/(float64(k)*b); math.Abs(got-want) > 1e-9 {
		t.Errorf("Eq.4 RAR: got %v want %v", got, want)
	}
}

func TestCommTimeSingleClient(t *testing.T) {
	m := testModel()
	for _, tp := range []Topology{PS, AR, RAR} {
		if m.CommTime(tp, 1) != 0 {
			t.Errorf("%v: single client must have zero comm", tp)
		}
	}
}

func TestTopologyOrderingAtScale(t *testing.T) {
	// For K ≥ 3: RAR < AR < PS (RAR is bandwidth-optimal, PS serializes).
	m := testModel()
	for _, k := range []int{3, 4, 8, 16} {
		rar, ar, ps := m.CommTime(RAR, k), m.CommTime(AR, k), m.CommTime(PS, k)
		if !(rar < ar && ar < ps) {
			t.Errorf("K=%d: want RAR<AR<PS, got %v %v %v", k, rar, ar, ps)
		}
	}
}

func TestRARBounded(t *testing.T) {
	// RAR cost approaches 2S/B as K → ∞ and never exceeds it.
	m := testModel()
	bound := 2 * m.ModelSizeMB / m.BandwidthMBps
	for k := 2; k <= 1024; k *= 2 {
		if ct := m.CommTime(RAR, k); ct > bound {
			t.Fatalf("K=%d: RAR %v exceeds bound %v", k, ct, bound)
		}
	}
}

func TestRoundAndTotalTime(t *testing.T) {
	m := testModel()
	rt := m.RoundTime(RAR, 8)
	// Eq. 5 covers local compute, communication, AND the Eq. 7 server
	// aggregation term, exactly as the model's doc claims.
	if want := m.LocalComputeTime() + m.CommTime(RAR, 8) + m.AggregationTime(8); rt != want {
		t.Fatalf("Eq.5: got %v want %v", rt, want)
	}
}

// TestCongestionRegressionTable1 pins Eq. 5/6 values for the paper's 125M
// Table-1 deployment (10 clients, S=250MB BF16, ν=2, τ=512) below and above
// the congestion threshold θ. Below θ the PS cost is the plain Eq. 2 serial
// transfer; above it each of the K transfers only gets a θ/K share of the
// server link, so the cost is K²·S/(θ·B).
func TestCongestionRegressionTable1(t *testing.T) {
	m := testModel() // the Table 1 125M setup
	m.CongestionThr = 8
	s, b := m.ModelSizeMB, m.BandwidthMBps

	// Below θ: K=5 regions' worth of clients — plain serial PS (Eq. 2).
	if got, want := m.CommTime(PS, 5), 5*s/b; math.Abs(got-want) > 1e-9 {
		t.Fatalf("below θ: got %v want %v", got, want)
	}
	// At θ: both branches agree (continuity).
	if got, want := m.CommTime(PS, 8), 8*s/b; math.Abs(got-want) > 1e-9 {
		t.Fatalf("at θ: got %v want %v", got, want)
	}
	// Above θ: the 125M deployment's 10 clients congest an 8-channel
	// server: 10²·S/(8·B).
	if got, want := m.CommTime(PS, 10), 100*s/(8*b); math.Abs(got-want) > 1e-9 {
		t.Fatalf("above θ: got %v want %v", got, want)
	}
	// Eq. 5 regression above θ: round wall time.
	wantRound := m.LocalComputeTime() + 100*s/(8*b) + m.AggregationTime(10)
	if got := m.RoundTime(PS, 10); math.Abs(got-wantRound) > 1e-9 {
		t.Fatalf("Eq.5 above θ: got %v want %v", got, wantRound)
	}
}

// TestCongestionContinuousAndMonotone sweeps K across θ and asserts the PS
// cost curve has no discontinuity at the threshold and never decreases.
func TestCongestionContinuousAndMonotone(t *testing.T) {
	m := testModel()
	m.CongestionThr = 16
	prev := 0.0
	for k := 2; k <= 64; k++ {
		ct := m.CommTime(PS, k)
		if ct < prev {
			t.Fatalf("K=%d: PS comm time decreased: %v after %v", k, ct, prev)
		}
		// Discontinuity-free: consecutive steps never jump by more than the
		// smooth quadratic branch's worst-case ratio ((K+1)/K)² ≤ 2.25 at
		// K=2; near and past θ=16 the ratio stays below 1.2.
		if k > 2 && prev > 0 {
			if ratio := ct / prev; k >= 8 && ratio > 1.5 {
				t.Fatalf("K=%d: PS comm time jumped by %.2fx across a single client increment", k, ratio)
			}
		}
		prev = ct
	}
	// Defaulted θ (zero value) behaves as 100 channels.
	m.CongestionThr = 0
	if got, want := m.CommTime(PS, 200), 200.0*200.0*m.ModelSizeMB/(100*m.BandwidthMBps); math.Abs(got-want) > 1e-6 {
		t.Fatalf("default θ=100: got %v want %v", got, want)
	}
}

func TestAggregationTime(t *testing.T) {
	m := testModel()
	// Eq.7 with default ζ=5 TFLOPS: K·S·1e6 bytes / 5e12 FLOPs/s.
	if got, want := m.AggregationTime(8), 8*250.0*1e6/5e12; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Eq.7: got %v want %v", got, want)
	}
	// Aggregation must be negligible versus PS communication (paper claim).
	if m.AggregationTime(8) > 0.05*m.CommTime(PS, 8) {
		t.Fatal("aggregation should be negligible next to communication")
	}
}

func TestCommShare(t *testing.T) {
	m := testModel()
	share := m.CommShare(RAR, 16)
	if share <= 0 || share >= 1 {
		t.Fatalf("comm share out of (0,1): %v", share)
	}
	// Figure 6 annotation scale: with τ=512 shares are single-digit percent.
	if share > 0.1 {
		t.Fatalf("τ=512 RAR comm share should be small, got %.1f%%", 100*share)
	}
}

func TestWorldGraphCaptionConstraints(t *testing.T) {
	g := WorldGraph()
	ring := WorldRing()
	bw, a, b, err := g.RingBottleneck(ring)
	if err != nil {
		t.Fatal(err)
	}
	if bw != 0.8 {
		t.Fatalf("ring bottleneck: got %v Gbps want 0.8", bw)
	}
	pair := map[string]bool{a: true, b: true}
	if !pair[Maharashtra] || !pair[Quebec] {
		t.Fatalf("bottleneck should be Maharashtra-Quebec, got %s-%s", a, b)
	}
	// PS star on England must have a link to every other region.
	leaves := []string{Utah, Texas, Quebec, Maharashtra}
	if _, _, err := g.StarBottleneck(England, leaves); err != nil {
		t.Fatalf("PS star incomplete: %v", err)
	}
	if len(g.Regions()) != 5 {
		t.Fatalf("want 5 regions, got %d", len(g.Regions()))
	}
}

func TestGraphSymmetry(t *testing.T) {
	g := WorldGraph()
	for _, a := range g.Regions() {
		for _, b := range g.Regions() {
			if g.Bandwidth(a, b) != g.Bandwidth(b, a) {
				t.Fatalf("asymmetric bandwidth %s-%s", a, b)
			}
		}
	}
	if g.Bandwidth("England", "England") != 0 {
		t.Fatal("self-link should be 0")
	}
}

func TestRingBottleneckErrors(t *testing.T) {
	g := NewGraph()
	g.AddLink("a", "b", 1)
	if _, _, _, err := g.RingBottleneck([]string{"a"}); err == nil {
		t.Fatal("short ring must error")
	}
	if _, _, _, err := g.RingBottleneck([]string{"a", "b", "c"}); err == nil {
		t.Fatal("missing link must error")
	}
}

func TestStarBottleneckErrors(t *testing.T) {
	g := NewGraph()
	if _, _, err := g.StarBottleneck("hub", nil); err == nil {
		t.Fatal("empty star must error")
	}
	if _, _, err := g.StarBottleneck("hub", []string{"x"}); err == nil {
		t.Fatal("missing hub link must error")
	}
}

func TestEffectiveBandwidth(t *testing.T) {
	g := WorldGraph()
	regions := WorldRing()
	rar, err := g.EffectiveBandwidthGbps(RAR, England, regions)
	if err != nil || rar != 0.8 {
		t.Fatalf("RAR effective bw: %v, %v", rar, err)
	}
	ps, err := g.EffectiveBandwidthGbps(PS, England, regions)
	if err != nil || ps != 1.2 { // England-Maharashtra is the weakest hub link
		t.Fatalf("PS effective bw: %v, %v", ps, err)
	}
	ar, err := g.EffectiveBandwidthGbps(AR, England, regions)
	if err != nil || ar != 0.8 {
		t.Fatalf("AR effective bw: %v, %v", ar, err)
	}
	if _, err := NewGraph().EffectiveBandwidthGbps(AR, "x", []string{"x", "y"}); err == nil {
		t.Fatal("empty graph must error for AR")
	}
}

// Property: comm time is non-negative and monotone non-decreasing in K for
// every topology.
func TestCommMonotoneProperty(t *testing.T) {
	m := testModel()
	f := func(kRaw uint8) bool {
		k := 2 + int(kRaw)%64
		for _, tp := range []Topology{PS, AR, RAR} {
			if m.CommTime(tp, k) < 0 || m.CommTime(tp, k+1) < m.CommTime(tp, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: doubling bandwidth halves communication time exactly.
func TestBandwidthScalingProperty(t *testing.T) {
	f := func(kRaw uint8, bwRaw uint8) bool {
		k := 2 + int(kRaw)%32
		bw := 1 + float64(bwRaw%100)
		m1 := Model{ModelSizeMB: 100, BandwidthMBps: bw, Throughput: 1, LocalSteps: 1}
		m2 := m1
		m2.BandwidthMBps *= 2
		for _, tp := range []Topology{PS, AR, RAR} {
			if math.Abs(m1.CommTime(tp, k)-2*m2.CommTime(tp, k)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
