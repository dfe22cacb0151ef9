package cluster

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for liveness tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestJoinLeaveEvictRejoin(t *testing.T) {
	r := New(Config{})
	if rejoined := r.Join("a"); rejoined {
		t.Fatal("first join reported as rejoin")
	}
	r.Join("b")
	if got := r.AliveCount(); got != 2 {
		t.Fatalf("alive = %d, want 2", got)
	}
	if !r.Evict("a", "io error") {
		t.Fatal("evicting alive member failed")
	}
	if r.Evict("a", "again") {
		t.Fatal("double eviction succeeded")
	}
	info, ok := r.Get("a")
	if !ok || info.State != StateEvicted || info.EvictedFor != "io error" {
		t.Fatalf("evicted info = %+v", info)
	}
	if rejoined := r.Join("a"); !rejoined {
		t.Fatal("rejoin not detected")
	}
	info, _ = r.Get("a")
	if info.State != StateAlive || info.Rejoins != 1 {
		t.Fatalf("rejoined info = %+v", info)
	}
	if info.Health >= 1 {
		t.Fatalf("rejoin should carry a health penalty, got %v", info.Health)
	}
	tot := r.Totals()
	if tot.Joins != 2 || tot.Rejoins != 1 || tot.Evictions != 1 {
		t.Fatalf("totals = %+v", tot)
	}
}

func TestHeartbeatExpiry(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	r := New(Config{HeartbeatInterval: time.Second, MissedBeats: 3, Clock: clk.Now})
	r.Join("fast")
	r.Join("dead")

	// Within the window nothing expires.
	clk.Advance(2 * time.Second)
	r.Heartbeat("fast", 10*time.Millisecond)
	if dead := r.ExpireDead(); dead != nil {
		t.Fatalf("premature expiry: %v", dead)
	}
	// Past 3 missed intervals only the silent member dies.
	clk.Advance(1500 * time.Millisecond)
	dead := r.ExpireDead()
	if len(dead) != 1 || dead[0] != "dead" {
		t.Fatalf("expired %v, want [dead]", dead)
	}
	info, _ := r.Get("dead")
	if info.State != StateEvicted || info.EvictedFor != "missed heartbeats" {
		t.Fatalf("expired info = %+v", info)
	}
	if got := r.AliveCount(); got != 1 {
		t.Fatalf("alive = %d", got)
	}
	// Disabled interval never expires.
	r2 := New(Config{Clock: clk.Now})
	r2.Join("x")
	clk.Advance(time.Hour)
	if dead := r2.ExpireDead(); dead != nil {
		t.Fatalf("expiry with no interval: %v", dead)
	}
}

func TestHealthScoring(t *testing.T) {
	r := New(Config{})
	r.Join("good")
	r.Join("slow")
	for i := 0; i < 10; i++ {
		r.ObserveRound("good", 50*time.Millisecond, OutcomeOK)
		r.ObserveRound("slow", 900*time.Millisecond, OutcomeStraggler)
	}
	good, _ := r.Get("good")
	slow, _ := r.Get("slow")
	if !(good.Health > slow.Health) {
		t.Fatalf("health ordering wrong: good=%v slow=%v", good.Health, slow.Health)
	}
	if good.Health < 0.99 {
		t.Fatalf("healthy member should stay near 1, got %v", good.Health)
	}
	if slow.Health > 0.5 {
		t.Fatalf("chronic straggler should fall below 0.5, got %v", slow.Health)
	}
	if slow.Straggles != 10 {
		t.Fatalf("straggles = %d", slow.Straggles)
	}
	if slow.RoundLatency < 500*time.Millisecond {
		t.Fatalf("latency EWMA should approach 900ms, got %v", slow.RoundLatency)
	}
	if slow.Health < healthFloor {
		t.Fatalf("health below floor: %v", slow.Health)
	}
}

func TestSampleCohortOverProvisionAndBias(t *testing.T) {
	r := New(Config{})
	ids := []string{"a", "b", "c", "d", "e", "f"}
	for _, id := range ids {
		r.Join(id)
	}
	// Make "f" chronically unhealthy.
	for i := 0; i < 20; i++ {
		r.ObserveRound("f", time.Second, OutcomeStraggler)
	}

	rng := rand.New(rand.NewSource(7))
	cohort := r.SampleCohort(rng, 4, 0.5)
	if len(cohort) != 6 {
		t.Fatalf("over-provisioned cohort size = %d, want 6 (ceil(4*1.5))", len(cohort))
	}
	// Determinism: same rng seed and registry state → same cohort.
	c1 := r.SampleCohort(rand.New(rand.NewSource(3)), 3, 0)
	c2 := r.SampleCohort(rand.New(rand.NewSource(3)), 3, 0)
	if len(c1) != 3 || len(c2) != 3 {
		t.Fatalf("cohort sizes: %d, %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i].ID != c2[i].ID {
			t.Fatalf("sampling not deterministic: %v vs %v", c1, c2)
		}
	}
	// Bias: over many draws the unhealthy member appears much less often
	// than a healthy one.
	rng = rand.New(rand.NewSource(11))
	countF, countA := 0, 0
	for i := 0; i < 400; i++ {
		for _, m := range r.SampleCohort(rng, 3, 0) {
			switch m.ID {
			case "f":
				countF++
			case "a":
				countA++
			}
		}
	}
	if !(countF < countA/2) {
		t.Fatalf("unhealthy member not under-sampled: f=%d a=%d", countF, countA)
	}
	// k<=0 or k>alive samples everyone.
	if got := len(r.SampleCohort(rand.New(rand.NewSource(1)), 0, 0)); got != 6 {
		t.Fatalf("k=0 cohort = %d", got)
	}
}

// TestSampleCohortUniformAtEqualHealth: with every member at full health
// (never observed or evicted, as in the in-process simulator),
// SampleCohort(rng, k, 0) is a uniform draw without replacement — k distinct
// members in join order, each included at rate k/N. Over 20,000 seeded
// draws the standard error of a rate near 3/8 is ≈0.0034, so the stated
// tolerance of ±0.02 is ≈6 of them.
func TestSampleCohortUniformAtEqualHealth(t *testing.T) {
	r := New(Config{})
	// Joined out of lexical order, so join order is not ID order.
	ids := []string{"h", "c", "a", "f", "b", "g", "e", "d"}
	for _, id := range ids {
		r.Join(id)
	}
	const k, draws, tol = 3, 20000, 0.02
	rng := rand.New(rand.NewSource(5))
	counts := map[string]int{}
	for d := 0; d < draws; d++ {
		cohort := r.SampleCohort(rng, k, 0)
		if len(cohort) != k {
			t.Fatalf("draw %d: %d members, want %d", d, len(cohort), k)
		}
		for i, m := range cohort {
			if m.ID != ids[m.Index] {
				t.Fatalf("draw %d: member %s carries join index %d", d, m.ID, m.Index)
			}
			if i > 0 && m.Index <= cohort[i-1].Index {
				t.Fatalf("draw %d: cohort %v is not k distinct members in join order", d, cohort)
			}
			counts[m.ID]++
		}
	}
	want := float64(k) / float64(len(ids))
	for _, id := range ids {
		if rate := float64(counts[id]) / draws; rate < want-tol || rate > want+tol {
			t.Errorf("member %s included at rate %.4f, want %.3f±%.2f", id, rate, want, tol)
		}
	}
}

func TestRoundDeltaWindows(t *testing.T) {
	r := New(Config{})
	r.Join("a")
	r.Join("b")
	r.Heartbeat("a", 20*time.Millisecond)
	r.Heartbeat("a", 40*time.Millisecond)
	r.ObserveRound("b", time.Second, OutcomeStraggler)
	d := r.RoundDelta()
	if d.Joins != 2 || d.Stragglers != 1 {
		t.Fatalf("delta = %+v", d)
	}
	if d.HeartbeatRTTMs < 25 || d.HeartbeatRTTMs > 35 {
		t.Fatalf("mean RTT = %v, want ~30ms", d.HeartbeatRTTMs)
	}
	// The window resets; totals persist.
	d2 := r.RoundDelta()
	if d2 != (Stats{}) {
		t.Fatalf("window not reset: %+v", d2)
	}
	r.Evict("b", "x")
	d3 := r.RoundDelta()
	if d3.Evictions != 1 || d3.Joins != 0 {
		t.Fatalf("second window = %+v", d3)
	}
	tot := r.Totals()
	if tot.Joins != 2 || tot.Evictions != 1 || tot.Stragglers != 1 {
		t.Fatalf("totals = %+v", tot)
	}
}

func TestHeartbeatRTTP99(t *testing.T) {
	r := New(Config{})
	r.Join("a")
	// 99 fast beats and one 80ms outlier: the mean stays near 1ms but the
	// p99 must surface the tail.
	for i := 0; i < 99; i++ {
		r.Heartbeat("a", time.Millisecond)
	}
	r.Heartbeat("a", 80*time.Millisecond)
	d := r.RoundDelta()
	if d.HeartbeatRTTMs > 5 {
		t.Fatalf("mean RTT = %vms, expected ~1.8ms", d.HeartbeatRTTMs)
	}
	if d.HeartbeatRTTP99Ms != 80 {
		t.Fatalf("p99 RTT = %vms, want 80ms", d.HeartbeatRTTP99Ms)
	}
	// Window sketch resets with the window; totals sketch persists.
	if d2 := r.RoundDelta(); d2.HeartbeatRTTP99Ms != 0 {
		t.Fatalf("window p99 survived reset: %v", d2.HeartbeatRTTP99Ms)
	}
	if tot := r.Totals(); tot.HeartbeatRTTP99Ms != 80 {
		t.Fatalf("totals p99 = %v, want 80", tot.HeartbeatRTTP99Ms)
	}
	// Sketch overflow keeps only the most recent beats.
	for i := 0; i < rttSketchSize; i++ {
		r.Heartbeat("a", 2*time.Millisecond)
	}
	if d := r.RoundDelta(); d.HeartbeatRTTP99Ms != 2 {
		t.Fatalf("post-overflow p99 = %v, want 2", d.HeartbeatRTTP99Ms)
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := New(Config{HeartbeatInterval: time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := string(rune('a' + i))
			for n := 0; n < 200; n++ {
				r.Join(id)
				r.Heartbeat(id, time.Millisecond)
				r.ObserveRound(id, time.Millisecond, RoundOutcome(n%3))
				r.Alive()
				r.ExpireDead()
				r.Evict(id, "churn")
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		r.RoundDelta()
		r.SampleCohort(rand.New(rand.NewSource(int64(i))), 3, 0.5)
	}
	wg.Wait()
}
