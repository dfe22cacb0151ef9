package obsv

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"photon/internal/testutil"
)

// TestRingPercentile: the ring reads percentiles by the n·p/100 index rule
// over the RingSize newest samples, and Reset empties it.
func TestRingPercentile(t *testing.T) {
	var r Ring
	if got := r.Percentile(99); got != 0 {
		t.Fatalf("empty ring p99 = %v, want 0", got)
	}
	for i := 100; i >= 1; i-- {
		r.Add(time.Duration(i))
	}
	if p50, p99 := r.Percentile(50), r.Percentile(99); p50 != 51 || p99 != 100 {
		t.Fatalf("p50, p99 = %v, %v over 1..100, want 51, 100", p50, p99)
	}
	for i := 0; i < RingSize; i++ {
		r.Add(7)
	}
	if got := r.Percentile(99); got != 7 {
		t.Fatalf("p99 after overflow = %v, want 7 (only the newest %d kept)", got, RingSize)
	}
	r.Reset()
	if got := r.Percentile(50); got != 0 {
		t.Fatalf("p50 after Reset = %v, want 0", got)
	}
}

func TestPhaseNanos(t *testing.T) {
	var pn PhaseNanos
	pn.Add(PhaseTrain, 3e6)
	pn.Add(PhaseEncode, 1e6)
	pn.Add(PhaseTrain, 2e6)
	pn.Add(PhaseWire, -5) // negative charges ignored
	if pn[PhaseTrain] != 5e6 || pn[PhaseEncode] != 1e6 || pn[PhaseWire] != 0 {
		t.Fatalf("PhaseNanos = %v, want train 5e6, encode 1e6, wire 0", pn)
	}
	if pn.Slowest() != PhaseTrain {
		t.Fatalf("Slowest = %v, want train", pn.Slowest())
	}
	b := pn.Breakdown()
	if b.TrainMs != 5 || b.EncodeMs != 1 {
		t.Fatalf("Breakdown = %+v", b)
	}
	if PhaseEval.String() != "eval" || Phase(200).String() != "phase(?)" {
		t.Fatal("Phase.String broken")
	}
}

// TestSpanZeroAlloc: a span is a stopwatch on the round critical path —
// Begin/End measure a positive duration and allocate nothing.
func TestSpanZeroAlloc(t *testing.T) {
	m := Begin(PhaseTrain)
	for start := time.Now(); time.Since(start) <= 0; {
		// spin until the monotonic clock has advanced past Begin
	}
	if ns := m.End(); ns <= 0 {
		t.Fatalf("span measured %dns, want > 0", ns)
	}
	sink := int64(0)
	if n := testing.AllocsPerRun(100, func() {
		sink += Begin(PhaseDecode).End()
	}); n != 0 {
		t.Fatalf("Begin/End allocates %v/op", n)
	}
	_ = sink
}

func TestRegistryPrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("photon_rounds_total", "rounds completed")
	c.Add(3)
	c.Inc()
	c.Add(-9) // ignored
	if c.Value() != 4 {
		t.Fatalf("counter = %d", c.Value())
	}
	g := r.Gauge("photon_round", "current round")
	g.Set(7)
	h := r.Histogram("photon_req_seconds", "request latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(50) // beyond last bound: only +Inf
	if h.Count() != 3 || h.Sum() != 50.55 {
		t.Fatalf("hist count=%d sum=%v", h.Count(), h.Sum())
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE photon_rounds_total counter",
		"photon_rounds_total 4",
		"photon_round 7",
		`photon_req_seconds_bucket{le="0.1"} 1`,
		`photon_req_seconds_bucket{le="1"} 2`,
		`photon_req_seconds_bucket{le="+Inf"} 3`,
		"photon_req_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Idempotent re-registration returns the same instrument.
	if r.Counter("photon_rounds_total", "") != c {
		t.Fatal("re-registration returned a new counter")
	}
	// Kind mismatch is a programming error.
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("photon_rounds_total", "")
}

func TestServeEndpoints(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	reg := NewRegistry()
	reg.Counter("photon_rounds_total", "rounds").Add(5)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ht := NewHealthTracker("agg", 0)
	ht.Observe(5, 8)
	srv.SetHealth(ht.Get)

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	if out := get("/metrics"); !strings.Contains(out, "photon_rounds_total 5") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	var h Health
	if err := json.Unmarshal([]byte(get("/healthz")), &h); err != nil {
		t.Fatal(err)
	}
	if h.Component != "agg" || h.Round != 5 || h.Cohort != 8 || h.LastAgeS < 0 {
		t.Fatalf("healthz = %+v", h)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Fatal("pprof cmdline empty")
	}
}

func TestHealthTrackerAge(t *testing.T) {
	ht := NewHealthTracker("client", 2)
	if h := ht.Get(); h.LastAgeS != -1 {
		t.Fatalf("pre-round age = %v, want -1", h.LastAgeS)
	}
	ht.Observe(1, 4)
	time.Sleep(5 * time.Millisecond)
	if h := ht.Get(); h.LastAgeS <= 0 {
		t.Fatalf("age = %v, want > 0", h.LastAgeS)
	}
}
