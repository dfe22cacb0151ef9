package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// quickEnv measures for a twentieth of the benchmark's run length, with one
// set-up sample: enough to drive every code path and every exactness check,
// too short to train, so the quality thresholds are off.
func quickEnv(t *testing.T, trace bool) env {
	seconds := 0.3
	if trace {
		seconds = 0.6 // a traced run halves it between live run and replay
	}
	return env{seed: 7, seconds: seconds, trace: trace, outDir: t.TempDir(), setupsMin: 1, setupsMax: 1, quick: true}
}

func TestWorkloadsAtSmallScale(t *testing.T) {
	for _, name := range workloadNames() {
		res, err := runWorkload(context.Background(), name, quickEnv(t, false))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.problems) > 0 {
			t.Errorf("%s: failed checks: %v", name, res.problems)
		}
		if res.attempted < 1 || res.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", name, res.attempted, res.failed)
		}
		for _, d := range endToEnd {
			if v, ok := res.e2e[d.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", name, d.Name, v)
			}
		}
		if err := res.print(io.Discard, false); err != nil {
			t.Errorf("%s: print: %v", name, err)
		}
	}
}

func TestTracedRunsAtSmallScale(t *testing.T) {
	// One workload of each kind; the other four share their replay code.
	for name, must := range map[string][]string{
		"fed-async":       {"critical_path_ms", "nn.fwd_bwd_ms", "opt.step_ms", "link.encode_update_ms", "link.send_recv_ms", "ckpt.append_ms", "ckpt.sync_ms", "ckpt.replay_ms", "fed.fold_ms"},
		"serve-icl-score": {"critical_path_ms", "serve.engine_do_ms", "nn.prefill_ms_per_token", "eval.retrieve_ms", "eval.shared_prefix_token_share"},
	} {
		e := quickEnv(t, true)
		res, err := runWorkload(context.Background(), name, e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.problems) > 0 {
			t.Fatalf("%s: failed checks: %v", name, res.problems)
		}
		known := map[string]bool{}
		for _, d := range perLayer {
			known[d.Name] = true
		}
		for metric := range res.layer {
			if !known[metric] {
				t.Errorf("%s: emitted %q, which perLayer does not list", name, metric)
			}
		}
		for _, metric := range must {
			if !(res.layer[metric] > 0) {
				t.Errorf("%s: per-layer metric %s = %v, want > 0", name, metric, res.layer[metric])
			}
		}
		if _, err := os.Stat(e.outDir + "/trace-" + name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", name, err)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the names and units the program
// emits, and to the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	names := workloadNames()
	if len(spec.Workloads) != len(names) || len(names) < 2 || len(names) > 8 {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(names))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != names[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, names[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(got), len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			if m.Name != want[i].Name || m.Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: bound present = %v, want %v", m.Name, m.Bound != nil, bounded)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, -1}, {10, -1}, {20, -1}, {22, -1}, {23, 12}, {100, 89}, {1000, 989},
	} {
		if got := tailIndex(c.n); got != c.want {
			t.Errorf("tailIndex(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // descending: summarize must sort
	}
	s := summarize(samples)
	if s.N != 1000 || s.Median != 500.5 || s.Tail != 990 || s.TailPct != 99 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
	// Ten samples lie beyond the tail value, never fewer.
	beyond := 0
	for _, v := range samples {
		if v > s.Tail {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond the tail percentile, want 10", beyond)
	}
	if s := summarize([]float64{3, 1, 2}); s.Median != 2 || s.TailPct != 0 {
		t.Errorf("summarize of three samples = %+v", s)
	}
}

func TestTokensPerSecond(t *testing.T) {
	// Five whole seconds at 100 tokens each, except a stalled second with 10.
	var done []completion
	for sec := 0; sec < 5; sec++ {
		n := 10
		if sec == 2 {
			n = 1
		}
		for i := 0; i < n; i++ {
			done = append(done, completion{at: float64(sec) + float64(i)/10, tokens: 10})
		}
	}
	done = append(done, completion{at: 5.2, tokens: 10}) // past the last whole second
	if got := tokensPerSecond(done, 5400*time.Millisecond); got != 100 {
		t.Errorf("median second = %v tokens/s, want 100", got)
	}
	// Too short for a median: the mean.
	if got := tokensPerSecond(done[:20], 2*time.Second); got != 100 {
		t.Errorf("short window = %v tokens/s, want 100", got)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
	if got, want := quartileSpread([]float64{2, 4}), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(2, 4) = %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Trace: 0, Name: "root", Start: 0, End: 100, Lane: -1},
		{ID: 2, Parent: 1, Trace: 0, Name: "a", Start: 10, End: 40, Lane: 0},
		{ID: 3, Parent: 1, Trace: 0, Name: "a", Start: 30, End: 60, Lane: 1},   // overlaps span 2: counted once
		{ID: 4, Parent: 1, Trace: 0, Name: "b", Start: 90, End: 120, Lane: -1}, // clipped to its parent
		{ID: 5, Parent: 2, Trace: 0, Name: "c", Start: 15, End: 25, Lane: 0},
		{ID: 6, Parent: 0, Trace: 0, Name: "bg", Start: 0, End: 500, Lane: 2, Background: true},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 20, 3: 30, 4: 30, 5: 10, 6: 500} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byName, total := blockingMs(spans)
	// "a" ran on two lanes side by side: the longer lane (30) blocks; "b" and
	// "c" add; the root and the background span stay out.
	if got := byName["a"]; len(got) != 1 || got[0] != 30e-6 {
		t.Errorf("blocking a = %v", got)
	}
	if len(total) != 1 || math.Abs(total[0]-(30+30+10)*1e-6) > 1e-15 {
		t.Errorf("critical path = %v", total)
	}
	if got := longestLaneMs(spans, "a"); len(got) != 1 || got[0] != 30e-6 {
		t.Errorf("longestLaneMs a = %v", got)
	}
}

func TestRecorderNestsBackground(t *testing.T) {
	r := newRecorder()
	bg := r.beginBackground("bg", 0, 0)
	child := r.begin("child", bg, 0, 0)
	r.end(child)
	r.end(bg)
	for _, s := range r.snapshot() {
		if !s.Background {
			t.Errorf("span %q under a background span is not background", s.Name)
		}
		if s.End < s.Start {
			t.Errorf("span %q ends before it starts", s.Name)
		}
	}
}

func TestSubSeedsDiffer(t *testing.T) {
	if subSeed(1, "a") == subSeed(1, "b") || subSeed(1, "a") == subSeed(2, "a") {
		t.Error("sub-seeds collide")
	}
	if subSeed(1, "a") != subSeed(1, "a") || subSeed(1, "a") < 0 {
		t.Error("sub-seed is not a stable non-negative number")
	}
}

func TestMoreSetups(t *testing.T) {
	e := env{setupsMin: 3, setupsMax: 5, setupBudget: time.Second}
	for _, c := range []struct {
		samples []float64
		want    bool
	}{
		{nil, true},                            // below the minimum
		{[]float64{0.1}, true},                 // below the minimum
		{[]float64{0.6, 0.6}, false},           // minimum reached, budget spent
		{[]float64{0.1, 0.1}, true},            // budget left
		{[]float64{0.1, 0.1, 0.1, 0.1}, false}, // maximum reached
	} {
		if got := e.moreSetups(c.samples); got != c.want {
			t.Errorf("moreSetups(%v) = %v, want %v", c.samples, got, c.want)
		}
	}
}
