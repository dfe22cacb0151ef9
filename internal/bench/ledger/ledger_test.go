package main

import (
	"testing"
)

// TestLedgerCoversBenchmark holds the committed trajectory to the benchmark's
// declared surface: every point carries every workload, and every workload
// every end-to-end metric, by the names BENCHMARK.json gives them. Both files
// are only read.
func TestLedgerCoversBenchmark(t *testing.T) {
	var sp spec
	if err := readJSON("../../../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	var led ledger
	if err := readJSON("../../../BENCH_e2e.json", &led); err != nil {
		t.Fatal(err)
	}
	if len(led.Points) == 0 {
		t.Fatal("BENCH_e2e.json holds no points")
	}
	for _, p := range led.Points {
		if p.Label == "" || p.Commit == "" {
			t.Errorf("point %+v has no label or commit", p)
		}
		if len(p.Workloads) != len(sp.Workloads) {
			t.Errorf("%s seed %d: %d workloads, BENCHMARK.json declares %d", p.Label, p.Seed, len(p.Workloads), len(sp.Workloads))
		}
		for _, w := range sp.Workloads {
			m, ok := p.Workloads[w.Name]
			if !ok {
				t.Errorf("%s seed %d: workload %s missing", p.Label, p.Seed, w.Name)
				continue
			}
			if len(m.Metrics) != len(sp.EndToEnd) {
				t.Errorf("%s seed %d %s: %d metrics, BENCHMARK.json declares %d", p.Label, p.Seed, w.Name, len(m.Metrics), len(sp.EndToEnd))
			}
			for _, name := range sp.EndToEnd {
				if v, ok := m.Metrics[name.Name]; !ok || v <= 0 {
					t.Errorf("%s seed %d %s: metric %s missing or not positive (%v)", p.Label, p.Seed, w.Name, name.Name, v)
				}
			}
		}
	}
}

// TestParseRun reads a result line the way the benchmark prints it, after
// its human-readable table.
func TestParseRun(t *testing.T) {
	stdout := []byte("  op_ms   0.93 ms\n" +
		`{"correct":true,"attempted":8745,"failed":2,"metrics":{"op_ms":{"value":0.93,"unit":"ms"},"setup_s":{"value":0.005,"unit":"s"}}}` + "\n")
	m, err := parseRun(stdout, []named{{"op_ms"}, {"setup_s"}})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Correct || m.Attempted != 8745 || m.Failed != 2 || m.Metrics["op_ms"] != 0.93 || m.Metrics["setup_s"] != 0.005 {
		t.Fatalf("parsed %+v", m)
	}
	if _, err := parseRun(stdout, []named{{"tokens_per_s"}}); err == nil {
		t.Fatal("a run without a declared metric parsed cleanly")
	}
}
