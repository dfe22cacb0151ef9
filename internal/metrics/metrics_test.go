package metrics

import (
	"math"
	"strings"
	"testing"
)

func historyWithPPLs(ppls []float64) *History {
	h := &History{}
	for i, p := range ppls {
		h.Append(Round{Round: i + 1, Perplexity: p})
	}
	return h
}

func TestFinalAndBestPPL(t *testing.T) {
	h := historyWithPPLs([]float64{50, 40, 35, 38})
	if got := h.FinalPPL(); got != 38 {
		t.Fatalf("FinalPPL: got %v", got)
	}
	if got := h.BestPPL(); got != 35 {
		t.Fatalf("BestPPL: got %v", got)
	}
	empty := &History{}
	if !math.IsInf(empty.FinalPPL(), 1) || !math.IsInf(empty.BestPPL(), 1) {
		t.Fatal("empty history should report +Inf")
	}
}

func TestFinalPPLSkipsUnevaluatedRounds(t *testing.T) {
	h := &History{}
	h.Append(Round{Round: 1, Perplexity: 42})
	h.Append(Round{Round: 2}) // not evaluated
	if got := h.FinalPPL(); got != 42 {
		t.Fatalf("FinalPPL should skip Perplexity=0 rounds: got %v", got)
	}
}

func TestRoundsToPPL(t *testing.T) {
	h := historyWithPPLs([]float64{50, 40, 30})
	if r, ok := h.RoundsToPPL(40); !ok || r != 2 {
		t.Fatalf("RoundsToPPL: got %d, %v", r, ok)
	}
	if _, ok := h.RoundsToPPL(1); ok {
		t.Fatal("unreached round target reported")
	}
}

func TestPPLSeries(t *testing.T) {
	h := &History{}
	h.Append(Round{Round: 1, Perplexity: 50})
	h.Append(Round{Round: 2})
	h.Append(Round{Round: 3, Perplexity: 40})
	rounds, ppls := h.PPLSeries()
	if len(rounds) != 2 || rounds[1] != 3 || ppls[1] != 40 {
		t.Fatalf("series: %v %v", rounds, ppls)
	}
}

func TestAggMetrics(t *testing.T) {
	got := AggMetrics([]map[string]float64{
		{"loss": 2, "steps": 10},
		{"loss": 4, "steps": 10, "extra": 7},
	})
	if got["loss"] != 3 {
		t.Fatalf("loss: got %v", got["loss"])
	}
	if got["steps"] != 10 {
		t.Fatalf("steps: got %v", got["steps"])
	}
	// Keys present in only one client average over reporters.
	if got["extra"] != 7 {
		t.Fatalf("extra: got %v", got["extra"])
	}
	if len(AggMetrics(nil)) != 0 {
		t.Fatal("empty aggregation should be empty")
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"name", "value"}, [][]string{{"a", "1"}, {"longer", "22"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Fatalf("bad header: %q", lines[0])
	}
	// All rows align to the same width.
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("separator misaligned: %q vs %q", lines[0], lines[1])
	}
}

func TestTableRaggedRows(t *testing.T) {
	// A row wider than the header must not panic and must render every cell.
	out := Table([]string{"name", "value"}, [][]string{
		{"a", "1", "surplus"},
		{"b"}, // narrower than the header
		{"c", "3"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "surplus") {
		t.Fatalf("extra cell dropped: %q", lines[2])
	}
	// Every line pads to the same full width, including the short row.
	for i := 1; i < len(lines); i++ {
		if len(lines[i]) != len(lines[0]) {
			t.Fatalf("line %d width %d != header width %d:\n%s", i, len(lines[i]), len(lines[0]), out)
		}
	}
	// Extra columns align: the separator covers the surplus column too.
	if !strings.HasSuffix(lines[1], strings.Repeat("-", len("surplus"))) {
		t.Fatalf("separator missing surplus column: %q", lines[1])
	}
}
