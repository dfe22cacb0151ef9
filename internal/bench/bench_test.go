package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestAllExperimentsRunQuick executes every registered experiment at Quick
// scale and checks it produces non-trivial output without errors. This is
// the harness's own smoke test; paper-shape assertions live in the targeted
// tests below.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiments are slow")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := e.Run(context.Background(), &buf, Quick); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() < 50 {
				t.Fatalf("%s: suspiciously small output (%d bytes):\n%s", e.ID, buf.Len(), buf.String())
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("table2"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(Registry()) < 20 {
		t.Fatalf("registry shrank: %d experiments", len(Registry()))
	}
}

func TestTable2Shape(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(context.Background(), &buf, Quick); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Headline claims that must hold in the generated table: federated
	// wall time beats centralized (ratio < 1) and communication is reduced
	// by orders of magnitude.
	for _, want := range []string{"Fed-7B", "Cen-7B", "Fed-1.3B"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing row %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "0.00") { // comm ratio ~0.001x rendered as 0.00xx
		t.Fatalf("expected ~0.001x comm ratio in:\n%s", out)
	}
}

func TestTable2FedBeatsCent(t *testing.T) {
	// Recompute the model directly: for every size, fed wall < cent wall
	// and fed comm < 1% of cent comm.
	out := captureTable2Ratios(t)
	for size, ratios := range out {
		if ratios.wall >= 1 {
			t.Errorf("%s: fed wall ratio %.2f >= 1", size, ratios.wall)
		}
		if ratios.comm >= 0.01 {
			t.Errorf("%s: fed comm ratio %.4f >= 0.01", size, ratios.comm)
		}
	}
}

type t2ratio struct{ wall, comm float64 }

// captureTable2Ratios recomputes the Table 2 ratios from the shared row data
// using the same arithmetic as the renderer.
func captureTable2Ratios(t *testing.T) map[string]t2ratio {
	t.Helper()
	out := map[string]t2ratio{}
	for _, r := range table2Rows() {
		wallFed, commFed, wallCen, commCen := table2Times(r, 500, 10)
		out[r.name] = t2ratio{wall: wallFed / wallCen, comm: commFed / commCen}
	}
	return out
}
