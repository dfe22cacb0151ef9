// Package metrics collects and renders training measurements: per-round
// histories with perplexity/loss series, the AggMetrics reduction from
// Algorithm 1, rounds-to-target queries used by the wall-time experiments, and
// plain-text table/series renderers for the benchmark harness.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"photon/internal/obsv"
)

// Round is one federated round's (or centralized eval interval's) record.
type Round struct {
	Round      int
	TrainLoss  float64 // mean client training loss (nats/token)
	ValPPL     float64 // global model validation perplexity (0 = not evaluated)
	UpdateNorm float64 // L2 norm of the aggregated pseudo-gradient
	Clients    int     // participating clients
	CommBytes  int64   // model/update bytes exchanged this round (down + up)

	// Wire-codec accounting. For the networked backends the byte counts
	// are measured on the wire (frame headers and heartbeats included);
	// the in-process simulator counts encoded payload bytes. Zero when the
	// backend predates codec accounting.
	WireSentBytes    int64   // bytes sent during the round's window
	WireRecvBytes    int64   // bytes received during the round's window
	CompressionRatio float64 // encoded payload bytes / dense float32 bytes (1 = dense, 0 = unknown)
	EncodeMs         float64 // payload encode wall time this round, milliseconds
	DecodeMs         float64 // payload decode wall time this round, milliseconds

	// Hierarchical-aggregation position. Tier is the emitting node's
	// distance from the global aggregator (0 = root, 1 = a relay's own
	// records). Depth is the number of aggregation tiers at or below the
	// emitting node: 1 for a flat aggregation, 2 when the node's children
	// are themselves relays; 0 means the backend predates tier accounting
	// (or it does not apply, e.g. centralized training).
	Tier  int
	Depth int

	// Elastic-membership churn attributed to this round (networked
	// aggregator only; zero for the in-process backends). Churn is
	// windowed between recorded rounds, so the initial cohort's joins
	// land on round 1 by design.
	Joins             int     // members that joined (first time or rejoin)
	Evictions         int     // members evicted on failure or missed heartbeats
	Stragglers        int     // cohort slots dropped at the round deadline
	HeartbeatRTTMs    float64 // mean heartbeat round-trip observed, milliseconds
	HeartbeatRTTP99Ms float64 // p99 heartbeat round-trip (recent-window sketch)

	// Observability. TraceID is the round-scoped trace identifier the root
	// aggregator mints and propagates down the tree, so a relay's records
	// attribute to the root round that caused them (zero when the backend
	// predates tracing). Phases is the per-phase critical-path breakdown;
	// WallMs the measured round wall time it approximates. SlowestID and
	// SlowestPhase attribute the straggler: which member finished last and
	// in which phase it spent the most time.
	TraceID      uint64
	WallMs       float64
	Phases       obsv.Breakdown
	SlowestID    string
	SlowestPhase string

	// Asynchronous (FedBuff-mode) aggregation. ModelVersion is the global
	// model version after this record's commit (0 when the aggregator runs
	// the synchronous round loop). BufferFill is the number of updates
	// folded into the commit's staleness-weighted buffer, and MeanStaleness
	// their mean staleness in versions (0 = every update trained on the
	// freshest model).
	ModelVersion  int
	BufferFill    int
	MeanStaleness float64
}

// History is an append-only sequence of round records.
type History struct {
	Rounds []Round
}

// Append adds a record.
func (h *History) Append(r Round) { h.Rounds = append(h.Rounds, r) }

// Len returns the number of records.
func (h *History) Len() int { return len(h.Rounds) }

// FinalPPL returns the last evaluated validation perplexity, or +Inf when
// nothing was evaluated.
func (h *History) FinalPPL() float64 {
	for i := len(h.Rounds) - 1; i >= 0; i-- {
		if h.Rounds[i].ValPPL > 0 {
			return h.Rounds[i].ValPPL
		}
	}
	return math.Inf(1)
}

// BestPPL returns the minimum evaluated perplexity, or +Inf.
func (h *History) BestPPL() float64 {
	best := math.Inf(1)
	for _, r := range h.Rounds {
		if r.ValPPL > 0 && r.ValPPL < best {
			best = r.ValPPL
		}
	}
	return best
}

// RoundsToPPL returns the first round index whose evaluation hit the target.
func (h *History) RoundsToPPL(target float64) (int, bool) {
	for _, r := range h.Rounds {
		if r.ValPPL > 0 && r.ValPPL <= target {
			return r.Round, true
		}
	}
	return 0, false
}

// PPLSeries returns (round, perplexity) pairs for evaluated rounds.
func (h *History) PPLSeries() (rounds []int, ppls []float64) {
	for _, r := range h.Rounds {
		if r.ValPPL > 0 {
			rounds = append(rounds, r.Round)
			ppls = append(ppls, r.ValPPL)
		}
	}
	return rounds, ppls
}

// AggMetrics averages scalar client metrics key-by-key (Algorithm 1 line 10).
// Keys missing from some clients are averaged over the clients that report
// them.
func AggMetrics(clients []map[string]float64) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, m := range clients {
		for k, v := range m {
			sums[k] += v
			counts[k]++
		}
	}
	out := make(map[string]float64, len(sums))
	for k, s := range sums {
		out[k] = s / float64(counts[k])
	}
	return out
}

// Table renders an aligned plain-text table. Ragged rows are handled on
// both sides: rows wider than the header grow extra (unlabeled) columns
// rather than panicking, and shorter rows are padded with empty cells.
func Table(headers []string, rows [][]string) string {
	cols := len(headers)
	for _, row := range rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			if i > 0 {
				b.WriteString("  ")
			}
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Series renders (x, y) pairs as "x<TAB>y" lines with a header, the format
// the figure benches print so curves can be plotted or diffed directly.
func Series(name, xLabel, yLabel string, xs []int, ys []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n%s\t%s\n", name, xLabel, yLabel)
	for i := range xs {
		fmt.Fprintf(&b, "%d\t%.4f\n", xs[i], ys[i])
	}
	return b.String()
}

// SortedKeys returns map keys in sorted order for deterministic rendering.
func SortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
