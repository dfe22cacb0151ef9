// Package metrics collects and renders training measurements: per-round
// histories with perplexity/loss series, the AggMetrics reduction from
// Algorithm 1, rounds-to-target queries used by the wall-time experiments, and
// the plain-text table renderer for the benchmark harness.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"photon/internal/obsv"
)

// Round is one round's record, the only one: the aggregator seals it, and it
// reaches Job.Events, Result.Stats, the observe stream and photon-top
// unchanged (the public photon.RoundEvent is this type). For the
// centralized backend it is one evaluation interval.
type Round struct {
	// Round is the 1-based federated round (or, for the centralized
	// backend, the optimizer step of the evaluation record). Resumed runs
	// continue the checkpoint's numbering.
	Round int
	// TrainLoss is the mean participating-client training loss
	// (nats/token); a tiered root's is the mean of its relays' means.
	TrainLoss float64
	// Perplexity is the global model's validation perplexity, 0 when the
	// round was not evaluated.
	Perplexity float64
	// Clients is the number of members whose updates were aggregated: a
	// tiered root's members are its relays, each folding its own cohort
	// (workers, for the centralized backend).
	Clients int
	// CommBytes is the model/update traffic attributed to the round:
	// broadcast down plus updates up for the federated backends, gradient
	// all-reduce volume for the centralized one. Every federated backend,
	// the in-process one included, measures it on the wire: the frames
	// crossing the emitting node's member links, headers and heartbeats
	// included (a tiered root's: its relay uplinks, not the leaf tier).
	CommBytes int64
	// WireSentBytes and WireRecvBytes split CommBytes by direction
	// (aggregator's perspective on the server/federated backends, the
	// client's own on the client backend). Zero where not applicable.
	WireSentBytes int64
	WireRecvBytes int64
	// CompressionRatio is encoded payload bytes divided by their dense
	// float32 cost: 1.0 for the dense codec, ~0.25 for q8, ~0.11 for the
	// updates of topk at 10% density (~0.15 for a two-member round with
	// its delta broadcast). 0 means the round carried no payloads.
	CompressionRatio float64
	// EncodeMs and DecodeMs are the round's codec wall times in
	// milliseconds.
	EncodeMs float64
	DecodeMs float64
	// DeltaBroadcasts is the number of members sent the model as a delta
	// against the one they held rather than in full (sync tiers only; 0
	// elsewhere).
	DeltaBroadcasts int
	// UpdateNorm is the L2 norm of the aggregated pseudo-gradient (0 for
	// the centralized and client backends).
	UpdateNorm float64

	// Tier is the emitting node's distance from the global aggregator: 0
	// for the root (and the centralized backend), 1 for a relay's own
	// records.
	Tier int
	// Depth is the number of aggregation tiers at or below the emitting
	// node: 1 for a flat federation, 2 when the node's round members are
	// themselves relays (a parent detects this from the cohort metadata
	// relays stamp on their updates). 0 means not applicable
	// (centralized and client backends).
	Depth int

	// Joins counts members that joined (or rejoined) the federation during
	// this round — elastic membership telemetry from the federated
	// aggregators, 0 elsewhere. Churn is windowed between recorded rounds:
	// round 1 includes the initial cohort's joins.
	Joins int
	// Evictions counts members evicted this round (connection failure or
	// missed heartbeats).
	Evictions int
	// Stragglers counts cohort slots dropped at the round deadline: the
	// member stayed alive but its update arrived too late to aggregate.
	Stragglers int
	// HeartbeatRTTMs is the mean heartbeat round-trip observed during the
	// round in milliseconds (0 when heartbeats are disabled).
	HeartbeatRTTMs float64
	// HeartbeatRTTP99Ms is the 99th-percentile heartbeat round-trip over
	// the round's recent-beat sketch — the tail the mean hides.
	HeartbeatRTTP99Ms float64

	// TraceID is the round-scoped trace identifier. The root aggregator
	// mints one per round and propagates it down the aggregation tree, so
	// a relay's records carry the root round's ID — joining the tiers'
	// phase breakdowns into one distributed trace. 0 when not applicable.
	TraceID uint64
	// WallMs is the round's measured wall time in milliseconds, which the
	// phase breakdown's sum approximates.
	WallMs float64
	// Phases splits the round's critical path by phase (milliseconds).
	Phases obsv.Breakdown
	// SlowestID names the round's straggler: the last member whose update
	// made the aggregate. Empty when not applicable.
	SlowestID string
	// SlowestPhase is the phase that member spent the most time in
	// ("broadcast", "train", "encode", "wire", "decode").
	SlowestPhase string

	// ModelVersion is the committed global model version under asynchronous
	// aggregation: the aggregator reports the version this record's commit
	// produced, a client the version its round trained on. 0 under
	// synchronous aggregation.
	ModelVersion int
	// BufferFill is the number of updates folded into this commit's
	// staleness-weighted buffer (asynchronous aggregation only).
	BufferFill int
	// MeanStaleness is the mean staleness, in model versions, of the
	// updates folded into this commit: 0 means every update trained on the
	// freshest model; larger values mean stragglers contributed late (and
	// were down-weighted accordingly).
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
		if h.Rounds[i].Perplexity > 0 {
			return h.Rounds[i].Perplexity
		}
	}
	return math.Inf(1)
}

// BestPPL returns the minimum evaluated perplexity, or +Inf.
func (h *History) BestPPL() float64 {
	best := math.Inf(1)
	for _, r := range h.Rounds {
		if r.Perplexity > 0 && r.Perplexity < best {
			best = r.Perplexity
		}
	}
	return best
}

// RoundsToPPL returns the first round index whose evaluation hit the target.
func (h *History) RoundsToPPL(target float64) (int, bool) {
	for _, r := range h.Rounds {
		if r.Perplexity > 0 && r.Perplexity <= target {
			return r.Round, true
		}
	}
	return 0, false
}

// PPLSeries returns (round, perplexity) pairs for evaluated rounds.
func (h *History) PPLSeries() (rounds []int, ppls []float64) {
	for _, r := range h.Rounds {
		if r.Perplexity > 0 {
			rounds = append(rounds, r.Round)
			ppls = append(ppls, r.Perplexity)
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
