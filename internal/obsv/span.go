// Package obsv is Photon's observability layer: the round phases and a
// zero-allocation span stopwatch for attributing round time across tiers,
// a process-wide counter/gauge/histogram registry exported in Prometheus
// text format, and the HTTP listener (/metrics, /healthz, /debug/pprof)
// every binary mounts behind its -metrics-addr flag.
//
// The package depends only on the standard library and sits below every
// other internal package: internal/metrics embeds its Breakdown on round
// records, internal/fed times the round critical path with Begin/End into
// PhaseNanos, and internal/serve feeds its engine instruments into the
// default registry.
package obsv

import "time"

// Phase identifies one segment of the federated round critical path.
type Phase uint8

// Round phases, in critical-path order: the aggregator encodes and
// broadcasts the global model, the member decodes it, trains, encodes its
// update, the wire moves both payloads, and the aggregator decodes,
// aggregates, and (on eval rounds) evaluates.
const (
	PhaseBroadcast Phase = iota // model send to the member
	PhaseTrain                  // member local compute (a relay's cohort exchange)
	PhaseEncode                 // codec encode, both sides
	PhaseWire                   // wire transfer residual (latency minus accounted work)
	PhaseDecode                 // codec decode, both sides
	PhaseAggregate              // fold + outer-optimizer step
	PhaseEval                   // validation perplexity
	NumPhases                   // number of phases (array sizing)
)

var phaseNames = [NumPhases]string{
	"broadcast", "train", "encode", "wire", "decode", "aggregate", "eval",
}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "phase(?)"
}

// PhaseNanos accumulates per-phase wall time in nanoseconds. It is a plain
// value type — accumulating into it never allocates, which is what lets the
// round loop carry one per round without disturbing the zero-alloc training
// step.
type PhaseNanos [NumPhases]int64

// Add charges ns nanoseconds to phase p.
//
//photon:hotpath
func (n *PhaseNanos) Add(p Phase, ns int64) {
	if p < NumPhases && ns > 0 {
		n[p] += ns
	}
}

// Slowest returns the phase holding the most accumulated time.
//
//photon:hotpath
func (n PhaseNanos) Slowest() Phase {
	best := Phase(0)
	for p := Phase(1); p < NumPhases; p++ {
		if n[p] > n[best] {
			best = p
		}
	}
	return best
}

// Breakdown converts the accumulator to the millisecond export form.
func (n PhaseNanos) Breakdown() Breakdown {
	const ms = 1e6
	return Breakdown{
		BroadcastMs: float64(n[PhaseBroadcast]) / ms,
		TrainMs:     float64(n[PhaseTrain]) / ms,
		EncodeMs:    float64(n[PhaseEncode]) / ms,
		WireMs:      float64(n[PhaseWire]) / ms,
		DecodeMs:    float64(n[PhaseDecode]) / ms,
		AggregateMs: float64(n[PhaseAggregate]) / ms,
		EvalMs:      float64(n[PhaseEval]) / ms,
	}
}

// Breakdown is one round's per-phase wall time in milliseconds — the form
// that rides the round record (metrics.Round.Phases) to every reader. It
// splits the round's critical path: model broadcast, member local
// training, codec encode/decode (both sides), wire-transfer residual,
// aggregation, and evaluation. The breakdown follows the slowest member's
// timings, not per-member sums, so its sum approximates the round's
// measured wall time.
type Breakdown struct {
	BroadcastMs float64
	TrainMs     float64
	EncodeMs    float64
	WireMs      float64
	DecodeMs    float64
	AggregateMs float64
	EvalMs      float64
}

// SpanMark is an in-flight span: the monotonic start of one phase
// measurement. End completes it.
type SpanMark struct {
	start time.Time
}

// Begin starts a span measuring phase p. A span is a stopwatch: End hands
// back its duration for the caller to charge (PhaseNanos.Add), and nothing
// is recorded anywhere else.
//
//photon:hotpath
func Begin(p Phase) SpanMark {
	return SpanMark{start: time.Now()}
}

// End completes the span, returning its duration in nanoseconds.
//
//photon:hotpath
func (m SpanMark) End() int64 {
	return time.Since(m.start).Nanoseconds()
}
