// Package obsv is Photon's observability layer: zero-allocation phase-span
// primitives for attributing round time across tiers, a process-wide
// counter/gauge/histogram registry exported in Prometheus text format, and
// the HTTP listener (/metrics, /healthz, /debug/pprof) every binary mounts
// behind its -metrics-addr flag.
//
// The package depends only on the standard library and sits below every
// other internal package: internal/metrics embeds its Breakdown on round
// records, internal/fed drives its Tracer along the round critical path,
// and internal/serve feeds its engine instruments into the default
// registry.
package obsv

import (
	"sync"
	"sync/atomic"
	"time"
)

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

// SumNs returns the total across all phases.
//
//photon:hotpath
func (n PhaseNanos) SumNs() int64 {
	var s int64
	for _, v := range n {
		s += v
	}
	return s
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
// that rides round records, RoundEvents, and the observe stream. The
// breakdown follows the round's critical path (the slowest member's
// timings, not per-member sums), so its sum approximates the round's
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

// SumMs returns the total across all phases.
func (b Breakdown) SumMs() float64 {
	return b.BroadcastMs + b.TrainMs + b.EncodeMs + b.WireMs + b.DecodeMs + b.AggregateMs + b.EvalMs
}

// Span is one completed phase span in a Tracer's ring.
type Span struct {
	Phase   Phase
	TraceID uint64
	Start   time.Time
	Dur     time.Duration
}

// Tracer ring-buffers completed phase spans. Recording is gated on a
// subscriber count: with no subscriber attached, Begin/End reduce to two
// monotonic clock reads and never touch the ring (and never allocate), so
// instrumentation compiled into the round path is free until someone — an
// observe stream, a test — actually subscribes.
//
// A nil *Tracer is valid: Begin/End still measure, nothing records.
type Tracer struct {
	subs atomic.Int32

	mu   sync.Mutex
	ring []Span
	pos  int
	n    int // spans recorded, saturating at len(ring)
}

// NewTracer builds a tracer whose ring holds capacity spans (default 256).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	return &Tracer{ring: make([]Span, capacity)}
}

// Subscribe enables span recording until the matching Unsubscribe.
//
//photon:hotpath
func (t *Tracer) Subscribe() {
	if t != nil {
		t.subs.Add(1)
	}
}

// Unsubscribe drops one subscription.
//
//photon:hotpath
func (t *Tracer) Unsubscribe() {
	if t != nil {
		t.subs.Add(-1)
	}
}

// Active reports whether any subscriber is attached.
//
//photon:hotpath
func (t *Tracer) Active() bool { return t != nil && t.subs.Load() > 0 }

// SpanMark is an in-flight span: a value type carrying the tracer, phase,
// and monotonic start time. End completes it.
type SpanMark struct {
	t     *Tracer
	start time.Time
	phase Phase
}

// Begin starts a span. It always captures the monotonic clock (so End can
// return the measurement for phase accounting) but records into the ring
// only when a subscriber is attached at End time.
//
//photon:hotpath
func (t *Tracer) Begin(p Phase) SpanMark {
	return SpanMark{t: t, start: time.Now(), phase: p}
}

// End completes the span, returning its duration in nanoseconds. traceID
// stamps the ring entry so relay-tier spans attribute to the root round
// that caused them.
//
//photon:hotpath
func (m SpanMark) End(traceID uint64) int64 {
	d := time.Since(m.start)
	if m.t.Active() {
		m.t.record(Span{Phase: m.phase, TraceID: traceID, Start: m.start, Dur: d})
	}
	return d.Nanoseconds()
}

//photon:hotpath
func (t *Tracer) record(s Span) {
	t.mu.Lock()
	t.ring[t.pos] = s
	t.pos = (t.pos + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// Snapshot copies the recorded spans, oldest first.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.n)
	start := t.pos - t.n
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i+len(t.ring))%len(t.ring)])
	}
	return out
}
