package photon

import "photon/internal/metrics"

// RoundEvent is one round's training telemetry: streamed live on
// Job.Events while a run is in progress, and kept in Result.Stats.
type RoundEvent struct {
	// Round is the 1-based federated round (or, for the centralized
	// backend, the optimizer step of the evaluation record). Resumed runs
	// continue the checkpoint's numbering.
	Round int
	// TrainLoss is the mean participating-client training loss
	// (nats/token).
	TrainLoss float64
	// Perplexity is the global model's validation perplexity, 0 when the
	// round was not evaluated.
	Perplexity float64
	// Clients is the number of clients whose updates were aggregated
	// (workers, for the centralized backend).
	Clients int
	// CommBytes is the model/update traffic attributed to the round:
	// broadcast down plus updates up for the federated backends, gradient
	// all-reduce volume for the centralized one. The networked backends
	// measure it on the wire (frame headers and heartbeats included); the
	// in-process federated backend counts codec-encoded payload bytes.
	CommBytes int64
	// WireSentBytes and WireRecvBytes split CommBytes by direction
	// (aggregator's perspective on the server/federated backends, the
	// client's own on the client backend). Zero where not applicable.
	WireSentBytes int64
	WireRecvBytes int64
	// CompressionRatio is encoded payload bytes divided by their dense
	// float32 cost: 1.0 for the dense codec, ~0.25 for q8, ~0.08 for
	// topk at 10% density. 0 means the round carried no payloads.
	CompressionRatio float64
	// EncodeMs and DecodeMs are the round's codec wall times in
	// milliseconds.
	EncodeMs float64
	DecodeMs float64
	// UpdateNorm is the L2 norm of the aggregated pseudo-gradient (0 for
	// the centralized and client backends).
	UpdateNorm float64

	// Tier is the emitting node's distance from the global aggregator: 0
	// for the root (and the in-process backends), 1 for a relay job's own
	// records (WithParent).
	Tier int
	// Depth is the number of aggregation tiers at or below the emitting
	// node: 1 for a flat federation, 2 when the node's round members are
	// themselves relays (a networked parent detects this from the cohort
	// metadata relays stamp on their updates). 0 means not applicable
	// (centralized and client backends).
	Depth int

	// Joins counts members that joined (or rejoined) the federation during
	// this round — elastic membership telemetry from the networked
	// aggregator backend, 0 elsewhere. Churn is windowed between recorded
	// rounds: round 1 includes the initial cohort's joins.
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
	// a relay job's events carry the root round's ID — joining the tiers'
	// phase breakdowns into one distributed trace. 0 when not applicable.
	TraceID uint64
	// WallMs is the round's measured wall time in milliseconds, which the
	// phase breakdown's sum approximates.
	WallMs float64
	// Phases splits the round's critical path by phase (milliseconds).
	Phases PhaseBreakdown
	// SlowestID names the round's straggler: the last member whose update
	// made the aggregate. Empty when not applicable.
	SlowestID string
	// SlowestPhase is the phase that member spent the most time in
	// ("broadcast", "train", "encode", "wire", "decode").
	SlowestPhase string

	// ModelVersion is the committed global model version under asynchronous
	// aggregation (WithAsync): the aggregator backend reports the version
	// this event's commit produced, the client backend the version its
	// round trained on. 0 under synchronous aggregation.
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

// PhaseBreakdown is a round's per-phase wall time in milliseconds, split
// along the critical path: model broadcast, member local training, codec
// encode/decode (both sides), wire-transfer residual, aggregation, and
// evaluation. The breakdown follows the slowest member, so its sum
// approximates the round's measured wall time rather than a per-member
// total.
type PhaseBreakdown struct {
	BroadcastMs float64
	TrainMs     float64
	EncodeMs    float64
	WireMs      float64
	DecodeMs    float64
	AggregateMs float64
	EvalMs      float64
}

// SumMs returns the total across all phases.
func (b PhaseBreakdown) SumMs() float64 {
	return b.BroadcastMs + b.TrainMs + b.EncodeMs + b.WireMs + b.DecodeMs + b.AggregateMs + b.EvalMs
}

func eventFromRound(r metrics.Round) RoundEvent {
	return RoundEvent{
		Round:             r.Round,
		TrainLoss:         r.TrainLoss,
		Perplexity:        r.ValPPL,
		Clients:           r.Clients,
		CommBytes:         r.CommBytes,
		WireSentBytes:     r.WireSentBytes,
		WireRecvBytes:     r.WireRecvBytes,
		CompressionRatio:  r.CompressionRatio,
		EncodeMs:          r.EncodeMs,
		DecodeMs:          r.DecodeMs,
		UpdateNorm:        r.UpdateNorm,
		Tier:              r.Tier,
		Depth:             r.Depth,
		Joins:             r.Joins,
		Evictions:         r.Evictions,
		Stragglers:        r.Stragglers,
		HeartbeatRTTMs:    r.HeartbeatRTTMs,
		HeartbeatRTTP99Ms: r.HeartbeatRTTP99Ms,
		TraceID:           r.TraceID,
		WallMs:            r.WallMs,
		Phases:            PhaseBreakdown(r.Phases),
		SlowestID:         r.SlowestID,
		SlowestPhase:      r.SlowestPhase,
		ModelVersion:      r.ModelVersion,
		BufferFill:        r.BufferFill,
		MeanStaleness:     r.MeanStaleness,
	}
}
