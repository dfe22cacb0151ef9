package photon

import (
	"photon/internal/metrics"
	"photon/internal/obsv"
)

// RoundEvent is one round's training telemetry: streamed live on
// Job.Events while a run is in progress, and kept in Result.Stats. It is
// the aggregator's own round record, the one the observe stream and
// photon-top carry too; its fields are documented there.
type RoundEvent = metrics.Round

// PhaseBreakdown is a round's per-phase wall time in milliseconds
// (RoundEvent.Phases), split along the critical path: model broadcast,
// member local training, codec encode/decode (both sides), wire-transfer
// residual, aggregation, and evaluation.
type PhaseBreakdown = obsv.Breakdown
