package photon

import "photon/internal/metrics"

// RoundEvent is one round's training telemetry: streamed live on
// Job.Events while a run is in progress, and kept in Result.Stats. It is
// the aggregator's own round record, the one the observe stream and
// photon-top carry too; its fields are documented there.
type RoundEvent = metrics.Round
