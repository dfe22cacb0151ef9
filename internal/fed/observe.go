package fed

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"photon/internal/cluster"
	"photon/internal/link"
	"photon/internal/metrics"
)

// The observe stream is Meta-only MsgMetrics frames: every round record
// field an observer needs travels as a named float64, so any observer can
// attach regardless of the fleet's wire codec (no payloads to decode).
// These keys are the frame schema; obsMemberCap bounds the per-member
// health section so a huge fleet cannot blow the frame's Meta budget.
const (
	obsRoundKey      = "o_round"
	obsLossKey       = "o_loss"
	obsPPLKey        = "o_ppl"
	obsClientsKey    = "o_clients"
	obsTierKey       = "o_tier"
	obsDepthKey      = "o_depth"
	obsSentKey       = "o_sent_b"
	obsRecvKey       = "o_recv_b"
	obsRatioKey      = "o_ratio"
	obsEncMsKey      = "o_enc_ms"
	obsDecMsKey      = "o_dec_ms"
	obsWallMsKey     = "o_wall_ms"
	obsJoinsKey      = "o_joins"
	obsEvictionsKey  = "o_evictions"
	obsStragglersKey = "o_stragglers"
	obsRTTKey        = "o_rtt_ms"
	obsRTTP99Key     = "o_rtt_p99_ms"
	obsTraceKey      = "o_trace_id"
	obsVersionKey    = "o_version"   // async: committed global model version
	obsBufFillKey    = "o_buf_fill"  // async: updates folded into this commit
	obsStalenessKey  = "o_staleness" // async: mean staleness of the commit's buffer
	obsPhasePrefix   = "o_ph_ms."    // + phase name → milliseconds
	obsMemberPrefix  = "o_m."        // + id + member-field suffix
	obsMemberHealth  = ".health"     // (0,1] health score
	obsMemberRTT     = ".rtt_ms"     // heartbeat RTT EWMA
	obsMemberStrag   = ".straggle"   // straggle count
	obsMemberStale   = ".stale"      // async: member's version lag, in versions
	obsMemberCap     = 64
)

// ObserveEvent is one round's worth of the observe stream, parsed back
// into the round record plus the fleet's member-health snapshot.
type ObserveEvent struct {
	Record  metrics.Round
	Members []MemberHealth
}

// MemberHealth is one member's liveness snapshot as published to
// observers.
type MemberHealth struct {
	ID        string
	Health    float64
	RTTMs     float64
	Straggles int
	// Staleness is the member's version lag in async mode: how many
	// versions behind the committed global model its newest answered
	// dispatch was. Always 0 under synchronous aggregation.
	Staleness int
}

// observeMessage renders a round record (and the alive membership) as a
// Meta-only MsgMetrics frame. SlowestID rides in the frame's one string
// field, ClientID. stale, non-nil only under async aggregation, carries
// each member's version lag.
func observeMessage(rec metrics.Round, alive []cluster.Info, stale map[string]int) *link.Message {
	meta := map[string]float64{
		obsRoundKey:      float64(rec.Round),
		obsLossKey:       rec.TrainLoss,
		obsPPLKey:        rec.ValPPL,
		obsClientsKey:    float64(rec.Clients),
		obsTierKey:       float64(rec.Tier),
		obsDepthKey:      float64(rec.Depth),
		obsSentKey:       float64(rec.WireSentBytes),
		obsRecvKey:       float64(rec.WireRecvBytes),
		obsRatioKey:      rec.CompressionRatio,
		obsEncMsKey:      rec.EncodeMs,
		obsDecMsKey:      rec.DecodeMs,
		obsWallMsKey:     rec.WallMs,
		obsJoinsKey:      float64(rec.Joins),
		obsEvictionsKey:  float64(rec.Evictions),
		obsStragglersKey: float64(rec.Stragglers),
		obsRTTKey:        rec.HeartbeatRTTMs,
		obsRTTP99Key:     rec.HeartbeatRTTP99Ms,
		obsTraceKey:      float64(rec.TraceID),
	}
	if rec.ModelVersion > 0 {
		meta[obsVersionKey] = float64(rec.ModelVersion)
		meta[obsBufFillKey] = float64(rec.BufferFill)
		meta[obsStalenessKey] = rec.MeanStaleness
	}
	b := rec.Phases
	for phase, ms := range map[string]float64{
		"broadcast": b.BroadcastMs, "train": b.TrainMs, "encode": b.EncodeMs,
		"wire": b.WireMs, "decode": b.DecodeMs, "aggregate": b.AggregateMs,
		"eval": b.EvalMs,
	} {
		meta[obsPhasePrefix+phase] = ms
	}
	for i, m := range alive {
		if i >= obsMemberCap {
			break
		}
		meta[obsMemberPrefix+m.ID+obsMemberHealth] = m.Health
		meta[obsMemberPrefix+m.ID+obsMemberRTT] = float64(m.HeartbeatRTT.Nanoseconds()) / 1e6
		meta[obsMemberPrefix+m.ID+obsMemberStrag] = float64(m.Straggles)
		if s, ok := stale[m.ID]; ok {
			meta[obsMemberPrefix+m.ID+obsMemberStale] = float64(s)
		}
	}
	return &link.Message{
		Type:     link.MsgMetrics,
		Round:    int32(rec.Round),
		ClientID: rec.SlowestID,
		Meta:     meta,
	}
}

// parseObserve inverts observeMessage.
func parseObserve(msg *link.Message) ObserveEvent {
	m := msg.Meta
	ev := ObserveEvent{Record: metrics.Round{
		Round:             int(m[obsRoundKey]),
		TrainLoss:         m[obsLossKey],
		ValPPL:            m[obsPPLKey],
		Clients:           int(m[obsClientsKey]),
		Tier:              int(m[obsTierKey]),
		Depth:             int(m[obsDepthKey]),
		WireSentBytes:     int64(m[obsSentKey]),
		WireRecvBytes:     int64(m[obsRecvKey]),
		CompressionRatio:  m[obsRatioKey],
		EncodeMs:          m[obsEncMsKey],
		DecodeMs:          m[obsDecMsKey],
		WallMs:            m[obsWallMsKey],
		Joins:             int(m[obsJoinsKey]),
		Evictions:         int(m[obsEvictionsKey]),
		Stragglers:        int(m[obsStragglersKey]),
		HeartbeatRTTMs:    m[obsRTTKey],
		HeartbeatRTTP99Ms: m[obsRTTP99Key],
		TraceID:           uint64(m[obsTraceKey]),
		ModelVersion:      int(m[obsVersionKey]),
		BufferFill:        int(m[obsBufFillKey]),
		MeanStaleness:     m[obsStalenessKey],
		SlowestID:         msg.ClientID,
	}}
	ev.Record.CommBytes = ev.Record.WireSentBytes + ev.Record.WireRecvBytes
	ev.Record.Phases.BroadcastMs = m[obsPhasePrefix+"broadcast"]
	ev.Record.Phases.TrainMs = m[obsPhasePrefix+"train"]
	ev.Record.Phases.EncodeMs = m[obsPhasePrefix+"encode"]
	ev.Record.Phases.WireMs = m[obsPhasePrefix+"wire"]
	ev.Record.Phases.DecodeMs = m[obsPhasePrefix+"decode"]
	ev.Record.Phases.AggregateMs = m[obsPhasePrefix+"aggregate"]
	ev.Record.Phases.EvalMs = m[obsPhasePrefix+"eval"]

	members := map[string]*MemberHealth{}
	get := func(id string) *MemberHealth {
		if mh, ok := members[id]; ok {
			return mh
		}
		mh := &MemberHealth{ID: id}
		members[id] = mh
		return mh
	}
	for k, v := range m {
		if !strings.HasPrefix(k, obsMemberPrefix) {
			continue
		}
		rest := k[len(obsMemberPrefix):]
		switch {
		case strings.HasSuffix(rest, obsMemberHealth):
			get(strings.TrimSuffix(rest, obsMemberHealth)).Health = v
		case strings.HasSuffix(rest, obsMemberRTT):
			get(strings.TrimSuffix(rest, obsMemberRTT)).RTTMs = v
		case strings.HasSuffix(rest, obsMemberStrag):
			get(strings.TrimSuffix(rest, obsMemberStrag)).Straggles = int(v)
		case strings.HasSuffix(rest, obsMemberStale):
			get(strings.TrimSuffix(rest, obsMemberStale)).Staleness = int(v)
		}
	}
	for _, mh := range members {
		ev.Members = append(ev.Members, *mh)
	}
	sort.Slice(ev.Members, func(i, j int) bool { return ev.Members[i].ID < ev.Members[j].ID })
	return ev
}

// Observe attaches to an aggregator as a read-only event subscriber and
// calls fn for every round record the aggregator publishes, until the
// aggregator shuts down (returns nil), the connection drops, or ctx is
// cancelled. The subscription is codec-free: the observer answers the
// aggregator's codec announcement with MsgObserve instead of a join, so
// it works against any fleet configuration and never occupies a
// membership slot. It is the client half of the photon-top dashboard.
func Observe(ctx context.Context, conn *link.Conn, fn func(ObserveEvent)) error {
	defer closeOnDone(ctx, conn)()
	msg, err := conn.RecvTimeout(handshakeTimeout)
	if err != nil {
		return fmt.Errorf("fed: observe handshake: %w", err)
	}
	if msg.Type != link.MsgCodecAnnounce {
		return fmt.Errorf("fed: observe: aggregator sent message type %d before its codec announcement", msg.Type)
	}
	if err := conn.Send(&link.Message{Type: link.MsgObserve, ClientID: "observer"}); err != nil {
		return fmt.Errorf("fed: observe subscribe: %w", err)
	}
	for {
		msg, err := conn.Recv()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("fed: observe: %w: %w", ErrSessionLost, err)
		}
		switch msg.Type {
		case link.MsgMetrics:
			fn(parseObserve(msg))
		case link.MsgShutdown:
			return nil
		default:
			// Heartbeats or future frame types: observers ignore them.
		}
	}
}
