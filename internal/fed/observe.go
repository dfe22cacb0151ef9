package fed

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"photon/internal/cluster"
	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/obsv"
)

// The observe stream is Meta-only MsgMetrics frames, so any observer can
// attach regardless of the fleet's wire codec (no payloads to decode). The
// round record crosses field by field: each numeric field of metrics.Round
// rides as o_<Field>, a nested struct's as o_<Field>.<Sub> (o_Phases.WireMs),
// so a field added to the record reaches observers with no edit here. Its
// two strings ride apart: SlowestID in the frame's one string field,
// ClientID, and SlowestPhase as its obsv.Phase index. The member-health
// section follows, capped at obsMemberCap members so a huge fleet cannot blow
// the frame's Meta budget.
const (
	obsRecordPrefix = "o_"
	obsSlowestPhase = obsRecordPrefix + "SlowestPhase"
	obsMemberPrefix = "o_m."      // + id + member-field suffix
	obsMemberHealth = ".health"   // (0,1] health score
	obsMemberRTT    = ".rtt_ms"   // heartbeat RTT EWMA
	obsMemberStrag  = ".straggle" // straggle count
	obsMemberStale  = ".stale"    // async: member's version lag, in versions
	obsMemberCap    = 64
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

// recordFields calls fn with the observe-frame key of every leaf field of
// the round record v (a metrics.Round, addressable when fn sets fields).
func recordFields(v reflect.Value, prefix string, fn func(key string, f reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		key, f := prefix+v.Type().Field(i).Name, v.Field(i)
		if f.Kind() == reflect.Struct {
			recordFields(f, key+".", fn)
		} else {
			fn(key, f)
		}
	}
}

// observeMessage renders a round record (and the alive membership) as a
// Meta-only MsgMetrics frame. stale, non-nil only under async aggregation,
// carries each member's version lag.
func observeMessage(rec metrics.Round, alive []cluster.Info, stale map[string]int) *link.Message {
	meta := map[string]float64{}
	recordFields(reflect.ValueOf(rec), obsRecordPrefix, func(key string, f reflect.Value) {
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			meta[key] = float64(f.Int())
		case reflect.Uint64:
			meta[key] = float64(f.Uint())
		case reflect.Float64:
			meta[key] = f.Float()
		}
	})
	for p := obsv.Phase(0); p < obsv.NumPhases; p++ {
		if p.String() == rec.SlowestPhase {
			meta[obsSlowestPhase] = float64(p)
		}
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
	var ev ObserveEvent
	recordFields(reflect.ValueOf(&ev.Record).Elem(), obsRecordPrefix, func(key string, f reflect.Value) {
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(m[key]))
		case reflect.Uint64:
			f.SetUint(uint64(m[key]))
		case reflect.Float64:
			f.SetFloat(m[key])
		}
	})
	ev.Record.SlowestID = msg.ClientID
	if p, ok := m[obsSlowestPhase]; ok {
		ev.Record.SlowestPhase = obsv.Phase(p).String()
	}

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
