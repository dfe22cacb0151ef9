package fed

import (
	"testing"
	"time"

	"photon/internal/cluster"
	"photon/internal/metrics"
	"photon/internal/obsv"
)

func TestObserveMessageRoundTrip(t *testing.T) {
	rec := metrics.Round{
		Round:             7,
		TrainLoss:         3.25,
		ValPPL:            41.5,
		Clients:           4,
		Tier:              0,
		Depth:             2,
		WireSentBytes:     123456,
		WireRecvBytes:     654321,
		CommBytes:         123456 + 654321,
		CompressionRatio:  0.25,
		EncodeMs:          1.5,
		DecodeMs:          2.5,
		WallMs:            321.5,
		Joins:             2,
		Evictions:         1,
		Stragglers:        3,
		HeartbeatRTTMs:    0.5,
		HeartbeatRTTP99Ms: 4.5,
		TraceID:           (1 << 52) - 17,
		ModelVersion:      9,
		BufferFill:        3,
		MeanStaleness:     0.5,
		SlowestID:         "relay-west",
		Phases: obsv.Breakdown{
			BroadcastMs: 1, TrainMs: 300, EncodeMs: 2, WireMs: 10,
			DecodeMs: 3, AggregateMs: 4, EvalMs: 5,
		},
	}
	alive := []cluster.Info{
		{ID: "a", Health: 1, HeartbeatRTT: 2 * time.Millisecond, Straggles: 0},
		{ID: "b", Health: 0.5, HeartbeatRTT: 7 * time.Millisecond, Straggles: 3},
	}
	ev := parseObserve(observeMessage(rec, alive, map[string]int{"b": 2}))
	got := ev.Record
	// UpdateNorm/SlowestPhase don't ride the observe frame.
	if got != rec {
		t.Fatalf("record round-trip mismatch:\n got %+v\nwant %+v", got, rec)
	}
	if len(ev.Members) != 2 {
		t.Fatalf("members = %+v", ev.Members)
	}
	if ev.Members[0].ID != "a" || ev.Members[0].Health != 1 || ev.Members[0].RTTMs != 2 {
		t.Fatalf("member a = %+v", ev.Members[0])
	}
	if ev.Members[1].ID != "b" || ev.Members[1].Straggles != 3 || ev.Members[1].RTTMs != 7 {
		t.Fatalf("member b = %+v", ev.Members[1])
	}
	if ev.Members[0].Staleness != 0 || ev.Members[1].Staleness != 2 {
		t.Fatalf("staleness: a=%d b=%d, want 0 and 2", ev.Members[0].Staleness, ev.Members[1].Staleness)
	}
}

func TestObserveMessageCapsMembers(t *testing.T) {
	alive := make([]cluster.Info, obsMemberCap+10)
	for i := range alive {
		alive[i] = cluster.Info{ID: string(rune('a'+i%26)) + string(rune('0'+i/26)), Health: 1}
	}
	ev := parseObserve(observeMessage(metrics.Round{Round: 1}, alive, nil))
	if len(ev.Members) != obsMemberCap {
		t.Fatalf("got %d members, want cap %d", len(ev.Members), obsMemberCap)
	}
}
