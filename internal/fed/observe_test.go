package fed

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"photon/internal/cluster"
	"photon/internal/metrics"
	"photon/internal/obsv"
)

// fillDistinct sets every leaf field of the struct v to a distinct nonzero
// value (SlowestPhase to a phase name), failing on a kind it cannot fill.
func fillDistinct(t *testing.T, v reflect.Value, next *int) {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		*next++
		switch f.Kind() {
		case reflect.Struct:
			fillDistinct(t, f, next)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(*next))
		case reflect.Uint64:
			f.SetUint(1<<52 - uint64(*next))
		case reflect.Float64:
			f.SetFloat(float64(*next) + 0.25)
		case reflect.String:
			if name == "SlowestPhase" {
				f.SetString(obsv.PhaseWire.String())
			} else {
				f.SetString(fmt.Sprintf("member-%d", *next))
			}
		default:
			t.Fatalf("metrics.Round field %s has kind %s, which fillDistinct cannot fill", name, f.Kind())
		}
	}
}

// TestObserveMessageRoundTrip: every field of the round record crosses the
// observe frame exactly, so a field that fails to ride it fails here.
func TestObserveMessageRoundTrip(t *testing.T) {
	var rec metrics.Round
	next := 0
	fillDistinct(t, reflect.ValueOf(&rec).Elem(), &next)
	if got := parseObserve(observeMessage(metrics.Round{}, nil, nil)).Record; got != (metrics.Round{}) {
		t.Fatalf("zero record round-trips as %+v", got)
	}
	alive := []cluster.Info{
		{ID: "a", Health: 1, HeartbeatRTT: 2 * time.Millisecond, Straggles: 0},
		{ID: "b", Health: 0.5, HeartbeatRTT: 7 * time.Millisecond, Straggles: 3},
	}
	ev := parseObserve(observeMessage(rec, alive, map[string]int{"b": 2}))
	if got := ev.Record; got != rec {
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
