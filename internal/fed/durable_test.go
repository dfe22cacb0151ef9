package fed

import (
	"math"
	"math/rand"
	"testing"

	"photon/internal/ckpt"
	"photon/internal/link"
)

// TestJournaledPayloadReplaysLikeVec: a member update journaled as the wire
// payload it arrived in (Record.Data) must replay to the same bits as folding
// the live decoded vectors directly — through a real log on disk, under
// every built-in codec. Sync and async journal the same records, so one
// replay covers both.
func TestJournaledPayloadReplaysLikeVec(t *testing.T) {
	const elems = 777
	members := []string{"silo-a", "silo-b", "silo-c"}
	for _, name := range []string{"dense", "flate", "q8", "topk:0.25"} {
		t.Run(name, func(t *testing.T) {
			session, err := link.NewCodec(name)
			if err != nil {
				t.Fatal(err)
			}
			s := &server{codec: session}
			rng := rand.New(rand.NewSource(7))
			payloads := make([]link.EncodedPayload, len(members))
			decoded := make([][]float32, len(members))
			for i := range members {
				v := make([]float32, elems)
				for k := range v {
					v[k] = float32(rng.NormFloat64()) * 0.02
				}
				enc, _ := link.NewCodec(name) // each member encodes with its own instance
				if payloads[i], err = link.EncodeVector(enc, v); err != nil {
					t.Fatal(err)
				}
				if decoded[i], err = decodeUpdate(s.codec, payloads[i], elems); err != nil {
					t.Fatal(err)
				}
			}
			want, err := MeanDelta(decoded)
			if err != nil {
				t.Fatal(err)
			}

			// Journal one open round.
			dir := t.TempDir()
			wal, _, err := ckpt.OpenWAL(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			j := &journal{wal}
			if err := j.roundOpen(3, members); err != nil {
				t.Fatal(err)
			}
			for i, id := range members {
				if err := j.memberUpdate(3, id, payloads[i]); err != nil {
					t.Fatal(err)
				}
			}
			j.close()
			reopened, rv, err := ckpt.OpenWAL(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			reopened.Close()

			res := replayWAL(rv)
			if res.open != 3 || len(res.pending) != len(members) {
				t.Fatalf("replay lost the open round: %+v", res)
			}
			var updates [][]float32
			for i, u := range res.pending {
				if u.member != members[i] || u.round != 3 || u.trained != 2 {
					t.Fatalf("arrival order %+v, want %v at round 3, trained on 2", res.pending, members)
				}
				vec, err := decodeUpdate(s.codec, u.payload, elems)
				if err != nil {
					t.Fatalf("%s: %v", u.member, err)
				}
				updates = append(updates, vec)
			}
			got, err := MeanDelta(updates)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
					t.Fatalf("elem %d: replay folds to %x, live decode to %x", k, math.Float32bits(got[k]), math.Float32bits(want[k]))
				}
			}

		})
	}
}

// TestUnreadableJournaledUpdateIsNotReplayed: a member_update record whose Data is not a payload — or that has no Data, only a decoded
// Vec — is dropped by replay (the member is re-asked); one that frames correctly but fails its codec survives replay
// and is refused by decodeUpdate, which the resuming aggregator treats the
// same way.
func TestUnreadableJournaledUpdateIsNotReplayed(t *testing.T) {
	topk, _ := link.NewCodec("topk")
	good, err := link.EncodeVector(topk, []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	torn := good
	torn.Data = good.Data[:len(good.Data)-3] // no longer a pair multiple
	rv := &ckpt.Recovery{Records: []ckpt.Record{
		{Type: ckpt.RecRoundOpen, Round: 1, IDs: []string{"a", "b", "c"}},
		{Type: ckpt.RecMemberUpdate, Round: 1, Member: "a", Data: []byte{1, 2, 3}},
		{Type: ckpt.RecMemberUpdate, Round: 1, Member: "b", Data: encodePayloadBytes(torn)},
		{Type: ckpt.RecMemberUpdate, Round: 1, Member: "c", Data: encodePayloadBytes(good)},
		{Type: ckpt.RecMemberUpdate, Round: 1, Member: "d", Vec: []float32{1, 2}},
		{Type: ckpt.RecMemberUpdate, Round: 9, Member: "a", Data: []byte{4}},
		{Type: ckpt.RecMemberUpdate, Round: 8, Member: "b", Vec: []float32{1, 2}},
	}}
	res := replayWAL(rv)
	updates := map[string]link.EncodedPayload{}
	for _, u := range res.pending {
		updates[u.member] = u.payload
	}
	// a (unframed Data) and d (a Vec and no Data) are both gone.
	if _, kept := updates["a"]; kept || len(res.pending) != 2 {
		t.Fatalf("unframed record replayed: pending %+v", res.pending)
	}
	s := &server{codec: topk}
	if _, err := decodeUpdate(s.codec, updates["b"], good.Elems); err == nil {
		t.Fatal("torn topk payload decoded")
	}
	if _, err := decodeUpdate(s.codec, updates["c"], good.Elems+1); err == nil {
		t.Fatal("payload for a different model size decoded")
	}
	if _, err := decodeUpdate(s.codec, updates["c"], good.Elems); err != nil {
		t.Fatal(err)
	}
}
