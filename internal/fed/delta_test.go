package fed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/testutil"
)

// recordingOuter is FedAvg that keeps a copy of the model each round steps
// from: the model that round broadcast.
type recordingOuter struct {
	FedAvg
	mu   sync.Mutex
	sent map[int][]float32
}

func (o *recordingOuter) Step(global, delta []float32, round int) {
	o.mu.Lock()
	o.sent[round] = slices.Clone(global)
	o.mu.Unlock()
	o.FedAvg.Step(global, delta, round)
}

// tap records, per round, the model a member decoded and the codec its
// broadcast travelled in.
type tap struct {
	mu     sync.Mutex
	models map[int32][]float32
	codecs map[int32]uint8
}

func newTap() *tap { return &tap{models: map[int32][]float32{}, codecs: map[int32]uint8{}} }

func (tp *tap) codec(round int32) uint8 {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.codecs[round]
}

// serveTapped runs s as a leaf member of the aggregator at addr until it is
// shut down, recording every decoded broadcast in tp. fail, when non-nil,
// sees each round before it is worked; an error it returns ends the
// connection as a lost session, and the member reconnects.
func serveTapped(ctx context.Context, addr string, s *Session, tp *tap, fail func(round int32) error) error {
	s.m.id, s.m.name, s.m.want = s.Client.ID, "client "+s.Client.ID, s.Client.NumParams()
	train := s.train(nil)
	work := func(ctx context.Context, t roundTask) (*roundReply, error) {
		tp.mu.Lock()
		tp.models[t.msg.Round] = slices.Clone(t.global)
		tp.codecs[t.msg.Round] = t.msg.Payload.CodecID
		tp.mu.Unlock()
		if fail != nil {
			if err := fail(t.msg.Round); err != nil {
				return nil, err
			}
		}
		return train(ctx, t)
	}
	dial := func(ctx context.Context) (*link.Conn, error) { return link.DialContext(ctx, addr) }
	rc := ReconnectConfig{MaxAttempts: 5, InitialBackoff: 10 * time.Millisecond}
	return serveResilient(ctx, dial, s.Client.ID, rc, func(ctx context.Context, conn *link.Conn) error {
		return s.m.serveConn(ctx, conn, work)
	})
}

// startTapped starts one tapped member per session and returns their taps
// and a wait for all of them to end.
func startTapped(t *testing.T, ctx context.Context, addr string, sessions []*Session, fail func(id string, round int32) error) ([]*tap, func()) {
	taps := make([]*tap, len(sessions))
	errs := make(chan error, len(sessions))
	for i, s := range sessions {
		taps[i] = newTap()
		go func(s *Session, tp *tap) {
			var f func(int32) error
			if fail != nil {
				f = func(r int32) error { return fail(s.Client.ID, r) }
			}
			errs <- serveTapped(ctx, addr, s, tp, f)
		}(s, taps[i])
	}
	return taps, func() {
		t.Helper()
		for range sessions {
			if err := <-errs; err != nil {
				t.Errorf("member: %v", err)
			}
		}
	}
}

func sessionsFor(clients []*Client) []*Session {
	out := make([]*Session, len(clients))
	for i, c := range clients {
		out[i] = &Session{Client: c, Spec: tinySpec()}
	}
	return out
}

func sameBits(a, b []float32) bool {
	return len(a) == len(b) && slices.EqualFunc(a, b, func(x, y float32) bool {
		return math.Float32bits(x) == math.Float32bits(y)
	})
}

// checkChain requires every tapped member to have decoded, in every round
// from first to last, exactly the model the root broadcast, and every round
// after the first to have travelled as a delta.
func checkChain(t *testing.T, outer *recordingOuter, taps []*tap, first, last int32) {
	t.Helper()
	for i, tp := range taps {
		for r := first; r <= last; r++ {
			if !sameBits(tp.models[r], outer.sent[int(r)]) {
				t.Errorf("member %d round %d: decoded model is not the broadcast bit for bit", i, r)
			}
			if isDelta := tp.codecs[r] == link.CodecDelta; isDelta != (r > first) {
				t.Errorf("member %d round %d: codec id %d, want a delta: %v", i, r, tp.codecs[r], r > first)
			}
		}
	}
}

func checkDeltaCounts(t *testing.T, tier string, h *metrics.History, members int) {
	t.Helper()
	for i, r := range h.Rounds {
		if want := members * min(i, 1); r.DeltaBroadcasts != want {
			t.Errorf("%s round %d: %d delta broadcasts, want %d", tier, r.Round, r.DeltaBroadcasts, want)
		}
	}
}

// TestDeltaBroadcastChain: under topk:0.1 and FedAvg a round changes few
// coordinates, so from round 2 on every member is sent the model as a delta
// against the one it holds, flat and through a relay, and rebuilds the
// aggregator's broadcast bit for bit.
func TestDeltaBroadcastChain(t *testing.T) {
	const rounds = 5
	cfg := tinyCfg()
	for _, tiered := range []bool{false, true} {
		t.Run(map[bool]string{false: "flat", true: "relay"}[tiered], func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			l, err := link.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			addr, expect := l.Addr(), 2
			var relayRes <-chan *Result
			var relayErr <-chan error
			if tiered {
				rl, err := link.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer rl.Close()
				res, errs := make(chan *Result, 1), make(chan error, 1)
				relayRes, relayErr, addr, expect = res, errs, rl.Addr(), 1
				go func() {
					r, err := RunRelay(ctx, rl, func(ctx context.Context) (*link.Conn, error) {
						return link.DialContext(ctx, l.Addr())
					}, RelayConfig{ModelConfig: cfg, ID: "relay", ExpectClients: 2, Codec: "topk:0.1"})
					res <- r
					errs <- err
				}()
			}
			taps, wait := startTapped(t, ctx, addr, sessionsFor(makeClients(t, cfg, 2)), nil)
			outer := &recordingOuter{sent: map[int][]float32{}}
			res, err := Serve(ctx, l, ServerConfig{
				ModelConfig: cfg, Seed: 5, Rounds: rounds, ExpectClients: expect,
				Codec: "topk:0.1", Outer: outer,
			})
			if err != nil {
				t.Fatal(err)
			}
			wait()
			checkChain(t, outer, taps, 1, rounds)
			checkDeltaCounts(t, "root", res.History, expect)
			if tiered {
				if err := <-relayErr; err != nil {
					t.Fatal(err)
				}
				checkDeltaCounts(t, "relay", (<-relayRes).History, 2)
			}
		})
	}
}

// TestDeltaBroadcastFallbacks: a member the aggregator cannot know to hold
// the previous broadcast is sent the full frame and rejoins the delta chain
// the round after, and a round in which every coordinate changes is
// broadcast in full.
func TestDeltaBroadcastFallbacks(t *testing.T) {
	cfg := tinyCfg()
	serve := func(t *testing.T, ctx context.Context, sessions []*Session, sc ServerConfig, fail func(string, int32) error) ([]*tap, *Result) {
		t.Helper()
		l, err := link.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		taps, wait := startTapped(t, ctx, l.Addr(), sessions, fail)
		sc.ModelConfig, sc.Seed, sc.ExpectClients = cfg, 5, len(sessions)
		res, err := Serve(ctx, l, sc)
		if err != nil {
			t.Fatal(err)
		}
		wait()
		return taps, res
	}

	t.Run("reconnect", func(t *testing.T) {
		testutil.VerifyNoLeaks(t)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		sessions := sessionsFor(makeClients(t, cfg, 2))
		lost := sessions[1].Client.ID
		outer := &recordingOuter{sent: map[int][]float32{}}
		// The second member loses its connection in round 3, after decoding
		// that round's delta and before training; MinClients holds round 4
		// until it is back.
		taps, res := serve(t, ctx, sessions, ServerConfig{Rounds: 6, MinClients: 2, Codec: "topk:0.1", Outer: outer},
			func(id string, round int32) error {
				if id == lost && round == 3 {
					return fmt.Errorf("dropped in round 3: %w", ErrSessionLost)
				}
				return nil
			})
		checkChain(t, outer, taps[:1], 1, 6)
		checkChain(t, outer, taps[1:], 1, 2)
		checkChain(t, outer, taps[1:], 4, 6)
		if c := taps[1].codec(3); c != link.CodecDelta {
			t.Errorf("round 3 reached the dropped member as codec %d, want a delta", c)
		}
		if got := res.History.Rounds[3].DeltaBroadcasts; got != 1 {
			t.Errorf("round 4: %d delta broadcasts, want 1 (the reconnected member is sent the full frame)", got)
		}
	})

	t.Run("wal-resume", func(t *testing.T) {
		testutil.VerifyNoLeaks(t)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		sessions := sessionsFor(makeClients(t, cfg, 2))
		outer := &recordingOuter{sent: map[int][]float32{}}
		sc := ServerConfig{Rounds: 3, Codec: "topk:0.1", Outer: outer, WALDir: t.TempDir()}
		taps, _ := serve(t, ctx, sessions, sc, nil)
		checkChain(t, outer, taps, 1, 3)
		// The same members, still holding round 3's model, meet the
		// aggregator restarted on its journal: it holds no previous
		// broadcast, so round 4 goes out in full and round 5 as a delta.
		sc.Rounds = 5
		taps, res := serve(t, ctx, sessions, sc, nil)
		checkChain(t, outer, taps, 4, 5)
		if got := res.History.Rounds[0]; got.Round != 4 || got.DeltaBroadcasts != 0 {
			t.Errorf("first resumed round %d sent %d deltas, want round 4 and none", got.Round, got.DeltaBroadcasts)
		}
	})

	t.Run("dense-every-coordinate", func(t *testing.T) {
		testutil.VerifyNoLeaks(t)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		taps, res := serve(t, ctx, sessionsFor(makeClients(t, cfg, 2)), ServerConfig{Rounds: 3, Codec: "dense", Outer: FedAvg{}}, nil)
		for _, r := range res.History.Rounds {
			if r.DeltaBroadcasts != 0 {
				t.Errorf("round %d sent %d deltas though every coordinate changed", r.Round, r.DeltaBroadcasts)
			}
		}
		for i, tp := range taps {
			for r := int32(1); r <= 3; r++ {
				if c := tp.codec(r); c != link.CodecDense {
					t.Errorf("member %d round %d: codec id %d, want dense", i, r, c)
				}
			}
		}
	})
}

// TestDeltaRefusals drives a leaf's member session by hand: it echoes the
// round of the model it holds, also on a cached redelivery, applies a delta
// against that model, and refuses — without working the round — a delta
// against a round it does not hold or one whose rebuilt model fails its
// checksum, dropping its held model either way.
func TestDeltaRefusals(t *testing.T) {
	cases := []struct {
		name    string
		base    float64 // the delta's base round; the member holds round 10
		corrupt bool    // stamp a wrong checksum
	}{
		{name: "applied", base: 10},
		{name: "unheld-base", base: 9},
		{name: "checksum", base: 10, corrupt: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			parentEnd, memberEnd := link.Pipe()
			defer parentEnd.Close()
			g := &gate{}
			s := &Session{Client: gatedClient("leaf", 0, g), Spec: tinySpec()}
			done := make(chan error, 1)
			go func() { done <- s.ServeConn(ctx, memberEnd) }()
			p := newTestParent(t, parentEnd, "flate", "leaf")

			p.broadcast(10, map[string]float64{link.ResumeKey: 1, link.VersionKey: 9})
			if u := p.update(10); u.Meta[link.HeldKey] != 10 {
				t.Fatalf("fresh reply echoes held round %v, want 10", u.Meta[link.HeldKey])
			}
			// A cached redelivery of the same round decodes nothing: the
			// member still holds round 10's model.
			p.broadcast(10, map[string]float64{link.ResumeKey: 1, link.VersionKey: 9})
			if u := p.update(10); u.Meta[link.HeldKey] != 10 {
				t.Fatalf("cached reply echoes held round %v, want 10", u.Meta[link.HeldKey])
			}
			worked := g.drawn()

			held, err := link.DecodePayload(nil, p.model)
			if err != nil {
				t.Fatal(err)
			}
			next := slices.Clone(held)
			for i := 0; i < len(next); i += 9 {
				next[i] += 0.25
			}
			delta, ok, err := link.EncodeDelta(link.FlateCodec{}, slices.Clone(held), next, nil)
			if err != nil || !ok {
				t.Fatalf("delta not built: ok=%v err=%v", ok, err)
			}
			crc := float64(link.Checksum(next))
			if tc.corrupt {
				crc++
			}
			p.send(&link.Message{Type: link.MsgModel, Round: 12, Payload: delta,
				Meta: map[string]float64{link.BaseRoundKey: tc.base, link.ModelCRCKey: crc}})

			if tc.name == "applied" {
				if u := p.update(12); u.Meta[link.HeldKey] != 12 || !sameBits(s.m.held, next) {
					t.Fatalf("applied delta: held round %v, model rebuilt exactly: %v", u.Meta[link.HeldKey], sameBits(s.m.held, next))
				}
				p.send(&link.Message{Type: link.MsgShutdown})
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				return
			}
			err = <-done
			if !errors.Is(err, ErrBaseMismatch) || !errors.Is(err, ErrSessionLost) {
				t.Fatalf("refused delta ended the session with %v, want ErrBaseMismatch (a lost session)", err)
			}
			if g.drawn() != worked {
				t.Fatalf("a refused delta was worked: %d batches drawn after it", g.drawn()-worked)
			}
			if s.m.held != nil || s.m.heldRound != 0 {
				t.Fatalf("refused delta left round %d held", s.m.heldRound)
			}
		})
	}
}

// TestDeltaNeedsTheEcho: a member whose updates do not echo the round it
// holds is never sent a delta, while its cohort peer is.
func TestDeltaNeedsTheEcho(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := tinyCfg()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	taps, wait := startTapped(t, ctx, l.Addr(), sessionsFor(makeClients(t, cfg, 1)), nil)
	// The silent member answers every broadcast with a zero update and no
	// held_round, recording the codec each broadcast came in.
	silent := make(chan []uint8, 1)
	go func() {
		var codecs []uint8
		defer func() { silent <- codecs }()
		conn, err := link.Dial(l.Addr())
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := Handshake(conn, "silent", ""); err != nil {
			return
		}
		for {
			m, err := conn.Recv()
			if err != nil || m.Type == link.MsgShutdown {
				return
			}
			if m.Type == link.MsgModel {
				codecs = append(codecs, m.Payload.CodecID)
				upd := link.Dense(make([]float32, m.Payload.Elems))
				if conn.Send(&link.Message{Type: link.MsgUpdate, Round: m.Round, ClientID: "silent", Payload: upd}) != nil {
					return
				}
			}
		}
	}()
	if _, err := Serve(ctx, l, ServerConfig{ModelConfig: cfg, Seed: 5, Rounds: 3, ExpectClients: 2, Codec: "topk:0.1", Outer: FedAvg{}}); err != nil {
		t.Fatal(err)
	}
	wait()
	if codecs := <-silent; len(codecs) != 3 || slices.Contains(codecs, link.CodecDelta) {
		t.Fatalf("the silent member was sent codecs %v, want 3 full frames", codecs)
	}
	if c := taps[0].codec(3); c != link.CodecDelta {
		t.Fatalf("the echoing member's round 3 came as codec %d, want a delta", c)
	}
}
