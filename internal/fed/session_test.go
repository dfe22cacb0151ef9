package fed

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"photon/internal/data"
	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/nn"
	"photon/internal/opt"
	"photon/internal/testutil"
)

// gatedStream is the instrument both rows of the session test share: every
// leaf draws its batches through it, so the count says exactly how much work
// a broadcast caused (none, for a redelivery), and arming the gate blocks
// the work mid-round — a leaf's training directly, a relay's cohort
// exchange through its leaves.
type gatedStream struct {
	data.Stream
	g *gate
}

type gate struct {
	mu      sync.Mutex
	batches int
	armed   bool
	entered chan struct{} // a batch was requested while the gate was armed
	release chan struct{}
}

func (g *gate) arm() {
	g.mu.Lock()
	g.armed, g.entered, g.release = true, make(chan struct{}, 16), make(chan struct{})
	g.mu.Unlock()
}

func (g *gate) open() {
	g.mu.Lock()
	g.armed = false
	close(g.release)
	g.mu.Unlock()
}

func (g *gate) drawn() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.batches
}

func (s gatedStream) NextBatch(batchSize, seqLen int) nn.Batch {
	s.g.mu.Lock()
	s.g.batches++
	armed, entered, release := s.g.armed, s.g.entered, s.g.release
	s.g.mu.Unlock()
	if armed {
		entered <- struct{}{}
		<-release
	}
	return s.Stream.NextBatch(batchSize, seqLen)
}

func gatedClient(id string, shard int, g *gate) *Client {
	cfg := tinyCfg()
	stream := gatedStream{Stream: data.NewShard(data.C4Like(cfg.VocabSize), shard, 7), g: g}
	return NewClient(id, cfg, stream, opt.NewAdamW(cfg.Beta1, cfg.Beta2, 0.01))
}

// testParent is the aggregator half of a member session, driven by hand
// over one end of a link.Pipe.
type testParent struct {
	t     *testing.T
	conn  *link.Conn
	model link.EncodedPayload
}

func newTestParent(t *testing.T, conn *link.Conn, codecName, wantID string) *testParent {
	t.Helper()
	codec, err := link.NewCodec(codecName)
	if err != nil {
		t.Fatal(err)
	}
	global := nn.NewModel(tinyCfg(), rand.New(rand.NewSource(3))).Params().Flatten(nil)
	model, err := link.EncodeVector(link.ModelCodec(codec), global)
	if err != nil {
		t.Fatal(err)
	}
	p := &testParent{t: t, conn: conn, model: model}
	p.send(&link.Message{
		Type:     link.MsgCodecAnnounce,
		ClientID: codecName,
		Meta:     map[string]float64{link.CodecIDKey: float64(link.CodecWireID(codecName))},
	})
	if join := p.recv(); join.Type != link.MsgJoin || join.ClientID != wantID {
		t.Fatalf("expected a join from %q, got type %d from %q", wantID, join.Type, join.ClientID)
	}
	return p
}

func (p *testParent) send(m *link.Message) {
	p.t.Helper()
	if err := p.conn.SendTimeout(m, time.Minute); err != nil {
		p.t.Fatalf("parent send: %v", err)
	}
}

func (p *testParent) recv() *link.Message {
	p.t.Helper()
	m, err := p.conn.RecvTimeout(time.Minute)
	if err != nil {
		p.t.Fatalf("parent recv: %v", err)
	}
	return m
}

func (p *testParent) broadcast(round int32, meta map[string]float64) {
	p.t.Helper()
	p.send(&link.Message{Type: link.MsgModel, Round: round, Meta: meta, Payload: p.model})
}

// update receives the next frame and requires it to be the update for round.
func (p *testParent) update(round int32) *link.Message {
	p.t.Helper()
	m := p.recv()
	if m.Type != link.MsgUpdate || m.Round != round {
		p.t.Fatalf("expected the update for round %d, got type %d round %d", round, m.Type, m.Round)
	}
	return m
}

// ping sends a heartbeat and requires its echo to be the next frame. The
// member's reader handles frames in order, so once the echo is back every
// frame sent before the ping has been routed.
func (p *testParent) ping(seq float64) {
	p.t.Helper()
	p.send(&link.Message{Type: link.MsgHeartbeat, Meta: map[string]float64{link.HeartbeatSentKey: seq}})
	if m := p.recv(); m.Type != link.MsgHeartbeat || m.Meta[link.HeartbeatSentKey] != seq {
		p.t.Fatalf("expected the echo of heartbeat %v, got type %d meta %v", seq, m.Type, m.Meta)
	}
}

func samePayload(a, b link.EncodedPayload) bool {
	return a.CodecID == b.CodecID && a.Elems == b.Elems && bytes.Equal(a.Data, b.Data)
}

// sessionRow starts one kind of member on the member end of the pipe.
type sessionRow struct {
	name     string
	id       string
	perRound int // batches one worked round draws across the row's leaves
	// start runs the member until the parent shuts it down; empty receives
	// each round record that aggregated no one, and emptyCohort, when
	// non-nil, takes the member's cohort away.
	start func(t *testing.T, ctx context.Context, member *link.Conn, g *gate, relayCfg RelayConfig, empty chan<- int) (done <-chan error, emptyCohort func())
}

func startLeaf(t *testing.T, ctx context.Context, member *link.Conn, g *gate, _ RelayConfig, _ chan<- int) (<-chan error, func()) {
	done := make(chan error, 1)
	go func() {
		s := &Session{Client: gatedClient("leaf", 0, g), Spec: tinySpec()}
		done <- s.ServeConn(ctx, member)
	}()
	return done, nil
}

func startRelayMember(t *testing.T, ctx context.Context, member *link.Conn, g *gate, cfg RelayConfig, empty chan<- int) (<-chan error, func()) {
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cohortCtx, dropCohort := context.WithCancel(ctx)
	var cohort sync.WaitGroup
	for i := 0; i < 2; i++ {
		cohort.Add(1)
		go func(i int) {
			defer cohort.Done()
			conn, err := link.Dial(l.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			_ = ServeClient(cohortCtx, conn, gatedClient(string(rune('a'+i)), i, g), tinySpec())
		}(i)
	}
	cfg.ModelConfig, cfg.ID, cfg.ExpectClients = tinyCfg(), "relay", 2
	cfg.RoundDeadline = 3 * time.Second // also the emptied cohort's rejoin grace
	cfg.OnRound = func(r metrics.Round) {
		if r.Clients == 0 {
			empty <- r.Round
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunRelay(ctx, l, func(context.Context) (*link.Conn, error) { return member, nil }, cfg)
		dropCohort()
		cohort.Wait()
		l.Close()
		done <- err
	}()
	return done, dropCohort
}

var sessionRows = []sessionRow{
	{name: "leaf", id: "leaf", perRound: 4, start: startLeaf},
	{name: "relay", id: "relay", perRound: 8, start: startRelayMember},
}

// TestMemberSession drives the one member-session loop through both of its
// work steps — a leaf that trains, a relay that collects a cohort — with the
// same script, over link.Pipe.
func TestMemberSession(t *testing.T) {
	for _, row := range sessionRows {
		t.Run(row.name, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			parentEnd, memberEnd := link.Pipe()
			defer parentEnd.Close()
			g := &gate{}
			empty := make(chan int, 4)
			done, emptyCohort := row.start(t, ctx, memberEnd, g, RelayConfig{}, empty)
			p := newTestParent(t, parentEnd, "dense", row.id)
			worked := func(rounds int) {
				t.Helper()
				if got := g.drawn(); got != rounds*row.perRound {
					t.Fatalf("leaves drew %d batches, want %d (%d worked rounds)", got, rounds*row.perRound, rounds)
				}
			}

			// A fresh round is worked and answered with the stamps echoed.
			p.broadcast(1, map[string]float64{link.TraceKey: 5})
			u1 := p.update(1)
			worked(1)
			if u1.Meta[link.TraceKey] != 5 || u1.Meta[link.PhaseTrainNsKey] <= 0 {
				t.Fatalf("fresh reply lacks trace echo or phase self-report: %v", u1.Meta)
			}

			// (a) A resumed re-broadcast of the cached round is answered with
			// the same bytes and no second call to work...
			p.broadcast(1, map[string]float64{link.ResumeKey: 1, link.TraceKey: 6})
			if c := p.update(1); !samePayload(c.Payload, u1.Payload) || c.Meta[link.TraceKey] != 6 {
				t.Fatalf("cached round redelivered differently: meta %v", c.Meta)
			}
			worked(1)
			// ...and so is an async dispatch re-sent after a lost reply: the
			// same version goes out under the same round (version + 1).
			p.broadcast(10, map[string]float64{link.ResumeKey: 1, link.VersionKey: 9})
			u2 := p.update(10)
			worked(2)
			p.broadcast(10, map[string]float64{link.ResumeKey: 1, link.VersionKey: 9})
			if c := p.update(10); !samePayload(c.Payload, u2.Payload) {
				t.Fatalf("re-sent async round redelivered differently: meta %v", c.Meta)
			}
			worked(2)

			// (b) A heartbeat sent while work is blocked is echoed before
			// work returns; (c) of two models queued meanwhile only the
			// newest is worked.
			g.arm()
			p.broadcast(20, nil)
			<-g.entered
			p.ping(1)
			p.broadcast(21, nil)
			p.broadcast(22, nil)
			p.ping(2)
			g.open()
			p.update(20)
			p.update(22)
			worked(4)

			// (d) Work that has nothing to reply (a relay whose cohort is
			// gone) sends nothing and keeps the session alive.
			if emptyCohort != nil {
				emptyCohort()
				p.broadcast(30, nil)
				if round := <-empty; round != 30 {
					t.Fatalf("empty record for round %d, want 30", round)
				}
				p.ping(3) // the next frame is the echo, not an update
				worked(4)
			}

			// (e) A redelivery echoes the round of the model the member holds,
			// the last it decoded: 22 for a leaf, 30 for a relay that decoded
			// round 30 and had no cohort to serve it.
			held := 22.0
			if emptyCohort != nil {
				held = 30
			}
			p.broadcast(22, map[string]float64{link.ResumeKey: 1})
			if u := p.update(22); u.Meta[link.HeldKey] != held {
				t.Fatalf("redelivery echoes held round %v, want %v", u.Meta[link.HeldKey], held)
			}

			p.send(&link.Message{Type: link.MsgShutdown})
			if err := <-done; err != nil {
				t.Fatalf("member ended with %v after a clean shutdown", err)
			}
		})
	}
}

// TestMemberRoundCommExcludesNextBroadcast: a member's per-round received
// bytes end where its model was taken. The parent sends round 2's model
// while round 1 is being worked, and the member's reader counts it before
// round 1's reply goes out; round 1 still reports exactly its own frame.
func TestMemberRoundCommExcludesNextBroadcast(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	parentEnd, memberEnd := link.Pipe()
	defer parentEnd.Close()
	g := &gate{}
	recs := make(chan metrics.Round, 2)
	done := make(chan error, 1)
	go func() {
		s := &Session{Client: gatedClient("leaf", 0, g), Spec: tinySpec()}
		done <- s.ServeConn(ctx, memberEnd, func(r metrics.Round) { recs <- r })
	}()
	p := newTestParent(t, parentEnd, "dense", "leaf")

	g.arm()
	sent := parentEnd.Stats().SentBytes
	p.broadcast(1, nil)
	frame1 := parentEnd.Stats().SentBytes - sent
	<-g.entered // round 1's model is taken and being worked
	p.broadcast(2, nil)
	p.ping(1) // the reader has counted round 2's frame
	g.open()
	p.update(1)
	p.update(2)
	r1, r2 := <-recs, <-recs
	if r1.Round != 1 || r2.Round != 2 {
		t.Fatalf("records for rounds %d, %d, want 1, 2", r1.Round, r2.Round)
	}
	if r1.WireRecvBytes != frame1 {
		t.Fatalf("round 1 received %d bytes, its model frame is %d: round 2's broadcast counted early",
			r1.WireRecvBytes, frame1)
	}
	if total := parentEnd.Stats().SentBytes - sent; r1.WireRecvBytes+r2.WireRecvBytes != total {
		t.Fatalf("rounds 1 and 2 received %d + %d bytes, the parent sent %d",
			r1.WireRecvBytes, r2.WireRecvBytes, total)
	}
	p.send(&link.Message{Type: link.MsgShutdown})
	if err := <-done; err != nil {
		t.Fatalf("member ended with %v after a clean shutdown", err)
	}
}

// TestRelayStaleRoundIsNotServed: a round at or below the last one served on
// this connection, re-sent without the resume stamp, is skipped before the
// relay touches its cohort.
func TestRelayStaleRoundIsNotServed(t *testing.T) {
	r := &relay{lastRound: 7}
	reply, err := r.serve(context.Background(), roundTask{msg: &link.Message{Type: link.MsgModel, Round: 7}})
	if reply != nil || err != nil {
		t.Fatalf("stale round served: reply %v, err %v", reply, err)
	}
}

// TestRelayRecoveredReplyAnswersResume: a restarted relay's WAL seeds the
// session's reply cache, so a resuming parent's re-broadcast of the last
// round gets the journaled bytes back and the cohort is not asked again —
// also when the log was compacted in between (8 commits) and holds only the
// carried records.
func TestRelayRecoveredReplyAnswersResume(t *testing.T) {
	for _, rounds := range []int32{compactEvery, compactEvery + 1} {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		cfg := RelayConfig{WALDir: t.TempDir()}
		empty := make(chan int, 1)

		parentEnd, memberEnd := link.Pipe()
		done, _ := startRelayMember(t, ctx, memberEnd, &gate{}, cfg, empty)
		p := newTestParent(t, parentEnd, "topk:0.5", "relay")
		var last *link.Message
		for r := int32(1); r <= rounds; r++ {
			p.broadcast(r, nil)
			last = p.update(r)
		}
		p.send(&link.Message{Type: link.MsgShutdown})
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		parentEnd.Close()

		parentEnd, memberEnd = link.Pipe()
		g := &gate{}
		done, _ = startRelayMember(t, ctx, memberEnd, g, cfg, empty)
		p = newTestParent(t, parentEnd, "topk:0.5", "relay")
		p.broadcast(rounds, map[string]float64{link.ResumeKey: 1})
		c := p.update(rounds)
		if !samePayload(c.Payload, last.Payload) || c.Meta[link.CohortKey] != 2 {
			t.Fatalf("%d rounds: recovered reply differs from the one sent (cohort stamp %v)", rounds, c.Meta[link.CohortKey])
		}
		if g.drawn() != 0 {
			t.Fatalf("%d rounds: cohort drew %d batches answering a redelivery", rounds, g.drawn())
		}
		p.send(&link.Message{Type: link.MsgShutdown})
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		parentEnd.Close()
		cancel()
	}
}
