package photon

// End-to-end tests for the elastic membership control plane: mid-run client
// death with eviction, late joins, automatic client reconnection, straggler
// handling under a round deadline, and the churn telemetry surfaced through
// Events() and the final Result.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"photon/internal/fed"
	"photon/internal/link"
	"photon/internal/metrics"
)

// TestElasticChurnEndToEnd is the acceptance scenario: three clients join a
// networked aggregator with heartbeats and a round deadline; one is killed
// mid-round and a fourth joins late. The run must still complete all
// rounds, and the eviction and the late join must be visible in Events()
// and in the final Result.
func TestElasticChurnEndToEnd(t *testing.T) {
	const rounds = 5
	job := NewJob(
		WithBackend(BackendAggregator),
		WithAddr("127.0.0.1:0"),
		WithExpectClients(3),
		WithMinClients(1),
		WithRounds(rounds),
		WithHeartbeat(200*time.Millisecond),
		WithRoundDeadline(30*time.Second),
		WithSeed(31),
	)

	type summary struct {
		events     int
		joins      int
		evictions  int
		stragglers int
	}
	sumCh := make(chan summary, 1)
	go func() {
		var s summary
		for ev := range job.Events() {
			s.events++
			s.joins += ev.Joins
			s.evictions += ev.Evictions
			s.stragglers += ev.Stragglers
		}
		sumCh <- s
	}()

	resCh := make(chan *Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := job.Run(context.Background())
		resCh <- res
		errCh <- err
	}()

	// The job binds an ephemeral port; wait for it.
	var addr string
	for i := 0; i < 500 && addr == ""; i++ {
		addr = job.Addr()
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("aggregator never bound its listener")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Two healthy clients that serve the whole run.
	for i := 0; i < 2; i++ {
		go func(i int) {
			conn, err := link.Dial(addr)
			if err != nil {
				t.Errorf("client %d dial: %v", i, err)
				return
			}
			defer conn.Close()
			_ = fed.ServeClient(ctx, conn, netClient(t, string(rune('a'+i)), i), netSpec())
		}(i)
	}

	// The victim: answers round 1, then its process "dies" (connection
	// closed without a goodbye, mid-membership).
	victimDead := make(chan struct{})
	go func() {
		defer close(victimDead)
		conn, err := link.Dial(addr)
		if err != nil {
			t.Errorf("victim dial: %v", err)
			return
		}
		defer conn.Close()
		if _, err := fed.Handshake(conn, "victim", ""); err != nil {
			return
		}
		c := netClient(t, "victim", 5)
		for {
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			switch msg.Type {
			case link.MsgHeartbeat:
				conn.Send(&link.Message{Type: link.MsgHeartbeat, Meta: msg.Meta})
			case link.MsgModel:
				global, err := link.DecodePayload(nil, msg.Payload)
				if err != nil {
					return
				}
				res, err := c.RunRound(ctx, global, 0, netSpec())
				if err != nil {
					return
				}
				conn.Send(&link.Message{Type: link.MsgUpdate, Round: msg.Round,
					ClientID: "victim", Meta: res.Metrics, Payload: link.Dense(res.Update)})
				return // vanish after the first served round
			}
		}
	}()

	// The late joiner: shows up only after the victim is gone.
	<-victimDead
	lateDone := make(chan error, 1)
	go func() {
		conn, err := link.Dial(addr)
		if err != nil {
			lateDone <- err
			return
		}
		defer conn.Close()
		lateDone <- fed.ServeClient(ctx, conn, netClient(t, "late", 7), netSpec())
	}()

	res := <-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	s := <-sumCh

	if len(res.Stats) != rounds {
		t.Fatalf("run did not complete: %d/%d rounds", len(res.Stats), rounds)
	}
	// Churn visibility: 3 initial joins + 1 late join, 1 eviction — in the
	// event stream and in the final result.
	if s.joins != 4 {
		t.Fatalf("events joins = %d, want 4 (3 initial + 1 late)", s.joins)
	}
	if s.evictions != 1 {
		t.Fatalf("events evictions = %d, want 1", s.evictions)
	}
	if res.Joins != 4 || res.Evictions != 1 {
		t.Fatalf("result churn totals = %d joins / %d evictions, want 4/1", res.Joins, res.Evictions)
	}
	if s.events != rounds {
		t.Fatalf("events = %d, want %d", s.events, rounds)
	}
	// Every round must have aggregated at least the two healthy clients.
	for _, st := range res.Stats {
		if st.Clients < 2 {
			t.Fatalf("round %d aggregated only %d clients", st.Round, st.Clients)
		}
	}
	// The late joiner must actually have been sampled: with full
	// participation it serves every remaining round until shutdown.
	if err := <-lateDone; err != nil {
		t.Fatalf("late joiner session: %v", err)
	}
	last := res.Stats[rounds-1]
	if last.Clients != 3 {
		t.Fatalf("final round aggregated %d clients, want 3 (2 survivors + late joiner)", last.Clients)
	}
}

// TestStrayConnectionCannotHoldMembershipSlot covers the join-handshake
// fix: connections that never complete MsgJoin — one that disconnects
// immediately and one that sits silent — must neither count toward the
// expected cohort nor delay the genuine joiners, whose handshakes proceed
// concurrently.
func TestStrayConnectionCannotHoldMembershipSlot(t *testing.T) {
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Stray #1: connects and immediately disconnects, before any MsgJoin.
	if c, err := link.Dial(l.Addr()); err == nil {
		c.Close()
	}
	// Stray #2: connects and sits silent for the whole test.
	silent, err := link.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	// Two genuine clients join after the strays.
	for i := 0; i < 2; i++ {
		go func(i int) {
			conn, err := link.Dial(l.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			_ = fed.ServeClient(ctx, conn, netClient(t, string(rune('a'+i)), i), netSpec())
		}(i)
	}

	start := time.Now()
	res, err := fed.Serve(context.Background(), l, fed.ServerConfig{
		ModelConfig:   tinyNetCfg(),
		Seed:          47,
		Rounds:        2,
		ExpectClients: 2,
		Outer:         fed.FedAvg{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The silent stray's handshake window is 10s; genuine joins must not
	// have been serialized behind it.
	if waited := time.Since(start); waited > 8*time.Second {
		t.Fatalf("strays delayed the run: took %v", waited)
	}
	for _, r := range res.History.Rounds {
		if r.Clients != 2 {
			t.Fatalf("round %d aggregated %d clients, want exactly the 2 genuine joiners", r.Round, r.Clients)
		}
	}
}

// TestNoProgressRunStopsWithPartialResult: when every round aggregates
// zero updates (the sole member straggles forever), the server must stop
// after a bounded number of empty rounds instead of silently "completing",
// and the error must still carry the partial history.
func TestNoProgressRunStopsWithPartialResult(t *testing.T) {
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// One member that joins and answers heartbeats but never updates.
	go func() {
		conn, err := link.Dial(l.Addr())
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := fed.Handshake(conn, "sloth", ""); err != nil {
			return
		}
		for {
			msg, err := conn.Recv()
			if err != nil || msg.Type == link.MsgShutdown {
				return
			}
			if msg.Type == link.MsgHeartbeat {
				conn.Send(&link.Message{Type: link.MsgHeartbeat, Meta: msg.Meta})
			}
		}
	}()

	res, err := fed.Serve(context.Background(), l, fed.ServerConfig{
		ModelConfig:       tinyNetCfg(),
		Seed:              51,
		Rounds:            50,
		ExpectClients:     1,
		HeartbeatInterval: 100 * time.Millisecond,
		RoundDeadline:     300 * time.Millisecond,
		Outer:             fed.FedAvg{},
	})
	if err == nil {
		t.Fatal("no-progress run reported success")
	}
	if res == nil {
		t.Fatal("no-progress error discarded the partial result")
	}
	if got := res.History.Len(); got != 3 {
		t.Fatalf("recorded %d empty rounds before stopping, want 3", got)
	}
	for _, r := range res.History.Rounds {
		if r.Clients != 0 {
			t.Fatalf("round %d claims %d clients with no updates", r.Round, r.Clients)
		}
	}
}

// TestClientReconnectsAfterConnectionLoss kills a client's TCP connection
// mid-run (without killing the client) and verifies RunResilientClient
// redials, rejoins under the same identity, and finishes the session
// cleanly, with the rejoin visible as a round join event.
func TestClientReconnectsAfterConnectionLoss(t *testing.T) {
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// A healthy companion so the run survives while the flaky client is
	// reconnecting.
	go func() {
		conn, err := link.Dial(l.Addr())
		if err != nil {
			return
		}
		defer conn.Close()
		_ = fed.ServeClient(ctx, conn, netClient(t, "steady", 0), netSpec())
	}()

	// The flaky client: its first connection is wrapped so we can yank it
	// after one served round; the resilient wrapper must redial and rejoin.
	var dials atomic.Int32
	var firstConn atomic.Pointer[link.Conn]
	dial := func(ctx context.Context) (*link.Conn, error) {
		conn, err := link.DialContext(ctx, l.Addr())
		if err == nil && dials.Add(1) == 1 {
			firstConn.Store(conn)
		}
		return conn, err
	}
	rounds := make(chan int, 64)
	clientDone := make(chan error, 1)
	go func() {
		clientDone <- fed.RunResilientClient(ctx, dial, netClient(t, "flaky", 1), netSpec(),
			fed.ReconnectConfig{MaxAttempts: 10, InitialBackoff: 50 * time.Millisecond},
			func(r metrics.Round) { rounds <- r.Round })
	}()

	// Yank the flaky client's first connection after it served a round.
	go func() {
		<-rounds
		if c := firstConn.Load(); c != nil {
			c.Close()
		}
	}()

	// MinClients 2 makes the reconnect deterministic: after the flaky
	// client is evicted, rounds wait for it to rejoin instead of racing
	// ahead with the survivor and finishing before the backoff elapses.
	var joins, evictions int
	res, err := fed.Serve(context.Background(), l, fed.ServerConfig{
		ModelConfig:   tinyNetCfg(),
		Seed:          41,
		Rounds:        6,
		ExpectClients: 2,
		MinClients:    2,
		RoundDeadline: 30 * time.Second,
		Outer:         fed.FedAvg{},
		OnRound: func(r metrics.Round) {
			joins += r.Joins
			evictions += r.Evictions
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.History.Len() != 6 {
		t.Fatalf("rounds completed = %d", res.History.Len())
	}
	if err := <-clientDone; err != nil {
		t.Fatalf("resilient client: %v", err)
	}
	if got := dials.Load(); got < 2 {
		t.Fatalf("client dialed %d times, want a reconnect", got)
	}
	// 2 initial joins + ≥1 rejoin; the yanked connection is one eviction.
	if joins < 3 || evictions < 1 {
		t.Fatalf("churn: joins=%d evictions=%d, want ≥3 joins and ≥1 eviction", joins, evictions)
	}
	// After reconnecting, the flaky client must have served later rounds.
	maxRound := 0
	for {
		select {
		case r := <-rounds:
			if r > maxRound {
				maxRound = r
			}
			continue
		default:
		}
		break
	}
	if maxRound < 3 {
		t.Fatalf("flaky client never served a post-reconnect round (max round %d)", maxRound)
	}
}

// TestRelayCrashCohortReconnects is the relay fault-tolerance scenario:
// a relay is killed mid-run (its parent connection yanked, no goodbye), its
// cohort's resilient clients must treat the loss as a transport failure and
// redial, the parent must aggregate the partial rounds from the surviving
// relay in the meantime, and a restarted relay under the same identity must
// reassemble the cohort, rejoin the parent, and finish the run.
func TestRelayCrashCohortReconnects(t *testing.T) {
	cfg := tinyNetCfg()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	parentL, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer parentL.Close()

	// Healthy relay A with two plain cohort clients.
	aL, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer aL.Close()
	for i := 0; i < 2; i++ {
		go func(i int) {
			conn, err := link.Dial(aL.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			_ = fed.ServeClient(ctx, conn, netClient(t, string(rune('a'+i)), i), netSpec())
		}(i)
	}
	relayADone := make(chan error, 1)
	go func() {
		_, err := fed.RunRelay(ctx, aL, func(ctx context.Context) (*link.Conn, error) {
			return link.DialContext(ctx, parentL.Addr())
		}, fed.RelayConfig{
			ModelConfig:   cfg,
			ID:            "relay-a",
			ExpectClients: 2,
			RoundDeadline: 30 * time.Second,
		})
		relayADone <- err
	}()

	// Victim relay B: its parent connection is captured so the test can
	// kill it mid-run; its cohort clients are resilient and must survive
	// the crash by reconnecting to the restarted relay.
	bL, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bAddr := bL.Addr()
	for i := 0; i < 2; i++ {
		go func(i int) {
			err := fed.RunResilientClient(ctx, func(ctx context.Context) (*link.Conn, error) {
				return link.DialContext(ctx, bAddr)
			}, netClient(t, string(rune('c'+i)), 2+i), netSpec(), fed.ReconnectConfig{
				MaxAttempts:    40,
				InitialBackoff: 50 * time.Millisecond,
				MaxBackoff:     500 * time.Millisecond,
			})
			if err != nil {
				t.Errorf("resilient cohort client %d: %v", i, err)
			}
		}(i)
	}
	var bParentConn atomic.Pointer[link.Conn]
	bRounds := make(chan int, 64)
	bCrashed := make(chan error, 1)
	go func() {
		_, err := fed.RunRelay(ctx, bL, func(ctx context.Context) (*link.Conn, error) {
			conn, err := link.DialContext(ctx, parentL.Addr())
			if err == nil {
				bParentConn.Store(conn)
			}
			return conn, err
		}, fed.RelayConfig{
			ModelConfig:   cfg,
			ID:            "relay-b",
			ExpectClients: 2,
			RoundDeadline: 30 * time.Second,
			OnRound:       func(r metrics.Round) { bRounds <- r.Round },
		})
		bCrashed <- err
	}()

	// The parent's synchronous OnRound hook feeds an unbuffered channel,
	// so the round loop cannot race ahead of the test's choreography: each
	// round completes only when the test consumes its record.
	const rounds = 12
	parentRounds := make(chan metrics.Round)
	errCh := make(chan error, 1)
	resCh := make(chan *fed.Result, 1)
	go func() {
		res, err := fed.Serve(context.Background(), parentL, fed.ServerConfig{
			ModelConfig:   cfg,
			Seed:          61,
			Rounds:        rounds,
			ExpectClients: 2,
			MinClients:    1,
			RoundDeadline: 15 * time.Second,
			Outer:         fed.FedAvg{},
			OnRound:       func(r metrics.Round) { parentRounds <- r },
		})
		resCh <- res
		errCh <- err
	}()

	// Round 1 must aggregate both relays.
	r1 := <-parentRounds
	if r1.Clients != 2 {
		t.Fatalf("round 1 aggregated %d relays, want 2", r1.Clients)
	}
	if r1.Depth != 2 {
		t.Fatalf("round 1 Depth=%d, want 2", r1.Depth)
	}

	// Kill relay B mid-run: yank its parent connection without a goodbye.
	<-bRounds
	if c := bParentConn.Load(); c != nil {
		c.Close()
	}
	crashErr := <-bCrashed
	if crashErr == nil || !errors.Is(crashErr, fed.ErrSessionLost) {
		t.Fatalf("relay B did not die with a session-lost error: %v", crashErr)
	}
	bL.Close()

	// The parent must aggregate the partial round(s) from relay A alone.
	// The crash lands no later than round 3: round 2 may still have been
	// mid-flight when the connection died.
	round := 1
	sawPartial := false
	for !sawPartial {
		r := <-parentRounds
		round++
		if round > 3 {
			t.Fatalf("no partial round by round %d", round)
		}
		if r.Clients == 1 {
			sawPartial = true
		}
	}

	// Restart the relay on the same address under the same identity: the
	// resilient cohort clients reconnect to it and it rejoins the parent
	// mid-run.
	bL2, err := link.Listen(bAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer bL2.Close()
	restartDone := make(chan error, 1)
	go func() {
		_, err := fed.RunRelay(ctx, bL2, func(ctx context.Context) (*link.Conn, error) {
			return link.DialContext(ctx, parentL.Addr())
		}, fed.RelayConfig{
			ModelConfig:   cfg,
			ID:            "relay-b",
			ExpectClients: 2,
			RoundDeadline: 30 * time.Second,
		})
		restartDone <- err
	}()

	// Drain the remaining rounds with a little spacing so the cohort
	// reassembly and parent rejoin land between rounds; the tail of the
	// run must be full two-relay rounds again.
	fullAfterRestart := 0
	var last metrics.Round
	for round < rounds {
		time.Sleep(150 * time.Millisecond)
		last = <-parentRounds
		round++
		if last.Clients == 2 {
			fullAfterRestart++
		}
	}
	res := <-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if res.History.Len() != rounds {
		t.Fatalf("parent completed %d rounds, want %d", res.History.Len(), rounds)
	}
	if err := <-restartDone; err != nil {
		t.Fatalf("restarted relay: %v", err)
	}
	if err := <-relayADone; err != nil {
		t.Fatalf("healthy relay: %v", err)
	}
	if fullAfterRestart < 1 {
		t.Fatal("the restarted relay never contributed a full round")
	}
	if last.Clients != 2 {
		t.Fatalf("final round aggregated %d relays, want both", last.Clients)
	}
	// Depth telemetry survives churn: once relays identified themselves in
	// round 1, even partial (and would-be empty) rounds stay Depth 2.
	for _, r := range res.History.Rounds {
		if r.Depth != 2 {
			t.Fatalf("round %d Depth=%d, want 2", r.Round, r.Depth)
		}
	}
}

// TestRoundDeadlineDropsStraggler verifies the straggler policy: a cohort
// member that never answers within the round deadline is dropped from the
// round (counted as a straggler) while the round aggregates the survivors,
// and the run completes instead of blocking forever.
func TestRoundDeadlineDropsStraggler(t *testing.T) {
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	for i := 0; i < 2; i++ {
		go func(i int) {
			conn, err := link.Dial(l.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			_ = fed.ServeClient(ctx, conn, netClient(t, string(rune('a'+i)), i), netSpec())
		}(i)
	}
	// The straggler joins, answers heartbeats, but never returns updates.
	go func() {
		conn, err := link.Dial(l.Addr())
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := fed.Handshake(conn, "sloth", ""); err != nil {
			return
		}
		for {
			msg, err := conn.Recv()
			if err != nil || msg.Type == link.MsgShutdown {
				return
			}
			if msg.Type == link.MsgHeartbeat {
				conn.Send(&link.Message{Type: link.MsgHeartbeat, Meta: msg.Meta})
			}
			// MsgModel: swallow it and never reply.
		}
	}()

	var stragglers int
	res, err := fed.Serve(context.Background(), l, fed.ServerConfig{
		ModelConfig:       tinyNetCfg(),
		Seed:              43,
		Rounds:            3,
		ExpectClients:     3,
		HeartbeatInterval: 100 * time.Millisecond,
		RoundDeadline:     2 * time.Second,
		Outer:             fed.FedAvg{},
		OnRound:           func(r metrics.Round) { stragglers += r.Stragglers },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.History.Len() != 3 {
		t.Fatalf("rounds completed = %d", res.History.Len())
	}
	if stragglers < 3 {
		t.Fatalf("stragglers = %d, want one per round", stragglers)
	}
	for _, r := range res.History.Rounds {
		if r.Clients != 2 {
			t.Fatalf("round %d aggregated %d clients, want the 2 responsive ones", r.Round, r.Clients)
		}
		if r.UpdateNorm == 0 {
			t.Fatalf("round %d produced no aggregate update", r.Round)
		}
	}
}
