package fed

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/testutil"
)

// startRelay launches a relay with its own listener and cohort of leaf
// clients (plain ServeClient sessions) and returns the relay's result
// channel.
func startRelay(t *testing.T, ctx context.Context, parentAddr, id string, clients []*Client, cfg RelayConfig) (<-chan *Result, <-chan error) {
	t.Helper()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range clients {
		go func(c *Client) {
			conn, err := link.Dial(l.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			_ = ServeClient(ctx, conn, c, tinySpec())
		}(c)
	}
	cfg.ID = id
	cfg.ExpectClients = len(clients)
	resCh := make(chan *Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := RunRelay(ctx, l, func(ctx context.Context) (*link.Conn, error) {
			return link.DialContext(ctx, parentAddr)
		}, cfg)
		l.Close()
		resCh <- res
		errCh <- err
	}()
	return resCh, errCh
}

// TestTwoTierMatchesFlatNetworked is the acceptance scenario: a real
// networked 2-tier federation (2 relays × 2 clients, FedAvg ηs=1, dense
// codecs) must land on the same global parameters as the flat 4-client
// federation to ≤1e-5 — the two-tier mean of equal cohorts IS the flat
// mean.
func TestTwoTierMatchesFlatNetworked(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := tinyCfg()
	// 2 rounds, as in TestTieredSimMatchesFlatSim: the flat fold follows
	// arrival order, and that summation-order rounding compounds through
	// further AdamW training. Over 2 rounds the worst arrival order lands at
	// ≈4.2e-6; a third round took it past 1e-5 in about 1 run in 16.
	const rounds = 2

	runFlat := func() []float32 {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		l, err := link.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		clients := makeClients(t, cfg, 4)
		for _, c := range clients {
			go func(c *Client) {
				conn, err := link.Dial(l.Addr())
				if err != nil {
					return
				}
				defer conn.Close()
				_ = ServeClient(ctx, conn, c, tinySpec())
			}(c)
		}
		res, err := Serve(ctx, l, ServerConfig{
			ModelConfig:   cfg,
			Seed:          21,
			Rounds:        rounds,
			ExpectClients: 4,
			Outer:         FedAvg{},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Global
	}

	runTiered := func() ([]float32, *metrics.History, []*metrics.History) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		l, err := link.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		clients := makeClients(t, cfg, 4)
		relayCfg := RelayConfig{ModelConfig: cfg, RoundDeadline: 60 * time.Second}
		resA, errA := startRelay(t, ctx, l.Addr(), "relay-a", clients[:2], relayCfg)
		resB, errB := startRelay(t, ctx, l.Addr(), "relay-b", clients[2:], relayCfg)

		res, err := Serve(ctx, l, ServerConfig{
			ModelConfig:   cfg,
			Seed:          21,
			Rounds:        rounds,
			ExpectClients: 2,
			Outer:         FedAvg{},
		})
		if err != nil {
			t.Fatal(err)
		}
		var relayHists []*metrics.History
		for i, ch := range []<-chan *Result{resA, resB} {
			r := <-ch
			relayHists = append(relayHists, r.History)
			if err := <-[]<-chan error{errA, errB}[i]; err != nil {
				t.Fatalf("relay %d: %v", i, err)
			}
		}
		return res.Global, res.History, relayHists
	}

	flat := runFlat()
	tiered, parentHist, relayHists := runTiered()
	if len(flat) != len(tiered) {
		t.Fatalf("param count mismatch: %d vs %d", len(flat), len(tiered))
	}
	maxDiff := 0.0
	for i := range flat {
		if d := math.Abs(float64(flat[i] - tiered[i])); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-5 {
		t.Fatalf("2-tier FedAvg(1.0) diverged from flat mean: max |Δ| = %v", maxDiff)
	}

	// Tier/Depth accounting: the parent saw relay members (Depth 2), the
	// relays report their own tier (Tier 1, Depth 1) and full cohorts.
	for _, r := range parentHist.Rounds {
		if r.Tier != 0 || r.Depth != 2 {
			t.Fatalf("parent round %d: Tier=%d Depth=%d, want 0/2", r.Round, r.Tier, r.Depth)
		}
		if r.Clients != 2 {
			t.Fatalf("parent round %d aggregated %d relays, want 2", r.Round, r.Clients)
		}
	}
	for i, h := range relayHists {
		if h.Len() != rounds {
			t.Fatalf("relay %d served %d rounds, want %d", i, h.Len(), rounds)
		}
		for _, r := range h.Rounds {
			if r.Tier != 1 || r.Depth != 1 {
				t.Fatalf("relay round %d: Tier=%d Depth=%d, want 1/1", r.Round, r.Tier, r.Depth)
			}
			if r.Clients != 2 {
				t.Fatalf("relay round %d aggregated %d clients, want 2", r.Round, r.Clients)
			}
		}
	}
}

// TestTieredSimMatchesFlatSim: the in-process two-tier simulation under
// FedAvg(ηs=1) must reproduce the flat run's global parameters (mean of
// equal group means == flat mean) while reporting parent-tier wire bytes
// and Depth 2.
func TestTieredSimMatchesFlatSim(t *testing.T) {
	// 2 rounds: summation-order rounding (mean-of-means vs flat mean
	// differs at ~1e-8/coordinate) amplifies chaotically through further
	// AdamW training, so long runs drift apart numerically even though the
	// aggregation semantics are identical.
	flatRes, err := Run(context.Background(), baseRun(t, func(c *RunConfig) { c.Rounds = 2 }))
	if err != nil {
		t.Fatal(err)
	}
	tieredCfg := baseRun(t, func(c *RunConfig) {
		c.Rounds = 2
		c.Tiers = 2
		c.Relays = 2
	})
	tieredRes, err := Run(context.Background(), tieredCfg)
	if err != nil {
		t.Fatal(err)
	}
	maxDiff := 0.0
	for i := range flatRes.Global {
		if d := math.Abs(float64(flatRes.Global[i] - tieredRes.Global[i])); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-5 {
		t.Fatalf("tiered sim diverged from flat: max |Δ| = %v", maxDiff)
	}
	for _, r := range tieredRes.History.Rounds {
		if r.Depth != 2 {
			t.Fatalf("tiered sim round %d reports Depth %d, want 2", r.Round, r.Depth)
		}
	}
	// A codec-less tiered run crosses dense codecs, so the parent link
	// carries relays×(model+mean) at 4 bytes an element.
	last := tieredRes.History.Rounds[len(tieredRes.History.Rounds)-1]
	paramBytes := int64(len(tieredRes.Global)) * 4
	if last.WireSentBytes != 2*paramBytes || last.WireRecvBytes != 2*paramBytes {
		t.Fatalf("parent-link estimate %d/%d bytes, want %d each",
			last.WireSentBytes, last.WireRecvBytes, 2*paramBytes)
	}
}

// TestTieredSimUpstreamCodecShrinksParentLink: with a topk upstream codec
// the simulated parent link must carry far fewer bytes than the leaf tier,
// and training must still converge (error feedback at the relay tier).
func TestTieredSimUpstreamCodecShrinksParentLink(t *testing.T) {
	res, err := Run(context.Background(), baseRun(t, func(c *RunConfig) {
		c.Tiers = 2
		c.Relays = 2
		c.Codec = "dense"
		c.UpstreamCodec = "topk:0.1"
		c.Rounds = 8
	}))
	if err != nil {
		t.Fatal(err)
	}
	paramBytes := int64(len(res.Global)) * 4
	for _, r := range res.History.Rounds {
		// Parent uplink: 2 relay means at ~10% density (8 bytes/kept pair)
		// must be well under one dense mean.
		if r.WireRecvBytes >= paramBytes {
			t.Fatalf("round %d parent uplink %d bytes, want < %d (topk should sparsify)",
				r.Round, r.WireRecvBytes, paramBytes)
		}
		if r.WireRecvBytes == 0 {
			t.Fatalf("round %d parent uplink accounted no bytes", r.Round)
		}
	}
	if !(res.History.FinalPPL() < 64) {
		t.Fatalf("tiered topk run did not learn: ppl %v", res.History.FinalPPL())
	}
}

// TestRelayForwardsCohortMean: a relay forwards its cohort's mean update
// (Algorithm 1 line 24) bit for bit as meanFold computes it; the outer step
// is the root's alone. The broadcast is large next to the updates, so a
// relay that stepped a copy of it and forwarded the difference would round
// most of the mean's bits away.
func TestRelayForwardsCohortMean(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cfg := tinyCfg()
	n := int(cfg.ParamCount())
	rng := rand.New(rand.NewSource(9))
	updates := make([][]float32, 2)
	var fold meanFold
	fold.reset(n)
	for i := range updates {
		updates[i] = make([]float32, n)
		for k := range updates[i] {
			updates[i][k] = float32(rng.NormFloat64()) * 1e-3
		}
		fold.add(updates[i], 1)
	}
	want := fold.mean()
	global := make([]float32, n)
	for k := range global {
		global[k] = 100 + float32(k%7)
	}

	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Two hand-rolled leaves answer every broadcast with their fixed update.
	var leaves sync.WaitGroup
	for i, u := range updates {
		leaves.Add(1)
		go func(id string, u []float32) {
			defer leaves.Done()
			conn, err := link.Dial(l.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			if _, err := Handshake(conn, id, ""); err != nil {
				return
			}
			for {
				msg, err := conn.Recv()
				if err != nil || msg.Type == link.MsgShutdown {
					return
				}
				switch msg.Type {
				case link.MsgHeartbeat:
					conn.Send(&link.Message{Type: link.MsgHeartbeat, Meta: msg.Meta})
				case link.MsgModel:
					conn.Send(&link.Message{Type: link.MsgUpdate, Round: msg.Round, ClientID: id,
						Meta: map[string]float64{"loss": 1}, Payload: link.Dense(u)})
				}
			}
		}(fmt.Sprintf("leaf%d", i), u)
	}
	parentEnd, memberEnd := link.Pipe()
	defer parentEnd.Close()
	done := make(chan error, 1)
	go func() {
		_, err := RunRelay(ctx, l, func(context.Context) (*link.Conn, error) { return memberEnd, nil },
			RelayConfig{ModelConfig: cfg, ID: "relay", ExpectClients: 2, Codec: "dense"})
		done <- err
	}()

	p := newTestParent(t, parentEnd, "dense", "relay")
	p.send(&link.Message{Type: link.MsgModel, Round: 1, Payload: link.Dense(global)})
	got, err := link.DecodePayload(nil, p.update(1).Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, want) {
		for k := range want {
			if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
				t.Errorf("elem %d: relay forwarded %x, the cohort mean is %x", k, math.Float32bits(got[k]), math.Float32bits(want[k]))
				break
			}
		}
	}
	p.send(&link.Message{Type: link.MsgShutdown})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	leaves.Wait()
}

// TestRelayEmptyCohortStragglesUpstream: a relay whose entire cohort
// vanishes must skip its upstream reply (the parent counts one straggler
// and aggregates the partial round) instead of forwarding a bogus update —
// and the parent run must still complete on the healthy relay.
func TestRelayEmptyCohortStragglesUpstream(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := tinyCfg()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	clients := makeClients(t, cfg, 3)
	healthy, errH := startRelay(t, ctx, l.Addr(), "relay-healthy", clients[:2], RelayConfig{
		ModelConfig: cfg, RoundDeadline: 60 * time.Second,
	})

	// The doomed relay's sole cohort member answers round 1 and vanishes
	// (its eviction empties the cohort); the cohort-tier deadline bounds
	// the rejoin grace, so every later round is an empty one.
	doomedClientDone := make(chan struct{})
	lDoomed, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lDoomed.Close()
	go func() {
		defer close(doomedClientDone)
		conn, err := link.Dial(lDoomed.Addr())
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := Handshake(conn, "mortal", ""); err != nil {
			return
		}
		c := clients[2]
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
				res, err := c.RunRound(ctx, global, 0, tinySpec())
				if err != nil {
					return
				}
				conn.Send(&link.Message{Type: link.MsgUpdate, Round: msg.Round,
					ClientID: "mortal", Meta: res.Metrics, Payload: link.Dense(res.Update)})
				return // vanish after one round
			}
		}
	}()
	var doomedRounds []metrics.Round
	doomedDone := make(chan error, 1)
	go func() {
		_, err := RunRelay(ctx, lDoomed, func(ctx context.Context) (*link.Conn, error) {
			return link.DialContext(ctx, l.Addr())
		}, RelayConfig{
			ModelConfig:   cfg,
			ID:            "relay-doomed",
			ExpectClients: 1,
			// Generous against race-detector slowdown: round 1 must finish
			// real training inside this window, and only the post-eviction
			// rounds may come up empty.
			RoundDeadline: 5 * time.Second,
			OnRound:       func(r metrics.Round) { doomedRounds = append(doomedRounds, r) },
		})
		doomedDone <- err
	}()

	var stragglers int
	res, err := Serve(ctx, l, ServerConfig{
		ModelConfig:   cfg,
		Seed:          33,
		Rounds:        2,
		ExpectClients: 2,
		RoundDeadline: 12 * time.Second,
		Outer:         FedAvg{},
		OnRound:       func(r metrics.Round) { stragglers += r.Stragglers },
	})
	if err != nil {
		t.Fatal(err)
	}
	<-healthy
	if err := <-errH; err != nil {
		t.Fatalf("healthy relay: %v", err)
	}
	if err := <-doomedDone; err != nil {
		t.Fatalf("doomed relay must survive an empty cohort, got: %v", err)
	}
	if res.History.Len() != 2 {
		t.Fatalf("parent completed %d rounds, want 2", res.History.Len())
	}
	// Round 1 has both relays; the later rounds aggregate only the healthy
	// one while the doomed relay straggles (not dies).
	if res.History.Rounds[0].Clients != 2 {
		t.Fatalf("round 1 aggregated %d relays, want 2", res.History.Rounds[0].Clients)
	}
	for _, r := range res.History.Rounds[1:] {
		if r.Clients != 1 {
			t.Fatalf("round %d aggregated %d relays, want the healthy one only", r.Round, r.Clients)
		}
	}
	if stragglers < 1 {
		t.Fatalf("parent counted %d stragglers, want one per empty round", stragglers)
	}
	// The doomed relay recorded empty rounds (0 clients) after round 1.
	if len(doomedRounds) < 2 {
		t.Fatalf("doomed relay recorded %d rounds", len(doomedRounds))
	}
	if doomedRounds[0].Clients != 1 {
		t.Fatalf("doomed relay round 1 aggregated %d, want 1", doomedRounds[0].Clients)
	}
	for _, r := range doomedRounds[1:] {
		if r.Clients != 0 {
			t.Fatalf("doomed relay round %d aggregated %d, want 0", r.Round, r.Clients)
		}
	}
	<-doomedClientDone
}
