package photon

// End-to-end test for the fleet observability layer: a real two-tier TCP
// federation with MsgObserve subscribers attached at every aggregation
// node, plus the process-wide /metrics + /healthz scrape listener. It pins
// the three contracts the layer exists for: phase breakdowns account for
// round wall time, relay phase spans attribute to the root round's trace
// ID across the tier boundary, and the scrape endpoints serve an advancing
// round counter while the fleet trains.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"photon/internal/fed"
	"photon/internal/link"
	"photon/internal/obsv"
)

// observeFeed collects every ObserveEvent one aggregator publishes, until
// the aggregator shuts the subscription down.
type observeFeed struct {
	mu     sync.Mutex
	events []fed.ObserveEvent
	done   chan struct{}
	err    error
}

// attachObserver subscribes to the aggregator at addr and drains its event
// stream in the background.
func attachObserver(t *testing.T, addr string) *observeFeed {
	t.Helper()
	conn, err := link.DialContext(context.Background(), addr)
	if err != nil {
		t.Fatalf("observer dial %s: %v", addr, err)
	}
	f := &observeFeed{done: make(chan struct{})}
	go func() {
		defer close(f.done)
		f.err = fed.Observe(context.Background(), conn, func(ev fed.ObserveEvent) {
			f.mu.Lock()
			f.events = append(f.events, ev)
			f.mu.Unlock()
		})
	}()
	return f
}

// wait blocks until the aggregator ends the subscription and returns the
// collected events.
func (f *observeFeed) wait(t *testing.T, name string) []fed.ObserveEvent {
	t.Helper()
	select {
	case <-f.done:
	case <-time.After(120 * time.Second):
		t.Fatalf("%s observer never saw the fleet shut down", name)
	}
	if f.err != nil {
		t.Fatalf("%s observer: %v", name, f.err)
	}
	return f.events
}

// scrapeMetric fetches /metrics from base and returns the named sample.
func scrapeMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s not in scrape:\n%s", name, body)
	return 0
}

func TestObservabilityTwoTier(t *testing.T) {
	const rounds = 3

	// The scrape listener serves the process-wide registry every in-process
	// job (parent, relays, leaves) feeds through emit.
	ms, err := obsv.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	health := obsv.NewHealthTracker("test-root", 0)
	ms.SetHealth(health.Get)
	base := "http://" + ms.Addr()

	parent := NewJob(
		WithBackend(BackendAggregator),
		WithAddr("127.0.0.1:0"),
		WithExpectClients(2),
		WithRounds(rounds),
		WithCodec("dense"),
		WithRoundDeadline(60*time.Second),
		WithSeed(71),
	)
	parentRes := make(chan *Result, 1)
	parentErr := make(chan error, 1)
	go func() {
		res, err := parent.Run(context.Background())
		parentRes <- res
		parentErr <- err
	}()
	parentAddr := waitAddr(t, parent)

	// Attach the root observer before any relay joins, so it sees round 1;
	// drive /healthz from the parent's own event stream meanwhile.
	rootFeed := attachObserver(t, parentAddr)
	firstEvent := make(chan struct{})
	healthDone := make(chan struct{})
	go func() {
		defer close(healthDone)
		first := true
		for ev := range parent.Events() {
			health.Observe(ev.Round, ev.Clients)
			if first {
				first = false
				close(firstEvent)
			}
		}
	}()

	relayFeeds := make([]*observeFeed, 2)
	relayRes := make([]chan *Result, 2)
	relayErr := make([]chan error, 2)
	var leafWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		relay := NewJob(
			WithBackend(BackendAggregator),
			WithAddr("127.0.0.1:0"),
			WithParent(parentAddr),
			WithClientID([]string{"relay-west", "relay-east"}[r]),
			WithExpectClients(2),
			WithCodec("dense"),
			WithRoundDeadline(60*time.Second),
			WithSeed(int64(100+r)),
		)
		relayRes[r] = make(chan *Result, 1)
		relayErr[r] = make(chan error, 1)
		go func(r int, relay *Job) {
			res, err := relay.Run(context.Background())
			relayRes[r] <- res
			relayErr[r] <- err
		}(r, relay)
		relayAddr := waitAddr(t, relay)
		relayFeeds[r] = attachObserver(t, relayAddr)
		for c := 0; c < 2; c++ {
			leafWG.Add(1)
			go func(r, c int) {
				defer leafWG.Done()
				_, err := NewJob(
					WithBackend(BackendClient),
					WithAddr(relayAddr),
					WithClientID(string(rune('a'+2*r+c))),
					WithShard(2*r+c),
				).Run(context.Background())
				if err != nil {
					t.Errorf("leaf %d/%d: %v", r, c, err)
				}
			}(r, c)
		}
	}

	// (c) part 1: scrape mid-run, as soon as the first round lands.
	select {
	case <-firstEvent:
	case <-time.After(120 * time.Second):
		t.Fatal("no parent round event within 120s")
	}
	midRounds := scrapeMetric(t, base, "photon_rounds_total")
	if midRounds < 1 {
		t.Fatalf("mid-run photon_rounds_total = %v, want >= 1", midRounds)
	}

	res := <-parentRes
	if err := <-parentErr; err != nil {
		t.Fatalf("parent: %v", err)
	}
	for r := 0; r < 2; r++ {
		<-relayRes[r]
		if err := <-relayErr[r]; err != nil {
			t.Fatalf("relay %d: %v", r, err)
		}
	}
	leafWG.Wait()
	<-healthDone

	rootEvents := rootFeed.wait(t, "root")
	if len(rootEvents) != rounds {
		t.Fatalf("root observer saw %d rounds, want %d", len(rootEvents), rounds)
	}

	// (a) The phase breakdown must account for the measured round wall time:
	// sum within 20% of WallMs (plus a small absolute floor for very short
	// rounds on a noisy host).
	rootTrace := map[int]uint64{}
	for _, ev := range rootEvents {
		rec := ev.Record
		if rec.TraceID == 0 {
			t.Fatalf("root round %d has no trace ID", rec.Round)
		}
		rootTrace[rec.Round] = rec.TraceID
		sum := phaseSumMs(rec.Phases)
		if rec.WallMs <= 0 || sum <= 0 {
			t.Fatalf("root round %d: wall=%.2fms phase sum=%.2fms, want both > 0", rec.Round, rec.WallMs, sum)
		}
		if tol := 0.20*rec.WallMs + 10; math.Abs(sum-rec.WallMs) > tol {
			t.Fatalf("root round %d: phase sum %.1fms vs wall %.1fms (tolerance %.1fms)\nphases: %+v",
				rec.Round, sum, rec.WallMs, tol, rec.Phases)
		}
		if rec.SlowestID == "" {
			t.Fatalf("root round %d: no straggler attribution", rec.Round)
		}
		if len(ev.Members) != 2 {
			t.Fatalf("root round %d: %d member-health entries, want 2 relays", rec.Round, len(ev.Members))
		}
	}

	// (b) Relay rounds must attribute to the root round's trace ID — one
	// distributed trace across the tier boundary.
	for r, feed := range relayFeeds {
		events := feed.wait(t, fmt.Sprintf("relay %d", r))
		if len(events) != rounds {
			t.Fatalf("relay %d observer saw %d rounds, want %d", r, len(events), rounds)
		}
		for _, ev := range events {
			rec := ev.Record
			want, ok := rootTrace[rec.Round]
			if !ok {
				t.Fatalf("relay %d observed round %d the root never ran", r, rec.Round)
			}
			if rec.TraceID != want {
				t.Fatalf("relay %d round %d: trace %x, root minted %x", r, rec.Round, rec.TraceID, want)
			}
			if rec.Tier != 1 {
				t.Fatalf("relay %d round %d: tier %d, want 1", r, rec.Round, rec.Tier)
			}
			if sum := phaseSumMs(rec.Phases); sum <= 0 {
				t.Fatalf("relay %d round %d: empty phase breakdown", r, rec.Round)
			}
		}
	}

	// The public result carries the same trace IDs and the breakdown.
	if len(res.Stats) != rounds {
		t.Fatalf("parent result has %d rounds, want %d", len(res.Stats), rounds)
	}
	for _, s := range res.Stats {
		if s.TraceID != rootTrace[s.Round] {
			t.Fatalf("result round %d trace %x, observer saw %x", s.Round, s.TraceID, rootTrace[s.Round])
		}
		if s.Phases.TrainMs <= 0 {
			t.Fatalf("result round %d has no train phase: %+v", s.Round, s.Phases)
		}
	}

	// (c) part 2: the counter advanced past the mid-run scrape, and /healthz
	// reports the finished run.
	endRounds := scrapeMetric(t, base, "photon_rounds_total")
	if endRounds <= midRounds {
		t.Fatalf("photon_rounds_total did not advance: mid=%v end=%v", midRounds, endRounds)
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h obsv.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Component != "test-root" || h.Round != rounds {
		t.Fatalf("/healthz = %+v, want component test-root at round %d", h, rounds)
	}
}

// phaseSumMs returns a round's total across all phases.
func phaseSumMs(b obsv.Breakdown) float64 {
	return b.BroadcastMs + b.TrainMs + b.EncodeMs + b.WireMs + b.DecodeMs + b.AggregateMs + b.EvalMs
}
