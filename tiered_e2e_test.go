package photon

// End-to-end tests for networked two-tier aggregation through the Job API:
// a parent aggregator job, relay jobs (WithParent) serving their own
// cohorts, and leaf client jobs — plus the flat-vs-tiered parent-link wire
// measurement.

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"photon/internal/link"
)

// waitAddr polls a job's bound listen address.
func waitAddr(t *testing.T, j *Job) string {
	t.Helper()
	for i := 0; i < 400; i++ {
		if addr := j.Addr(); addr != "" {
			return addr
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job never bound its listener")
	return ""
}

// tieredFleet is one finished two-tier run: the parent's result plus each
// relay job's result.
type tieredFleet struct {
	parent *Result
	relays []*Result
}

// runTieredFleet runs a real 2-relay × 2-client two-tier federation over
// TCP: the parent announces parentCodec on its tier, the relays announce
// cohortCodec downstream.
func runTieredFleet(t *testing.T, rounds int, parentCodec, cohortCodec string) tieredFleet {
	t.Helper()
	parent := NewJob(
		WithBackend(BackendAggregator),
		WithAddr("127.0.0.1:0"),
		WithExpectClients(2),
		WithRounds(rounds),
		WithCodec(parentCodec),
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

	relayRes := make([]chan *Result, 2)
	relayErr := make([]chan error, 2)
	var clientWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		relay := NewJob(
			WithBackend(BackendAggregator),
			WithAddr("127.0.0.1:0"),
			WithParent(parentAddr),
			WithClientID([]string{"relay-west", "relay-east"}[r]),
			WithExpectClients(2),
			WithCodec(cohortCodec),
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
		for c := 0; c < 2; c++ {
			clientWG.Add(1)
			go func(r, c int) {
				defer clientWG.Done()
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

	out := tieredFleet{parent: <-parentRes}
	if err := <-parentErr; err != nil {
		t.Fatalf("parent: %v", err)
	}
	for r := 0; r < 2; r++ {
		out.relays = append(out.relays, <-relayRes[r])
		if err := <-relayErr[r]; err != nil {
			t.Fatalf("relay %d: %v", r, err)
		}
	}
	clientWG.Wait()
	return out
}

// runFlatFleet runs the matched flat federation: the same 4 leaf clients
// directly on one aggregator.
func runFlatFleet(t *testing.T, rounds int, codec string) *Result {
	t.Helper()
	agg := NewJob(
		WithBackend(BackendAggregator),
		WithAddr("127.0.0.1:0"),
		WithExpectClients(4),
		WithRounds(rounds),
		WithCodec(codec),
		WithSeed(71),
	)
	resCh := make(chan *Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := agg.Run(context.Background())
		resCh <- res
		errCh <- err
	}()
	addr := waitAddr(t, agg)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, err := NewJob(
				WithBackend(BackendClient),
				WithAddr(addr),
				WithClientID(string(rune('a'+c))),
				WithShard(c),
			).Run(context.Background())
			if err != nil {
				t.Errorf("client %d: %v", c, err)
			}
		}(c)
	}
	res := <-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return res
}

// parentWireBytes sums the aggregator's measured wire traffic (both
// directions, frame headers included) over a run.
func parentWireBytes(res *Result) int64 {
	var total int64
	for _, s := range res.Stats {
		total += s.WireSentBytes + s.WireRecvBytes
	}
	return total
}

// TestTwoTierJobTelemetry runs the full dense two-tier fleet through the
// Job API and checks the hierarchical telemetry: the parent reports Depth 2
// (its members are relays), each relay reports Tier 1 with its full cohort,
// and every tier completes every round.
func TestTwoTierJobTelemetry(t *testing.T) {
	const rounds = 3
	fleet := runTieredFleet(t, rounds, "dense", "dense")
	if len(fleet.parent.Stats) != rounds {
		t.Fatalf("parent completed %d rounds, want %d", len(fleet.parent.Stats), rounds)
	}
	for _, s := range fleet.parent.Stats {
		if s.Tier != 0 || s.Depth != 2 {
			t.Fatalf("parent round %d: Tier=%d Depth=%d, want 0/2", s.Round, s.Tier, s.Depth)
		}
		if s.Clients != 2 {
			t.Fatalf("parent round %d aggregated %d relays, want 2", s.Round, s.Clients)
		}
	}
	for i, r := range fleet.relays {
		if len(r.Stats) != rounds {
			t.Fatalf("relay %d served %d rounds, want %d", i, len(r.Stats), rounds)
		}
		for _, s := range r.Stats {
			if s.Tier != 1 {
				t.Fatalf("relay %d round %d: Tier=%d, want 1", i, s.Round, s.Tier)
			}
			if s.Clients != 2 {
				t.Fatalf("relay %d round %d aggregated %d clients, want 2", i, s.Round, s.Clients)
			}
		}
	}
	if ppl := fleet.parent.FinalPerplexity; !(ppl > 0 && ppl < 64) {
		t.Fatalf("two-tier run did not learn: parent ppl %v", ppl)
	}
}

// TestTieredTopkUpstreamShrinksParentWire is the acceptance measurement:
// with relays speaking error-feedback topk on the parent tier (dense inside
// their regions), the parent link's measured wire bytes must drop by at
// least 40% versus the flat 4-client federation — the whole point of
// placing aggregation tiers in front of slow inter-region links.
func TestTieredTopkUpstreamShrinksParentWire(t *testing.T) {
	const rounds = 3
	flat := runFlatFleet(t, rounds, "dense")
	tiered := runTieredFleet(t, rounds, "topk:0.1", "dense")

	flatBytes := parentWireBytes(flat)
	tieredBytes := parentWireBytes(tiered.parent)
	if flatBytes <= 0 || tieredBytes <= 0 {
		t.Fatalf("missing wire accounting: flat=%d tiered=%d", flatBytes, tieredBytes)
	}
	ratio := float64(tieredBytes) / float64(flatBytes)
	if ratio > 0.60 {
		t.Fatalf("tiered parent link carries %.1f%% of flat's bytes, want <= 60%% (>= 40%% drop)", 100*ratio)
	}
}

// TestCodecWireRatioPricesTopK: the planner's topk estimate is within 10% of
// what the link codec actually sends for a 1M-element gaussian update, at
// densities on both sides of where the sparse layout's bitmap dominates.
func TestCodecWireRatioPricesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := make([]float32, 1<<20)
	for i := range v {
		v[i] = float32(rng.NormFloat64()) * 0.01
	}
	for _, keep := range []string{"0.05", "0.1", "0.5"} {
		c, err := link.NewCodec("topk:" + keep)
		if err != nil {
			t.Fatal(err)
		}
		p, err := link.EncodeVector(c, v)
		if err != nil {
			t.Fatal(err)
		}
		got, est := float64(p.WireBytes())/float64(4*len(v)), codecWireRatio("topk:"+keep)
		if math.Abs(est-got) > 0.1*got {
			t.Errorf("topk:%s: planner prices %.4f, the codec sends %.4f", keep, est, got)
		}
	}
}

// TestPlanHierarchyProducesExecutablePlan checks the public planner: the
// Table 1 deployment must yield a well-formed plan whose dial graph covers
// every client exactly once, and WithPlan must transfer the plan's tier
// structure onto a job.
func TestPlanHierarchyProducesExecutablePlan(t *testing.T) {
	p, err := PlanHierarchy(Size125M, 500, 0, "q8")
	if err != nil {
		t.Fatal(err)
	}
	if p.Tiers != 1 && p.Tiers != 2 {
		t.Fatalf("tiers = %d", p.Tiers)
	}
	if p.RoundSeconds <= 0 || len(p.Dials) == 0 {
		t.Fatalf("degenerate plan: %+v", p)
	}
	leaves := map[string]bool{}
	for _, d := range p.Dials {
		if d.Tier == 1 || (p.Tiers == 1 && d.Tier == 0) {
			if leaves[d.From] {
				t.Fatalf("leaf %s dials twice", d.From)
			}
			leaves[d.From] = true
		}
	}
	if len(leaves) != 10 { // Table 1's 125M row: 10 clients
		t.Fatalf("dial graph covers %d leaves, want 10", len(leaves))
	}

	job := NewJob(WithPlan(p), WithClients(10))
	if job.cfg.tiers != p.Tiers {
		t.Fatalf("WithPlan set tiers=%d, plan says %d", job.cfg.tiers, p.Tiers)
	}
	if p.Tiers == 2 {
		if job.cfg.relays != len(p.Relays) {
			t.Fatalf("WithPlan set relays=%d, plan has %d", job.cfg.relays, len(p.Relays))
		}
		if job.cfg.upstreamCodec != p.UpstreamCodec {
			t.Fatalf("WithPlan set upstream codec %q, plan says %q", job.cfg.upstreamCodec, p.UpstreamCodec)
		}
	}

	// Unknown sizes must error rather than plan garbage.
	if _, err := PlanHierarchy(SizeTiny, 500, 1, ""); err == nil {
		t.Fatal("tiny proxy has no Table 1 deployment; PlanHierarchy must say so")
	}
}

// TestWithPlanDrivesTieredSim runs a small federated simulation configured
// entirely by a plan and checks the tier accounting flows through.
func TestWithPlanDrivesTieredSim(t *testing.T) {
	p := &HierarchyPlan{Tiers: 2, UpstreamCodec: "q8",
		Relays: []RelayCohort{{Region: "west"}, {Region: "east"}}}
	res, err := NewJob(
		WithPlan(p),
		WithClients(4),
		WithRounds(2),
		WithCodec("dense"),
		WithEvalEvery(2),
		WithSeed(5),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Stats {
		if s.Depth != 2 {
			t.Fatalf("round %d Depth=%d, want 2", s.Round, s.Depth)
		}
		if s.WireSentBytes <= 0 || s.WireRecvBytes <= 0 {
			t.Fatalf("round %d parent-tier wire accounting missing: %+v", s.Round, s)
		}
		// The q8 parent tier must shrink the whole exchange below dense.
		if s.CompressionRatio <= 0 || s.CompressionRatio >= 1 {
			t.Fatalf("round %d compression ratio %.3f, want within (0,1)", s.Round, s.CompressionRatio)
		}
	}
}
