package topo

import (
	"math"
	"strings"
	"testing"

	"photon/internal/hw"
)

func planModel() Model {
	return Model{
		ModelSizeMB: 250, // 125M in BF16
		// BandwidthMBps is superseded per link by the graph; Validate still
		// wants it positive.
		BandwidthMBps: 1,
		Throughput:    2,
		LocalSteps:    512,
	}
}

func deployment125M() hw.Deployment {
	for _, d := range hw.Table1Deployments() {
		if d.ModelName == "125M" {
			return d
		}
	}
	panic("125M deployment missing")
}

func TestBuildPlanPrefersTiersUnderCongestion(t *testing.T) {
	d := deployment125M() // 10 clients across 5 regions, aggregator in England
	m := planModel()
	m.CongestionThr = 4 // a 4-channel root link congests under 10 direct clients
	p, err := BuildPlan(d, WorldGraph(), m, PlanOptions{UpstreamCompression: 0.26, UpstreamCodec: "q8"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Tiers != 2 {
		t.Fatalf("congested flat star should lose to relays: tiers=%d (flat %.1fs, tiered %.1fs)",
			p.Tiers, p.FlatRoundSeconds, p.TieredRoundSeconds)
	}
	if p.TieredRoundSeconds >= p.FlatRoundSeconds {
		t.Fatalf("tiered plan selected but not cheaper: %v vs %v", p.TieredRoundSeconds, p.FlatRoundSeconds)
	}
	if p.RoundSeconds != p.TieredRoundSeconds {
		t.Fatal("RoundSeconds must be the chosen candidate's time")
	}
	// Every client must appear exactly once as a tier-1 dialer, and every
	// relay must dial the aggregator on tier 0.
	leaves := map[string]int{}
	relays := map[string]bool{}
	for _, e := range p.Dials {
		switch e.Tier {
		case 1:
			leaves[e.From]++
			if !strings.HasPrefix(e.To, "relay@") {
				t.Fatalf("tier-1 edge %s -> %s does not target a relay", e.From, e.To)
			}
		case 0:
			if e.To != England {
				t.Fatalf("tier-0 edge %s -> %s does not target the aggregator", e.From, e.To)
			}
			relays[e.From] = true
			if e.Codec != "q8" {
				t.Fatalf("tier-0 edge carries codec %q, want the upstream codec", e.Codec)
			}
		}
	}
	if len(leaves) != d.TotalClients() {
		t.Fatalf("dial graph covers %d leaves, want %d", len(leaves), d.TotalClients())
	}
	for leaf, n := range leaves {
		if n != 1 {
			t.Fatalf("leaf %s dials %d relays", leaf, n)
		}
	}
	if len(relays) != len(p.Relays) {
		t.Fatalf("dial graph has %d relays, plan lists %d", len(relays), len(p.Relays))
	}
	// Cohort membership and dial graph must agree.
	cohortMembers := 0
	for _, c := range p.Relays {
		cohortMembers += len(c.Members)
		if !relays["relay@"+c.RelayRegion] {
			t.Fatalf("cohort relay %s missing from dial graph", c.RelayRegion)
		}
	}
	if cohortMembers != d.TotalClients() {
		t.Fatalf("cohorts cover %d clients, want %d", cohortMembers, d.TotalClients())
	}
}

func TestBuildPlanFallsBackToFlatWhenCheap(t *testing.T) {
	// Two clients on the fat Utah–England link, well below θ: a relay hop
	// adds a serial ingest stage for nothing, so the planner keeps the
	// flat star.
	d := hw.Deployment{ModelName: "7B", AggRegion: England, Silos: []hw.RegionSilo{
		{Region: Utah, Clients: 2, GPUsPerClient: 8},
	}}
	m := planModel()
	p, err := BuildPlan(d, WorldGraph(), m, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Tiers != 1 {
		t.Fatalf("uncongested 2-client star should stay flat, got %d tiers (flat %.2fs, tiered %.2fs)",
			p.Tiers, p.FlatRoundSeconds, p.TieredRoundSeconds)
	}
	if len(p.Relays) != 0 {
		t.Fatal("flat plan must carry no relays")
	}
	for _, e := range p.Dials {
		if e.Tier != 0 || e.To != England {
			t.Fatalf("flat dial graph edge %+v should point clients at the aggregator", e)
		}
	}
	if len(p.Dials) != 2 {
		t.Fatalf("flat dial graph has %d edges, want 2", len(p.Dials))
	}
}

func TestBuildPlanErrors(t *testing.T) {
	m := planModel()
	if _, err := BuildPlan(hw.Deployment{ModelName: "x", AggRegion: England}, WorldGraph(), m, PlanOptions{}); err == nil {
		t.Fatal("empty deployment must error")
	}
	d := hw.Deployment{ModelName: "x", AggRegion: England, Silos: []hw.RegionSilo{
		{Region: "Atlantis", Clients: 2, GPUsPerClient: 1},
	}}
	if _, err := BuildPlan(d, WorldGraph(), m, PlanOptions{}); err == nil {
		t.Fatal("unreachable region must error")
	}
	bad := m
	bad.Throughput = 0
	if _, err := BuildPlan(deployment125M(), WorldGraph(), bad, PlanOptions{}); err == nil {
		t.Fatal("invalid model must error")
	}
}

// TestBuildPlanTieredBeatsFlatAnalytically cross-checks the chosen tiered
// time against a hand-computed bound: the tiered round can never beat local
// compute plus the cheapest conceivable root exchange.
func TestBuildPlanTieredBeatsFlatAnalytically(t *testing.T) {
	m := planModel()
	m.CongestionThr = 4
	p, err := BuildPlan(deployment125M(), WorldGraph(), m, PlanOptions{UpstreamCompression: 0.26})
	if err != nil {
		t.Fatal(err)
	}
	if p.TieredRoundSeconds < m.LocalComputeTime() {
		t.Fatal("tiered time below pure compute time is impossible")
	}
	if math.IsInf(p.TieredRoundSeconds, 0) || math.IsNaN(p.TieredRoundSeconds) {
		t.Fatal("tiered time must be finite")
	}
}
