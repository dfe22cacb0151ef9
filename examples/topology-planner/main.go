// Topology planner: evaluates the Appendix B.1 wall-time model over the
// paper's five-region bandwidth map (Figure 2) and picks the cheapest
// admissible aggregation topology for each model size under different
// deployment constraints — the decision Photon's Link layer makes
// automatically.
package main

import (
	"context"
	"fmt"
	"log"

	"photon"
)

func show(size photon.ModelSize, throughput float64, p2p, dropouts bool) {
	plans, err := photon.PlanDeployment(size, nil, 500, throughput, p2p, dropouts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s (τ=500, ν=%.3f, peer-to-peer=%v, dropouts=%v):\n", size, throughput, p2p, dropouts)
	fmt.Printf("  %-4s %-10s %-10s %-10s %-8s %s\n", "topo", "bw[Gbps]", "comm[s]", "round[s]", "comm%", "verdict")
	for _, p := range plans {
		verdict := ""
		if p.Selected {
			verdict = "<== selected"
		}
		if p.RuledOutReason != "" {
			verdict = "ruled out: " + p.RuledOutReason
		}
		fmt.Printf("  %-4s %-10.1f %-10.1f %-10.1f %-8s %s\n",
			p.Topology, p.BandwidthGbps, p.CommSeconds, p.RoundSeconds,
			fmt.Sprintf("%.1f%%", 100*p.CommShare), verdict)
	}
}

func showHierarchy(size photon.ModelSize, upstreamCodec string) {
	p, err := photon.PlanHierarchy(size, 500, 0, upstreamCodec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s hierarchy plan (Table 1 deployment, θ-congested Eq. 5/6):\n", size)
	fmt.Printf("  flat star:   %8.1f s/round\n", p.FlatRoundSeconds)
	fmt.Printf("  2-tier best: %8.1f s/round (upstream %s)\n", p.TieredRoundSeconds, p.UpstreamCodec)
	if p.Tiers == 1 {
		fmt.Println("  verdict: stay flat")
		return
	}
	fmt.Printf("  verdict: %d relays pay off\n", len(p.Relays))
	for _, r := range p.Relays {
		fmt.Printf("    relay@%s <- %v\n", r.Region, r.Members)
	}
	fmt.Println("  dial graph (start these processes):")
	members := 0
	for _, d := range p.Dials {
		fmt.Printf("    tier %d: %s -> %s (%.1f Gbps, %s)\n", d.Tier, d.From, d.To, d.BandwidthGbps, d.Codec)
	}
	for _, r := range p.Relays {
		members += len(r.Members)
	}
	// Rehearse the plan before starting those processes: the same tiers,
	// relays and upstream codec, in one process at tiny scale.
	res, err := photon.NewJob(photon.WithPlan(p), photon.WithClients(members), photon.WithRounds(2),
		photon.WithLocalSteps(4), photon.WithEvalEvery(2)).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	last := res.Stats[len(res.Stats)-1]
	fmt.Printf("  tiny-scale rehearsal: %d relays folded per round, %.2f MB on the parent links, ppl %.2f\n",
		last.Clients, float64(last.CommBytes)/1e6, res.FinalPerplexity)
}

func main() {
	fmt.Println("Photon topology planner over the Figure 2 world bandwidth graph")
	// Paper throughputs (Appendix B.1): ν in batches/second.
	show(photon.Size125M, 2.0, true, false)
	show(photon.Size7B, 0.032, true, false)
	show(photon.Size7B, 0.032, false, false) // privacy-constrained: PS only
	show(photon.Size7B, 0.032, true, true)   // dropouts: RAR excluded

	// From analytic model to executable plan: where should relays sit?
	showHierarchy(photon.Size125M, "q8")
	showHierarchy(photon.Size7B, "topk:0.1")
}
