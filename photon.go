// Package photon is the public API of the Photon federated LLM pre-training
// system — a from-scratch Go reproduction of "Photon: Federated LLM
// Pre-Training" (MLSys 2025).
//
// The package wraps the internal subsystems (federated core, transformer
// training stack, data sources, communication layer, and wall-time models)
// behind a single context-aware, observable entry point:
//
//   - NewJob assembles a training job from functional options, Run executes
//     it honoring context cancellation and deadlines, and Events streams
//     per-round telemetry (loss, perplexity, participating clients,
//     communication bytes) while training is in progress.
//   - Backends select the execution engine: BackendFederated (Algorithm 1
//     in-process), BackendCentralized (the Algorithm 2 DDP baseline), and
//     BackendAggregator/BackendClient (real networked federation over the
//     Photon wire protocol, as used by the photon-agg and photon-client
//     commands).
//   - RegisterServerOptimizer, RegisterDataSource, and RegisterCodec plug
//     new aggregation rules, corpora, and wire codecs into every backend
//     without touching core. WithCodec selects how parameter payloads
//     travel: dense, lossless flate, int8 block quantization (q8), or
//     error-feedback top-k sparsification (topk) — lossy codecs shrink
//     the measured wire, not just a simulation.
//   - PlanDeployment evaluates the Appendix B.1 wall-time model over a
//     bandwidth topology, choosing the cheapest admissible aggregation
//     topology for a deployment; PlanHierarchy goes further and emits an
//     executable two-tier relay placement (who dials whom, per-tier
//     codecs) minimizing the congestion-corrected Eq. 5/6 wall time.
//   - Aggregation composes hierarchically over real links: WithParent
//     turns an aggregator job into a relay that joins a parent while
//     serving its own cohort, and WithTiers/WithRelays/WithPlan simulate
//     the same hierarchy in-process. Round telemetry carries Tier/Depth.
package photon

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"photon/internal/hw"
	"photon/internal/nn"
	"photon/internal/topo"
)

// ModelSize selects a model architecture preset.
type ModelSize string

// Available model sizes: the paper's Table 4 presets (for analytics and
// full-scale deployment) and the laptop-trainable proxies used by the
// experiment harness.
const (
	Size75M   ModelSize = "75M"
	Size125M  ModelSize = "125M"
	Size350M  ModelSize = "350M"
	Size1B    ModelSize = "1.3B"
	Size3B    ModelSize = "3B"
	Size7B    ModelSize = "7B"
	SizeTiny  ModelSize = "tiny"
	SizeTinyS ModelSize = "tiny-1B-proxy"
	SizeTinyM ModelSize = "tiny-3B-proxy"
	SizeTinyL ModelSize = "tiny-7B-proxy"
)

// ModelConfig resolves a size preset to its architecture configuration.
func ModelConfig(size ModelSize) (nn.Config, error) {
	all := append(nn.PaperConfigs(),
		nn.ConfigTiny, nn.ConfigTinyS, nn.ConfigTinyM, nn.ConfigTinyL)
	for _, c := range all {
		if c.Name == string(size) {
			return c, nil
		}
	}
	return nn.Config{}, fmt.Errorf("photon: unknown model size %q", size)
}

// ServerOptimizer names an aggregator-side optimizer in the registry.
type ServerOptimizer string

// Built-in server optimizer names (see RegisterServerOptimizer for adding
// more).
const (
	// FedAvg with ηs=1 is Photon's recipe.
	FedAvg ServerOptimizer = "fedavg"
	// FedMom adds server momentum (ηs=1, µ=0.9).
	FedMom ServerOptimizer = "fedmom"
	// DiLoCo is the outer-Nesterov baseline (ηs=0.1, µ=0.9).
	DiLoCo ServerOptimizer = "diloco"
)

// Result is a finished (or, under cancellation, partial) pre-training run.
type Result struct {
	Stats           []RoundEvent
	FinalPerplexity float64

	// Run-total churn counts (sums over Stats), so a caller can see at a
	// glance how much membership turbulence the run absorbed.
	Joins      int
	Evictions  int
	Stragglers int

	// DroppedEvents counts RoundEvents discarded because the Events()
	// consumer fell behind its buffer (drop-oldest backpressure): rounds
	// are never stalled by a slow consumer, and this is the audit trail.
	DroppedEvents int

	model *nn.Model
}

// Generate samples tokens from the trained model (temperature 0 = greedy).
// It returns nil when the run produced no model (client backend).
func (r *Result) Generate(seed int64, prompt []int, n int, temperature float64) []int {
	if r.model == nil {
		return nil
	}
	return r.model.Generate(rand.New(rand.NewSource(seed)), prompt, n, temperature)
}

// Perplexity evaluates the trained model on fresh held-out data.
func (r *Result) Perplexity() float64 { return r.FinalPerplexity }

// NumParams returns the trained model's parameter count (0 when the run
// produced no model).
func (r *Result) NumParams() int {
	if r.model == nil {
		return 0
	}
	return r.model.NumParams()
}

// TopologyPlan is one aggregation option evaluated by PlanDeployment.
type TopologyPlan struct {
	Topology       string
	BandwidthGbps  float64 // effective (bottleneck) bandwidth
	CommSeconds    float64 // per-round communication time
	RoundSeconds   float64 // per-round total (compute + comm)
	CommShare      float64 // fraction of the round spent communicating
	Selected       bool    // cheapest admissible choice
	RuledOutReason string  // non-empty when constraints exclude it
}

// RelayCohort is one relay's tier assignment in a HierarchyPlan.
type RelayCohort struct {
	Region  string
	Members []string // leaf client nodes ("<region>/<i>") served by this relay
}

// DialEdge is one edge of a HierarchyPlan's executable dial graph: From
// dials To on the given tier (0 = toward the root, 1 = leaf → relay), over
// the stated link, speaking the stated codec.
type DialEdge struct {
	From, To      string
	Tier          int
	BandwidthGbps float64
	Codec         string
}

// HierarchyPlan is an executable aggregation-topology plan: where relays
// sit, who dials whom, which codec each tier speaks, and the predicted
// Eq. 5 wall times behind the choice. Feed it to WithPlan to configure a
// job, or walk Dials to start photon-agg -parent / photon-client processes.
type HierarchyPlan struct {
	ModelName string
	AggRegion string
	Tiers     int // 1 = flat star, 2 = relays pay off
	Relays    []RelayCohort

	UpstreamCodec string
	IntraCodec    string

	FlatRoundSeconds   float64
	TieredRoundSeconds float64
	RoundSeconds       float64 // the chosen candidate's time

	Dials []DialEdge
}

// codecWireRatio estimates a codec's encoded-vs-dense wire ratio for
// planning purposes: dense 1.0, flate ~0.9 on float noise, q8 ~0.26 (1
// byte/elem + block scales), topk:<keep> the smaller of its two layouts,
// 2·keep (8 bytes per kept pair) or 1/32 + 0.8·keep (a bitmap bit per
// element plus ~3.2 bytes per kept value under flate).
func codecWireRatio(name string) float64 {
	base, param, _ := strings.Cut(name, ":")
	switch base {
	case "flate":
		return 0.9
	case "q8":
		return 0.26
	case "topk":
		keep := 0.1
		if param != "" {
			if v, err := strconv.ParseFloat(param, 64); err == nil && v > 0 && v <= 1 {
				keep = v
			}
		}
		return min(2*keep, 1.0/32+0.8*keep)
	default:
		return 1
	}
}

// PlanHierarchy runs the congestion-corrected Appendix B.1 model over the
// paper's Table 1 deployment for the model size and the Figure 2 world
// bandwidth graph, and returns the cheapest executable aggregation
// hierarchy: the flat PS star on the aggregator region, or a two-tier relay
// placement (searched exhaustively over relay sites) when that minimizes
// Eq. 5/6 wall time. localSteps is τ; throughput is the client's ν in
// batches/second (0 selects the paper's measured value for the size);
// upstreamCodec names the relay→root codec the plan assumes and records
// ("" = "q8").
func PlanHierarchy(size ModelSize, localSteps int, throughput float64, upstreamCodec string) (*HierarchyPlan, error) {
	cfg, err := ModelConfig(size)
	if err != nil {
		return nil, err
	}
	d, ok := hw.DeploymentFor(cfg)
	if !ok {
		return nil, fmt.Errorf("photon: no Table 1 deployment for model size %q", size)
	}
	if throughput <= 0 {
		if throughput = hw.PaperThroughput(cfg.Name, true); throughput <= 0 {
			return nil, fmt.Errorf("photon: no measured throughput for %q; pass one explicitly", size)
		}
	}
	if localSteps <= 0 {
		return nil, fmt.Errorf("photon: localSteps must be positive")
	}
	if upstreamCodec == "" {
		upstreamCodec = "q8"
	}
	m := topo.Model{
		ModelSizeMB:   hw.ModelSizeMB(cfg),
		BandwidthMBps: 1, // superseded per link by the graph
		Throughput:    throughput,
		LocalSteps:    localSteps,
	}
	p, err := topo.BuildPlan(d, topo.WorldGraph(), m, topo.PlanOptions{
		UpstreamCodec:       upstreamCodec,
		UpstreamCompression: codecWireRatio(upstreamCodec),
	})
	if err != nil {
		return nil, err
	}
	out := &HierarchyPlan{
		ModelName:          p.ModelName,
		AggRegion:          p.AggRegion,
		Tiers:              p.Tiers,
		UpstreamCodec:      p.UpstreamCodec,
		IntraCodec:         p.IntraCodec,
		FlatRoundSeconds:   p.FlatRoundSeconds,
		TieredRoundSeconds: p.TieredRoundSeconds,
		RoundSeconds:       p.RoundSeconds,
	}
	for _, c := range p.Relays {
		out.Relays = append(out.Relays, RelayCohort{Region: c.RelayRegion, Members: c.Members})
	}
	for _, e := range p.Dials {
		out.Dials = append(out.Dials, DialEdge{From: e.From, To: e.To, Tier: e.Tier,
			BandwidthGbps: e.BandwidthGbps, Codec: e.Codec})
	}
	return out, nil
}

// PlanDeployment evaluates the Appendix B.1 wall-time model for a model size
// over the paper's Figure 2 world bandwidth graph (regions nil selects all
// five paper regions) and returns the per-topology plan with the cheapest
// admissible topology marked. localSteps is τ; throughput is the client's
// ν in batches/second; peerToPeer and dropouts mirror the deployment
// constraints of Section 4.
func PlanDeployment(size ModelSize, regions []string, localSteps int, throughput float64,
	peerToPeer, dropouts bool) ([]TopologyPlan, error) {
	cfg, err := ModelConfig(size)
	if err != nil {
		return nil, err
	}
	if len(regions) == 0 {
		regions = topo.WorldRing()
	}
	if localSteps <= 0 || throughput <= 0 {
		return nil, fmt.Errorf("photon: localSteps and throughput must be positive")
	}
	g := topo.WorldGraph()
	sizeMB := float64(cfg.ParamCount()) * 2 / 1e6

	var plans []TopologyPlan
	bestIdx, bestTime := -1, 0.0
	for _, t := range []topo.Topology{topo.PS, topo.AR, topo.RAR} {
		bw, err := g.EffectiveBandwidthGbps(t, topo.England, regions)
		if err != nil {
			return nil, err
		}
		m := topo.Model{
			ModelSizeMB:   sizeMB,
			BandwidthMBps: topo.GbpsToMBps(bw),
			Throughput:    throughput,
			LocalSteps:    localSteps,
		}
		k := len(regions)
		p := TopologyPlan{
			Topology:      t.String(),
			BandwidthGbps: bw,
			CommSeconds:   m.CommTime(t, k),
			RoundSeconds:  m.RoundTime(t, k),
			CommShare:     m.CommShare(t, k),
		}
		switch {
		case t != topo.PS && !peerToPeer:
			p.RuledOutReason = "privacy constraints forbid peer-to-peer"
		case t == topo.RAR && dropouts:
			p.RuledOutReason = "Ring-AllReduce cannot tolerate dropouts"
		}
		plans = append(plans, p)
		if p.RuledOutReason == "" && (bestIdx == -1 || p.RoundSeconds < bestTime) {
			bestIdx, bestTime = len(plans)-1, p.RoundSeconds
		}
	}
	if bestIdx >= 0 {
		plans[bestIdx].Selected = true
	}
	return plans, nil
}
