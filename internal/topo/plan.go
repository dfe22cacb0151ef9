package topo

import (
	"fmt"
	"math"
	"sort"

	"photon/internal/hw"
)

// PlanOptions tunes BuildPlan's search.
type PlanOptions struct {
	// IntraRegionGbps is the LAN bandwidth between clients and a relay
	// placed in the same region (default 10 Gbps — an order of magnitude
	// above the Figure 2 WAN links, which is what makes tiering pay).
	IntraRegionGbps float64
	// UpstreamCodec names the wire codec the relay→root tier should run
	// (recorded on the emitted dial edges; default "q8").
	UpstreamCodec string
	// UpstreamCompression is the expected wire-size ratio of UpstreamCodec
	// (encoded bytes / dense bytes) applied to the parent tier's model size
	// when costing the tiered option (default 1 = no reduction assumed).
	UpstreamCompression float64
	// IntraCodec names the leaf→relay tier codec (default "dense": LAN
	// bandwidth makes compression CPU a net loss there).
	IntraCodec string
}

func (o *PlanOptions) fill() {
	if o.IntraRegionGbps <= 0 {
		o.IntraRegionGbps = 10
	}
	if o.UpstreamCodec == "" {
		o.UpstreamCodec = "q8"
	}
	if o.UpstreamCompression <= 0 || o.UpstreamCompression > 1 {
		o.UpstreamCompression = 1
	}
	if o.IntraCodec == "" {
		o.IntraCodec = "dense"
	}
}

// Cohort is one relay's tier assignment: the region hosting the relay and
// the client nodes it aggregates.
type Cohort struct {
	RelayRegion string
	// Members are the leaf client nodes ("<region>/<i>") attached to this
	// relay, sorted.
	Members []string
}

// Dial is one edge of the executable dial graph: From dials To. Tier 0 is
// the relay→root (or, in a flat plan, client→root) link; tier 1 is the
// leaf→relay link.
type Dial struct {
	From, To      string
	Tier          int
	BandwidthGbps float64
	Codec         string
}

// Plan is the executable output of the Appendix B.1 model: a relay
// placement minimizing congestion-corrected Eq. 5/6 wall time over a
// deployment, plus the dial graph that photon-agg -parent / photon-sim
// -tiers / the Job API consume.
type Plan struct {
	ModelName string
	AggRegion string
	// Tiers is 1 when the flat PS star wins, 2 when relays pay off.
	Tiers int
	// Relays is the chosen tier assignment (empty for a flat plan).
	Relays []Cohort
	// UpstreamCodec / IntraCodec are the per-tier codecs the plan assumes.
	UpstreamCodec string
	IntraCodec    string
	// FlatRoundSeconds and TieredRoundSeconds are the Eq. 5 wall times of
	// the two candidates; RoundSeconds is the chosen one.
	FlatRoundSeconds   float64
	TieredRoundSeconds float64
	RoundSeconds       float64
	// Dials is the dial graph of the chosen topology, sorted by (Tier,
	// From).
	Dials []Dial
}

// nodeName labels the i-th client in a region on the dial graph.
func nodeName(region string, i int) string { return fmt.Sprintf("%s/%d", region, i) }

// regionLinkGbps returns the bandwidth between two regions, using the LAN
// figure when they coincide.
func regionLinkGbps(g *Graph, a, b string, intraGbps float64) float64 {
	if a == b {
		return intraGbps
	}
	return g.Bandwidth(a, b)
}

// BuildPlan searches relay placements for the deployment over the bandwidth
// graph and returns the cheapest executable plan under the
// congestion-corrected wall-time model.
//
// The flat candidate is the PS star on d.AggRegion. The tiered candidates
// place relays on every non-empty subset of the client-hosting regions;
// each region's clients attach to the highest-bandwidth relay site (their
// own region counts as a LAN link), the relay tier costs the slowest
// relay's congestion-corrected serial ingest, and the root tier moves one
// (possibly codec-compressed) pseudo-gradient per relay. With ≤5 regions
// the subset search is exhaustive and exact.
func BuildPlan(d hw.Deployment, g *Graph, m Model, opt PlanOptions) (*Plan, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	opt.fill()
	rc := d.RegionClients()
	if len(rc) == 0 {
		return nil, fmt.Errorf("topo: deployment %q has no clients", d.ModelName)
	}
	regions := d.Regions()
	for _, r := range regions {
		if r != d.AggRegion && g.Bandwidth(r, d.AggRegion) == 0 {
			return nil, fmt.Errorf("topo: region %s has no link to aggregator region %s", r, d.AggRegion)
		}
	}
	total := d.TotalClients()
	theta := m.theta()
	s, agg := m.ModelSizeMB, d.AggRegion

	// Flat: every client lands on the aggregator's star; the binding link
	// is the weakest client→agg edge, and all N transfers serialize there.
	// The inter-region codec is available to EITHER topology (a flat fleet
	// can run topk just as well), so both candidates' root tiers get the
	// same UpstreamCompression — tiering must win on congestion relief,
	// transfer-count folding, or routing around weak links, never on a
	// codec it does not own.
	flatBw := math.Inf(1)
	for _, r := range regions {
		if bw := regionLinkGbps(g, r, agg, opt.IntraRegionGbps); bw < flatBw {
			flatBw = bw
		}
	}
	flatComm := psSerialTime(float64(total), s*opt.UpstreamCompression, GbpsToMBps(flatBw), theta)
	flatRound := m.LocalComputeTime() + flatComm + m.AggregationTime(total)

	// Tiered: exhaustive search over relay-site subsets.
	type assignment struct {
		sites   []string
		attach  map[string]string // client region → relay site
		seconds float64
	}
	best := assignment{seconds: math.Inf(1)}
	for mask := 1; mask < 1<<len(regions); mask++ {
		var sites []string
		for i, r := range regions {
			if mask&(1<<i) != 0 {
				sites = append(sites, r)
			}
		}
		// Attach each client region to its best-bandwidth relay site.
		attach := make(map[string]string, len(regions))
		ok := true
		for _, r := range regions {
			bestBw, bestSite := 0.0, ""
			for _, h := range sites {
				if bw := regionLinkGbps(g, r, h, opt.IntraRegionGbps); bw > bestBw {
					bestBw, bestSite = bw, h
				}
			}
			if bestSite == "" {
				ok = false
				break
			}
			attach[r] = bestSite
		}
		if !ok {
			continue
		}
		// Relay tier: each relay serially ingests its cohort over its
		// weakest attached link; the tier finishes with the slowest relay.
		relayTier := 0.0
		relayAgg := 0.0
		for _, h := range sites {
			n, minBw := 0, math.Inf(1)
			for _, r := range regions {
				if attach[r] != h {
					continue
				}
				n += rc[r]
				if bw := regionLinkGbps(g, r, h, opt.IntraRegionGbps); bw < minBw {
					minBw = bw
				}
			}
			if n == 0 {
				continue // a site nothing attaches to adds nothing
			}
			if t := psSerialTime(float64(n), s, GbpsToMBps(minBw), theta); t > relayTier {
				relayTier = t
			}
			if t := m.AggregationTime(n); t > relayAgg {
				relayAgg = t
			}
		}
		// Root tier: one (codec-compressed) exchange per populated relay
		// over the weakest relay→agg link.
		populated := 0
		rootBw := math.Inf(1)
		for _, h := range sites {
			used := false
			for _, r := range regions {
				if attach[r] == h && rc[r] > 0 {
					used = true
				}
			}
			if !used {
				continue
			}
			populated++
			if bw := regionLinkGbps(g, h, agg, opt.IntraRegionGbps); bw < rootBw {
				rootBw = bw
			}
		}
		rootComm := psSerialTime(float64(populated), s*opt.UpstreamCompression, GbpsToMBps(rootBw), theta)
		seconds := m.LocalComputeTime() + relayTier + relayAgg + rootComm + m.AggregationTime(populated)
		if seconds < best.seconds {
			best = assignment{sites: sites, attach: attach, seconds: seconds}
		}
	}

	p := &Plan{
		ModelName:          d.ModelName,
		AggRegion:          agg,
		UpstreamCodec:      opt.UpstreamCodec,
		IntraCodec:         opt.IntraCodec,
		FlatRoundSeconds:   flatRound,
		TieredRoundSeconds: best.seconds,
	}
	if flatRound <= best.seconds {
		// Flat wins: clients dial the root directly. Their WAN edges carry
		// the inter-region codec the flat candidate was costed with (only
		// clients co-located with the aggregator stay on the LAN codec),
		// so the emitted plan runs exactly what the cost model priced.
		p.Tiers = 1
		p.RoundSeconds = flatRound
		for _, r := range regions {
			bw := regionLinkGbps(g, r, agg, opt.IntraRegionGbps)
			codec := opt.UpstreamCodec
			if r == agg {
				codec = opt.IntraCodec
			}
			for i := 0; i < rc[r]; i++ {
				p.Dials = append(p.Dials, Dial{
					From: nodeName(r, i), To: agg, Tier: 0,
					BandwidthGbps: bw, Codec: codec,
				})
			}
		}
	} else {
		p.Tiers = 2
		p.RoundSeconds = best.seconds
		bysite := map[string][]string{}
		for _, r := range regions {
			h := best.attach[r]
			bw := regionLinkGbps(g, r, h, opt.IntraRegionGbps)
			for i := 0; i < rc[r]; i++ {
				name := nodeName(r, i)
				bysite[h] = append(bysite[h], name)
				p.Dials = append(p.Dials, Dial{
					From: name, To: "relay@" + h, Tier: 1,
					BandwidthGbps: bw, Codec: opt.IntraCodec,
				})
			}
		}
		sites := make([]string, 0, len(bysite))
		for h := range bysite {
			sites = append(sites, h)
		}
		sort.Strings(sites)
		for _, h := range sites {
			members := bysite[h]
			sort.Strings(members)
			p.Relays = append(p.Relays, Cohort{RelayRegion: h, Members: members})
			p.Dials = append(p.Dials, Dial{
				From: "relay@" + h, To: agg, Tier: 0,
				BandwidthGbps: regionLinkGbps(g, h, agg, opt.IntraRegionGbps),
				Codec:         opt.UpstreamCodec,
			})
		}
	}
	sort.Slice(p.Dials, func(i, j int) bool {
		if p.Dials[i].Tier != p.Dials[j].Tier {
			return p.Dials[i].Tier < p.Dials[j].Tier
		}
		return p.Dials[i].From < p.Dials[j].From
	})
	return p, nil
}
