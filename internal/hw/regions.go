package hw

import (
	"sort"

	"photon/internal/nn"
)

// RegionSilo is one row cell of the paper's Table 1: a region hosting some
// number of clients, each holding a fixed number of GPUs.
type RegionSilo struct {
	Region        string
	Clients       int
	GPUsPerClient int
}

// Deployment describes the globally distributed setup used to train one
// model size (Table 1): the aggregator region plus the client silos.
type Deployment struct {
	ModelName string
	AggRegion string
	Silos     []RegionSilo
}

// TotalClients returns the number of LLM-C instances in the deployment.
func (d Deployment) TotalClients() int {
	n := 0
	for _, s := range d.Silos {
		n += s.Clients
	}
	return n
}

// RegionClients returns the number of clients hosted per region, merging
// duplicate region rows. Regions with zero clients are omitted.
func (d Deployment) RegionClients() map[string]int {
	out := map[string]int{}
	for _, s := range d.Silos {
		if s.Clients > 0 {
			out[s.Region] += s.Clients
		}
	}
	return out
}

// Regions returns the sorted set of regions hosting at least one client.
func (d Deployment) Regions() []string {
	rc := d.RegionClients()
	out := make([]string, 0, len(rc))
	for r := range rc {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Table1Deployments reproduces the paper's Table 1 exactly: for each model
// size, "num. of clients x num. of GPUs held by each client" per region,
// with the aggregator in England.
func Table1Deployments() []Deployment {
	return []Deployment{
		{ModelName: "7B", AggRegion: "England", Silos: []RegionSilo{
			{Region: "Utah", Clients: 1, GPUsPerClient: 8},
			{Region: "Texas", Clients: 1, GPUsPerClient: 8},
			{Region: "Quebec", Clients: 1, GPUsPerClient: 8},
			{Region: "Maharashtra", Clients: 1, GPUsPerClient: 8},
		}},
		{ModelName: "3B", AggRegion: "England", Silos: []RegionSilo{
			{Region: "Utah", Clients: 1, GPUsPerClient: 4},
			{Region: "Texas", Clients: 1, GPUsPerClient: 4},
			{Region: "Quebec", Clients: 1, GPUsPerClient: 4},
			{Region: "Maharashtra", Clients: 1, GPUsPerClient: 4},
		}},
		{ModelName: "1.3B", AggRegion: "England", Silos: []RegionSilo{
			{Region: "England", Clients: 1, GPUsPerClient: 2},
			{Region: "Utah", Clients: 2, GPUsPerClient: 2},
			{Region: "Texas", Clients: 2, GPUsPerClient: 2},
			{Region: "Quebec", Clients: 2, GPUsPerClient: 4},
			{Region: "Maharashtra", Clients: 1, GPUsPerClient: 4},
		}},
		{ModelName: "125M", AggRegion: "England", Silos: []RegionSilo{
			{Region: "England", Clients: 2, GPUsPerClient: 1},
			{Region: "Utah", Clients: 2, GPUsPerClient: 1},
			{Region: "Texas", Clients: 2, GPUsPerClient: 1},
			{Region: "Quebec", Clients: 2, GPUsPerClient: 1},
			{Region: "Maharashtra", Clients: 2, GPUsPerClient: 1},
		}},
	}
}

// DeploymentFor returns the Table 1 deployment for a model config, or false
// when the size was not part of the paper's study.
func DeploymentFor(cfg nn.Config) (Deployment, bool) {
	for _, d := range Table1Deployments() {
		if d.ModelName == cfg.Name {
			return d, true
		}
	}
	return Deployment{}, false
}

// SiloForRegion builds a concrete H100 Silo for one Table 1 cell, assuming
// NVLink inside nodes and Ethernet WAN between silos (the paper's setting).
func SiloForRegion(rs RegionSilo, wanGbps float64) Silo {
	gpus := make([]GPU, rs.GPUsPerClient)
	for i := range gpus {
		gpus[i] = H100
	}
	return Silo{
		Region:    rs.Region,
		Nodes:     []Node{{GPUs: gpus, IntraGPU: NVLink}},
		InterNode: Ethernet,
		WANGbps:   wanGbps,
	}
}
