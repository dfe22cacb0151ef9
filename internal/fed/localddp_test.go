package fed

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"photon/internal/data"
	"photon/internal/hw"
	"photon/internal/nn"
	"photon/internal/opt"
)

// siloWith builds a test silo of nodes×gpusPerNode H100s; rdma selects the
// inter-node interconnect class.
func siloWith(nodes, gpusPerNode int, rdma bool) hw.Silo {
	inter := hw.Ethernet
	if rdma {
		inter = hw.InfiniBand
	}
	s := hw.Silo{Region: "test", InterNode: inter}
	for i := 0; i < nodes; i++ {
		gpus := make([]hw.GPU, gpusPerNode)
		for j := range gpus {
			gpus[j] = hw.H100
		}
		s.Nodes = append(s.Nodes, hw.Node{GPUs: gpus, IntraGPU: hw.NVLink})
	}
	return s
}

func TestFedProxLimitsDrift(t *testing.T) {
	cfg := tinyCfg()
	global := nn.NewModel(cfg, rand.New(rand.NewSource(7))).Params().Flatten(nil)

	run := func(mu float64) float64 {
		c := makeClients(t, cfg, 1)[0]
		spec := tinySpec()
		spec.Steps = 8
		spec.ProxMu = mu
		res, err := c.RunRound(context.Background(), global, 0, spec)
		if err != nil {
			t.Fatal(err)
		}
		var n float64
		for _, v := range res.Update {
			n += float64(v) * float64(v)
		}
		return math.Sqrt(n)
	}
	free := run(0)
	prox := run(1.0)
	if !(prox < free) {
		t.Fatalf("FedProx should shrink client drift: free %v prox %v", free, prox)
	}
	if prox == 0 {
		t.Fatal("proximal term killed all learning")
	}
}

func TestDDPClientMatchesFlatDynamics(t *testing.T) {
	cfg := tinyCfg()
	src := data.C4Like(cfg.VocabSize)
	newOpt := func() opt.Optimizer { return opt.NewAdamW(cfg.Beta1, cfg.Beta2, 0.01) }

	streams := []data.Stream{data.NewShard(src, 0, 7), data.NewShard(src, 1, 7)}
	ddpClient, err := NewDDPClient("ddp", cfg, streams, newOpt)
	if err != nil {
		t.Fatal(err)
	}
	global := nn.NewModel(cfg, rand.New(rand.NewSource(9))).Params().Flatten(nil)
	spec := tinySpec()
	res, err := ddpClient.RunRound(context.Background(), global, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["ddp_nodes"] != 2 {
		t.Fatalf("metrics: %v", res.Metrics)
	}
	var n float64
	for _, v := range res.Update {
		n += float64(v) * float64(v)
	}
	if n == 0 {
		t.Fatal("DDP client produced no update")
	}
	// A second round from the same global must be deterministic in shape
	// (replicas stay in lockstep internally: update equals θt − replica0).
	if len(res.Update) != len(global) {
		t.Fatalf("update size %d", len(res.Update))
	}
}

func TestNewDDPClientValidation(t *testing.T) {
	cfg := tinyCfg()
	_, err := NewDDPClient("x", cfg, []data.Stream{data.NewShard(data.C4Like(cfg.VocabSize), 0, 7)},
		func() opt.Optimizer { return opt.SGD{} })
	if err == nil {
		t.Fatal("single-stream DDP client accepted")
	}
}

func TestBuildClientStrategies(t *testing.T) {
	cfg := tinyCfg()
	src := data.C4Like(cfg.VocabSize)
	streams := make([]data.Stream, 4)
	for i := range streams {
		streams[i] = data.NewShard(src, i, 7)
	}
	newOpt := func() opt.Optimizer { return opt.NewAdamW(cfg.Beta1, cfg.Beta2, 0.01) }

	// Tiny model on one GPU → single-GPU flat client.
	oneGPU := siloWith(1, 1, false)
	c, strat, err := BuildClient("a", cfg, oneGPU, streams, newOpt)
	if err != nil {
		t.Fatal(err)
	}
	if strat.String() != "single-gpu" || c.ddp != nil || len(c.SubNodes) != 0 {
		t.Fatalf("one GPU: strategy %v", strat)
	}

	// Multi-GPU node → DDP client.
	fourGPU := siloWith(1, 4, false)
	c, strat, err = BuildClient("b", cfg, fourGPU, streams, newOpt)
	if err != nil {
		t.Fatal(err)
	}
	if strat.String() != "ddp" || c.ddp == nil {
		t.Fatalf("four GPUs: strategy %v", strat)
	}

	// Multi-node Ethernet → sub-federation.
	twoNodes := siloWith(2, 1, false)
	c, strat, err = BuildClient("c", cfg, twoNodes, streams, newOpt)
	if err != nil {
		t.Fatal(err)
	}
	if strat.String() != "sub-federation" || len(c.SubNodes) != 2 {
		t.Fatalf("two nodes: strategy %v, %d subnodes", strat, len(c.SubNodes))
	}

	// Too few streams errors.
	if _, _, err := BuildClient("d", cfg, fourGPU, streams[:2], newOpt); err == nil {
		t.Fatal("insufficient streams accepted")
	}

	// All three client shapes must train a round successfully.
	global := nn.NewModel(cfg, rand.New(rand.NewSource(11))).Params().Flatten(nil)
	for _, built := range []string{"a", "b", "c"} {
		var client *Client
		switch built {
		case "a":
			client, _, _ = BuildClient("a", cfg, oneGPU, streams, newOpt)
		case "b":
			client, _, _ = BuildClient("b", cfg, fourGPU, streams, newOpt)
		case "c":
			client, _, _ = BuildClient("c", cfg, twoNodes, streams, newOpt)
		}
		if _, err := client.RunRound(context.Background(), global, 0, tinySpec()); err != nil {
			t.Fatalf("client %s round failed: %v", built, err)
		}
	}
}
