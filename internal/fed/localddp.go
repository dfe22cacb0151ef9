package fed

import (
	"context"
	"fmt"
	"math/rand"

	"photon/internal/data"
	"photon/internal/ddp"
	"photon/internal/hw"
	"photon/internal/nn"
	"photon/internal/opt"
	"photon/internal/tensor"
)

// ddpGroup is the high-bandwidth local path of Algorithm 1 (lines 16–18):
// when a client's nodes are connected by RDMA-class links, the local
// training pipeline runs synchronous data parallelism — every step each
// replica computes gradients on its own micro-batch, the replicas average
// them with a real Ring-AllReduce, and all replicas apply identical
// optimizer updates.
type ddpGroup struct {
	ddp.Group
	localBuf, updateBuf []float32 // round scratch reused across rounds (see Client.localBuf)
}

// NewDDPClient builds an LLM-C whose local pipeline is synchronous data
// parallelism across len(streams) replicas (one per local GPU/node). newOpt
// constructs one optimizer per replica; identical construction keeps the
// replicas in lockstep.
func NewDDPClient(id string, cfg nn.Config, streams []data.Stream, newOpt func() opt.Optimizer) (*Client, error) {
	if len(streams) < 2 {
		return nil, fmt.Errorf("fed: DDP client needs at least 2 streams, got %d", len(streams))
	}
	g := &ddpGroup{Group: ddp.Group{Streams: streams}}
	for range streams {
		g.Replicas = append(g.Replicas, nn.NewModel(cfg, rand.New(rand.NewSource(1))))
		g.Opts = append(g.Opts, newOpt())
	}
	return &Client{ID: id, ddp: g}, nil
}

// runDDP executes the client's round with the intra-silo DDP strategy and
// returns the update θt − θt_k (identical across replicas by construction).
func (c *Client) runDDP(ctx context.Context, global []float32, stepBase int, spec LocalSpec) (RoundResult, error) {
	g := c.ddp
	n := len(g.Replicas)
	for i, m := range g.Replicas {
		if err := m.Params().LoadFlat(global); err != nil {
			return RoundResult{}, fmt.Errorf("fed: ddp client %s: %w", c.ID, err)
		}
		if !spec.Stateful {
			g.Opts[i].Reset()
		}
	}

	var lossSum float64
	lastLR := 0.0
	for step := 0; step < spec.Steps; step++ {
		if err := ctx.Err(); err != nil {
			return RoundResult{}, err
		}
		lastLR = spec.Schedule.LR(stepBase + step)
		if err := g.Step(spec.BatchSize, spec.SeqLen, lastLR, spec.ClipNorm); err != nil {
			return RoundResult{}, err
		}
		for _, l := range g.Losses {
			lossSum += l / float64(n)
		}
	}

	g.localBuf = g.Replicas[0].Params().Flatten(g.localBuf)
	if len(g.updateBuf) != len(global) {
		g.updateBuf = make([]float32, len(global))
	}
	update := g.updateBuf
	copy(update, global)
	tensor.Sub(update, g.localBuf)
	return RoundResult{
		Update: update,
		Metrics: map[string]float64{
			"loss":      lossSum / float64(spec.Steps),
			"steps":     float64(spec.Steps),
			"lr":        lastLR,
			"ddp_nodes": float64(n),
		},
	}, nil
}

// BuildClient implements Photon's adaptive local parallelism (Section 4):
// it selects the training strategy for a silo via the hardware heuristic and
// assembles the matching client — a flat single-GPU client, an intra-silo
// DDP/FSDP group over the silo's GPUs, or a nested sub-federation across
// poorly connected nodes. streams must provide one stream per GPU for the
// multi-GPU strategies (extra streams are ignored by the single-GPU path).
func BuildClient(id string, cfg nn.Config, silo hw.Silo, streams []data.Stream,
	newOpt func() opt.Optimizer) (*Client, hw.Strategy, error) {
	strategy, err := hw.SelectStrategy(cfg, silo)
	if err != nil {
		return nil, 0, err
	}
	nGPUs := silo.NumGPUs()
	if len(streams) < nGPUs {
		return nil, 0, fmt.Errorf("fed: silo %s has %d GPUs but only %d streams", silo.Region, nGPUs, len(streams))
	}
	switch strategy {
	case hw.StrategySingleGPU:
		return NewClient(id, cfg, streams[0], newOpt()), strategy, nil
	case hw.StrategyDDP, hw.StrategyFSDP:
		// FSDP shards parameters for memory; its optimization semantics
		// match DDP, which is what the simulation reproduces.
		c, err := NewDDPClient(id, cfg, streams[:nGPUs], newOpt)
		if err != nil {
			return nil, 0, err
		}
		return c, strategy, nil
	default: // sub-federation across poorly connected nodes
		sub := make([]*Client, 0, len(silo.Nodes))
		for i := range silo.Nodes {
			sub = append(sub, NewClient(fmt.Sprintf("%s/node%d", id, i), cfg, streams[i], newOpt()))
		}
		return &Client{ID: id, SubNodes: sub}, strategy, nil
	}
}
