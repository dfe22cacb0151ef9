package fed

import (
	"context"
	"fmt"
	"math/rand"

	"photon/internal/data"
	"photon/internal/nn"
	"photon/internal/opt"
	"photon/internal/tensor"
)

// LocalSpec describes the client-side training recipe for one run: the
// number of local steps per round τ, the hardware-determined batch size Bl,
// the learning-rate schedule (shared across clients and synchronized by
// cumulative step count), gradient clipping, and whether optimizer state is
// reset at round boundaries (the paper's stateless local optimization).
type LocalSpec struct {
	Steps     int // τ: local steps per round
	BatchSize int // Bl: hardware-determined local batch size
	SeqLen    int
	Schedule  opt.Schedule
	ClipNorm  float64 // global-norm gradient clip (0 disables)
	Stateful  bool    // keep optimizer state across rounds (ablation; default false = paper behavior)
}

// Validate reports whether the spec is runnable.
func (s LocalSpec) Validate() error {
	switch {
	case s.Steps <= 0:
		return fmt.Errorf("fed: LocalSpec.Steps must be positive, got %d", s.Steps)
	case s.BatchSize <= 0:
		return fmt.Errorf("fed: LocalSpec.BatchSize must be positive, got %d", s.BatchSize)
	case s.SeqLen <= 0:
		return fmt.Errorf("fed: LocalSpec.SeqLen must be positive, got %d", s.SeqLen)
	case s.Schedule == nil:
		return fmt.Errorf("fed: LocalSpec.Schedule must be set")
	}
	return nil
}

// Client is one LLM-C: a local model replica, its bound data stream, and its
// local optimizer. A client with SubNodes runs the nested sub-federation of
// Algorithm 1 lines 19–25 instead of a flat local loop.
type Client struct {
	ID        string
	Model     *nn.Model
	Stream    data.Stream
	Optimizer opt.Optimizer

	// SubNodes, when non-empty, are the poorly connected nodes inside this
	// client's silo; the client trains each on a partition of its stream and
	// averages their parameters into a single update (lines 24–25).
	SubNodes []*Client

	// Round scratch, reused across rounds so long-running simulations with
	// many clients do not reallocate a model-size vector per client per
	// round. The returned RoundResult.Update aliases updateBuf (subFold's sum
	// for a sub-federated client): it is valid until this client's next
	// RunRound, which is exactly the aggregation window (updates are folded
	// into the round delta before the next round starts).
	updateBuf []float32
	subFold   meanFold
}

// NewClient builds an LLM-C with its own model replica (weights are
// overwritten by the global model each round, so the init seed here is
// irrelevant to training).
func NewClient(id string, cfg nn.Config, stream data.Stream, optimizer opt.Optimizer) *Client {
	return &Client{
		ID:        id,
		Model:     nn.NewModel(cfg, rand.New(rand.NewSource(1))),
		Stream:    stream,
		Optimizer: optimizer,
	}
}

// NumParams returns the client's model parameter count, or 0 when it has
// no local replica (a sub-federated silo).
func (c *Client) NumParams() int {
	if c.Model != nil {
		return c.Model.NumParams()
	}
	return 0
}

// RoundResult is what an LLM-C returns to the aggregator.
type RoundResult struct {
	// Update is the pseudo-gradient contribution θt − θt_k.
	Update []float32
	// Metrics carries scalar training metadata (mean loss, steps, last LR).
	Metrics map[string]float64
}

// RunRound executes the client's local training pipeline (Algorithm 1 lines
// 13–28): load the global parameters, run τ local steps (or the nested
// sub-federation), and return the update θt − θt_k with metrics. stepBase is
// the cumulative global step count at the start of the round, which keys the
// shared learning-rate schedule. Cancelling ctx aborts the local loop
// between steps and returns the context's error.
func (c *Client) RunRound(ctx context.Context, global []float32, stepBase int, spec LocalSpec) (RoundResult, error) {
	if err := spec.Validate(); err != nil {
		return RoundResult{}, err
	}
	if len(c.SubNodes) > 0 {
		return c.runSubFederation(ctx, global, stepBase, spec)
	}
	if err := c.Model.Params().LoadFlat(global); err != nil {
		return RoundResult{}, fmt.Errorf("fed: client %s: %w", c.ID, err)
	}
	if !spec.Stateful {
		c.Optimizer.Reset() // stateless local optimization (Appendix A)
	}

	var lossSum float64
	lastLR := 0.0
	for step := 0; step < spec.Steps; step++ {
		if err := ctx.Err(); err != nil {
			return RoundResult{}, err
		}
		batch := c.Stream.NextBatch(spec.BatchSize, spec.SeqLen)
		c.Model.Params().ZeroGrads()
		lossSum += c.Model.ForwardBackward(batch)
		if spec.ClipNorm > 0 {
			c.Model.Params().ClipGradNorm(spec.ClipNorm)
		}
		lastLR = spec.Schedule.LR(stepBase + step)
		c.Optimizer.Step(c.Model.Params(), lastLR)
	}

	if len(c.updateBuf) != len(global) {
		c.updateBuf = make([]float32, len(global))
	}
	update := c.updateBuf
	copy(update, global)
	off := 0
	for _, p := range c.Model.Params() { // θt − θt_k, a parameter at a time in Flatten's layout
		tensor.Sub(update[off:off+len(p.Data)], p.Data)
		off += len(p.Data)
	}
	return RoundResult{
		Update: update,
		Metrics: map[string]float64{
			"loss":  lossSum / float64(spec.Steps),
			"steps": float64(spec.Steps),
			"lr":    lastLR,
		},
	}, nil
}

// runSubFederation implements the low-bandwidth intra-silo path: each
// sub-node trains independently from the same starting point on its own
// stream partition, and the client folds the node updates as they return
// into one update before replying to the aggregator. Averaging node
// *updates* equals averaging node models (line 24): θt − mean(θ_i) =
// mean(θt − θ_i).
func (c *Client) runSubFederation(ctx context.Context, global []float32, stepBase int, spec LocalSpec) (RoundResult, error) {
	c.subFold.reset(len(global))
	agg := map[string]float64{}
	for _, node := range c.SubNodes {
		res, err := node.RunRound(ctx, global, stepBase, spec)
		if err != nil {
			return RoundResult{}, fmt.Errorf("fed: sub-node %s: %w", node.ID, err)
		}
		c.subFold.add(res.Update, 1)
		for k, v := range res.Metrics {
			agg[k] += v / float64(len(c.SubNodes))
		}
	}
	agg["subnodes"] = float64(len(c.SubNodes))
	return RoundResult{Update: c.subFold.mean(), Metrics: agg}, nil
}
