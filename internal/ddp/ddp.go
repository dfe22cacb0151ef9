package ddp

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"photon/internal/data"
	"photon/internal/metrics"
	"photon/internal/nn"
	"photon/internal/opt"
)

// Config describes a centralized training run (Algorithm 2). Workers = 1 is
// plain single-worker training; Workers > 1 is synchronous DDP with a
// Ring-AllReduce gradient average every step.
type Config struct {
	ModelConfig nn.Config
	Seed        int64

	Steps     int
	Workers   int
	BatchSize int // per-worker micro-batch; global batch = Workers·BatchSize
	SeqLen    int
	Schedule  opt.Schedule
	ClipNorm  float64

	// Streams provides each worker's data; length must equal Workers.
	Streams []data.Stream

	Validation *data.ValidationSet
	EvalEvery  int // evaluate every this many steps (0 → every 50)
	StopAtPPL  float64

	// OnRound, when non-nil, is called synchronously with each evaluation
	// record right after it is appended to the history.
	OnRound func(metrics.Round)
}

func (c *Config) validate() error {
	if err := c.ModelConfig.Validate(); err != nil {
		return err
	}
	switch {
	case c.Steps <= 0:
		return fmt.Errorf("ddp: Steps must be positive, got %d", c.Steps)
	case c.Workers <= 0:
		return fmt.Errorf("ddp: Workers must be positive, got %d", c.Workers)
	case c.BatchSize <= 0:
		return fmt.Errorf("ddp: BatchSize must be positive, got %d", c.BatchSize)
	case c.SeqLen <= 0:
		return fmt.Errorf("ddp: SeqLen must be positive, got %d", c.SeqLen)
	case c.Schedule == nil:
		return fmt.Errorf("ddp: Schedule must be set")
	case len(c.Streams) != c.Workers:
		return fmt.Errorf("ddp: %d streams for %d workers", len(c.Streams), c.Workers)
	}
	return nil
}

// Result is a finished centralized run.
type Result struct {
	History    *metrics.History
	FinalModel *nn.Model
}

// Run executes Algorithm 2: all workers start from the same initialization,
// and every step computes local gradients, averages them with a real
// concurrent Ring-AllReduce, and applies identical optimizer updates, so the
// replicas remain bit-identical throughout (verified in tests).
//
// Cancelling ctx stops the run between steps; Run then returns the partial
// Result accumulated so far together with ctx.Err().
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	initRng := rand.New(rand.NewSource(cfg.Seed))
	master := nn.NewModel(cfg.ModelConfig, initRng)
	init := master.Params().Flatten(nil)

	g := &Group{
		Replicas: make([]*nn.Model, cfg.Workers),
		Opts:     make([]opt.Optimizer, cfg.Workers),
		Streams:  cfg.Streams,
	}
	for w := range g.Replicas {
		g.Replicas[w] = nn.NewModel(cfg.ModelConfig, rand.New(rand.NewSource(1)))
		if err := g.Replicas[w].Params().LoadFlat(init); err != nil {
			return nil, err
		}
		// Identical construction keeps the replicas' optimizers in lockstep.
		g.Opts[w] = opt.NewAdamW(cfg.ModelConfig.Beta1, cfg.ModelConfig.Beta2, 0.01)
	}

	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 50
	}
	hist := &metrics.History{}

	var runErr error
	commBytes := int64(0)
	for step := 1; step <= cfg.Steps; step++ {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		if err := g.Step(cfg.BatchSize, cfg.SeqLen, cfg.Schedule.LR(step-1), cfg.ClipNorm); err != nil {
			return nil, err
		}
		var meanLoss float64
		for _, l := range g.Losses {
			meanLoss += l / float64(cfg.Workers)
		}
		if cfg.Workers > 1 {
			// Ring-AllReduce moves ~2·(N−1)/N of the gradient vector per
			// worker each step.
			n := int64(cfg.Workers)
			commBytes += 2 * (n - 1) * int64(len(init)) * 4
		}

		if step%evalEvery == 0 || step == cfg.Steps {
			rec := metrics.Round{Round: step, TrainLoss: meanLoss, Clients: cfg.Workers, CommBytes: commBytes}
			commBytes = 0
			if cfg.Validation != nil {
				rec.Perplexity = cfg.Validation.Evaluate(g.Replicas[0])
			}
			hist.Append(rec)
			if cfg.OnRound != nil {
				cfg.OnRound(rec)
			}
			if cfg.StopAtPPL > 0 && rec.Perplexity > 0 && rec.Perplexity <= cfg.StopAtPPL {
				break
			}
		}
	}
	return &Result{History: hist, FinalModel: g.Replicas[0]}, runErr
}

// Group is a set of data-parallel replicas that step in lockstep, each with
// its own optimizer and data stream. Its per-step scratch is kept across
// steps, and every model owns a scratch workspace, so a warm Step performs
// no heap allocations: with many in-process replicas the GC would otherwise
// dominate the simulation.
type Group struct {
	Replicas []*nn.Model
	Opts     []opt.Optimizer
	Streams  []data.Stream

	// Losses holds each replica's loss from the last Step, in replica order.
	Losses []float64
	grads  [][]float32
}

// Step is one synchronous data-parallel step: every replica computes
// gradients on its own stream's next micro-batch concurrently, a real
// Ring-AllReduce sums them, and every replica scales the sum by 1/n, clips
// it to clipNorm (0 disables) and steps its optimizer at lr. Replicas that
// start bit-identical stay bit-identical.
func (g *Group) Step(batchSize, seqLen int, lr, clipNorm float64) error {
	n := len(g.Replicas)
	if len(g.grads) != n {
		g.grads, g.Losses = make([][]float32, n), make([]float64, n)
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := g.Streams[w].NextBatch(batchSize, seqLen)
			ps := g.Replicas[w].Params()
			ps.ZeroGrads()
			g.Losses[w] = g.Replicas[w].ForwardBackward(batch)
			g.grads[w] = flattenGrads(ps, g.grads[w])
		}(w)
	}
	wg.Wait()
	if err := RingAllReduce(g.grads); err != nil {
		return err
	}
	inv := 1 / float32(n)
	for w := 0; w < n; w++ {
		ps := g.Replicas[w].Params()
		loadGrads(ps, g.grads[w], inv)
		if clipNorm > 0 {
			ps.ClipGradNorm(clipNorm)
		}
		g.Opts[w].Step(ps, lr)
	}
	return nil
}

func flattenGrads(ps nn.ParamSet, dst []float32) []float32 {
	n := ps.NumElements()
	if len(dst) != n {
		dst = make([]float32, n)
	}
	off := 0
	for _, p := range ps {
		copy(dst[off:], p.Grad)
		off += len(p.Grad)
	}
	return dst
}

func loadGrads(ps nn.ParamSet, src []float32, scale float32) {
	off := 0
	for _, p := range ps {
		for i := range p.Grad {
			p.Grad[i] = src[off+i] * scale
		}
		off += len(p.Grad)
	}
}
