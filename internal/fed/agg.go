package fed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"photon/internal/ckpt"
	"photon/internal/data"
	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/nn"
	"photon/internal/obsv"
)

// RunConfig configures a federated training run in the in-process simulator.
type RunConfig struct {
	ModelConfig nn.Config
	Seed        int64

	Rounds          int
	ClientsPerRound int // K
	Clients         []*Client
	Outer           OuterOpt
	Spec            LocalSpec

	// Validation is evaluated on the global model every EvalEvery rounds
	// (and always on the final round). Nil disables evaluation.
	Validation *data.ValidationSet
	EvalEvery  int

	// Codec names the wire codec every model broadcast and client update
	// crosses, exactly as on the networked path: payloads are encoded,
	// their encoded size is charged to the round's communication
	// accounting, and training continues from the decoded (for lossy
	// codecs, perturbed) values. Each client holds its own codec instance
	// across rounds, so error-feedback codecs (topk) accumulate residuals
	// per client. Empty means "dense", as on the networked path.
	Codec string

	// Tiers selects the aggregation depth: 1 (or 0, the default) is the
	// flat Algorithm 1 loop; 2 simulates hierarchical aggregation — the
	// sampled cohort is split into Relays contiguous groups, each group's
	// updates fold into a relay mean first, and the outer optimizer
	// consumes the mean of relay means. Under FedAvg(ηs=1) with equal
	// groups the two-tier mean equals the flat mean exactly; the point of
	// the simulation is the wire accounting, which splits into a leaf tier
	// (cohort×Codec) and a parent tier (Relays×UpstreamCodec).
	Tiers int
	// Relays is the number of relay groups when Tiers == 2 (≤ 0 defaults
	// to 2).
	Relays int
	// UpstreamCodec names the relay→root tier's wire codec (per-relay
	// instances, so error-feedback codecs accumulate residuals per relay).
	// Empty inherits Codec.
	UpstreamCodec string

	// DropoutProb injects client failure: each sampled client independently
	// fails to return its update with this probability. The aggregator
	// applies a partial update from survivors (the PS/AR behavior).
	DropoutProb float64

	// CheckpointPath, when non-empty, asynchronously checkpoints the global
	// model each round (Algorithm 1 line 11).
	CheckpointPath string

	// InitParams, when non-nil, initializes the global model from a prior
	// checkpoint instead of the seed (crash recovery / warm start). Its
	// length must match the model's parameter count.
	InitParams []float32

	// StartRound offsets round numbering and the schedule step base when
	// resuming from a checkpoint (the first executed round is StartRound+1).
	StartRound int

	// StopAtPPL ends training early once validation reaches the target
	// (0 disables early stopping).
	StopAtPPL float64

	// OnRound, when non-nil, is called synchronously with each round's
	// record right after it is appended to the history — the hook behind
	// live observability (Job.Events).
	OnRound func(metrics.Round)
}

func (c *RunConfig) validate() error {
	if err := c.ModelConfig.Validate(); err != nil {
		return err
	}
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("fed: Rounds must be positive, got %d", c.Rounds)
	case len(c.Clients) == 0:
		return fmt.Errorf("fed: no clients")
	case c.ClientsPerRound <= 0:
		return fmt.Errorf("fed: ClientsPerRound must be positive, got %d", c.ClientsPerRound)
	case c.Outer == nil:
		return fmt.Errorf("fed: Outer optimizer must be set")
	case c.Tiers < 0 || c.Tiers > 2:
		return fmt.Errorf("fed: Tiers must be 1 (flat) or 2, got %d", c.Tiers)
	case c.Tiers == 2 && c.effectiveRelays() > c.ClientsPerRound:
		return fmt.Errorf("fed: %d relays cannot each hold a member of a %d-client cohort", c.effectiveRelays(), c.ClientsPerRound)
	}
	return nil
}

// effectiveRelays resolves the relay-group count (Relays ≤ 0 defaults to
// 2), so validation and the run loop agree on the same value.
func (c *RunConfig) effectiveRelays() int {
	if c.Relays <= 0 {
		return 2
	}
	return c.Relays
}

// Result bundles a finished run.
type Result struct {
	History *metrics.History
	// Global is the final global parameter vector.
	Global []float32
	// FinalModel holds the final parameters, ready for evaluation.
	FinalModel *nn.Model
}

// simulator is the in-process driver over aggState. Its exchange stands in
// for Serve's: the cohort trains in this process and every payload crosses
// a codec round trip instead of a wire. Per tier it holds the shared
// model-broadcast encoder and per-owner update codecs — each client index
// and, when tiered, each relay keeps its own, so error-feedback residuals
// (topk) accumulate per owner as on real client and relay processes — and a
// tiered run's relay groups, which fold before the root does.
type simulator struct {
	*aggState
	rc            RunConfig
	tiers, relays int

	modelCodec, upModelCodec link.Codec
	clientCodec, relayCodec  func(int) (link.Codec, error)
	groups                   []meanFold
	wire                     roundWire // the open round's payload volume
}

// Run executes Algorithm 1 in a single process. It is a driver over the
// aggregation core and differs from Serve only in its exchange: each round
// samples K distinct clients uniformly (line 4), trains them concurrently
// (each in its own goroutine with its own model replica and data stream),
// and folds the surviving updates in cohort order. A survivor whose update
// is not finite is dropped like a dropout. The outer step, evaluation,
// history, OnRound and result are the sync driver's. It is deterministic
// for a fixed config.
//
// An error mid-run returns the partial Result for the completed rounds
// together with the error, as Serve does. Cancelling ctx stops the run
// promptly the same way: in-flight clients abort between local steps, the
// interrupted round is discarded, and Run returns ctx.Err().
func Run(ctx context.Context, cfg RunConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	x := &simulator{
		aggState: newAggState(ServerConfig{
			ModelConfig: cfg.ModelConfig, Seed: cfg.Seed,
			// seal evaluates the run's last round whatever EvalEvery says.
			Rounds:        cfg.StartRound + cfg.Rounds,
			ExpectClients: len(cfg.Clients), ClientsPerRound: cfg.ClientsPerRound,
			Outer: cfg.Outer, Validation: cfg.Validation, EvalEvery: cfg.EvalEvery, OnRound: cfg.OnRound,
		}),
		rc: cfg, tiers: max(cfg.Tiers, 1), relays: cfg.effectiveRelays(),
	}
	if err := x.initModel(cfg.InitParams); err != nil {
		return nil, err
	}
	if cfg.Codec == "" {
		cfg.Codec = "dense"
	}
	var err error
	if x.modelCodec, x.clientCodec, err = simCodecs(cfg.Codec, len(cfg.Clients)); err != nil {
		return nil, fmt.Errorf("fed: %w", err)
	}
	if x.tiers == 2 {
		up := cfg.UpstreamCodec
		if up == "" {
			up = cfg.Codec
		}
		if x.upModelCodec, x.relayCodec, err = simCodecs(up, x.relays); err != nil {
			return nil, fmt.Errorf("fed: upstream codec: %w", err)
		}
		x.groups = make([]meanFold, x.relays)
	}
	return x.run(ctx)
}

func (x *simulator) run(ctx context.Context) (*Result, error) {
	var writer *ckpt.AsyncWriter
	var ckptErrSeen bool
	if x.rc.CheckpointPath != "" {
		writer = ckpt.NewAsyncWriter(x.rc.CheckpointPath)
		defer writer.Close()
	}
	for round := x.rc.StartRound + 1; round <= x.cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return x.finish(err)
		}
		w := x.open(round, mintTrace(x.traceRng), time.Now())
		clientMetrics, err := x.exchange(ctx, w)
		if ctx.Err() != nil {
			return x.finish(ctx.Err()) // the interrupted round is discarded
		}
		if err == nil {
			err = x.step(w, clientMetrics)
		}
		if err != nil {
			return x.fail(round, err)
		}
		if writer != nil {
			writer.Submit(&ckpt.Checkpoint{
				Round:  round,
				Step:   round * x.rc.Spec.Steps,
				Meta:   map[string]float64{"ppl": w.rec.Perplexity, "loss": w.rec.TrainLoss},
				Params: slices.Clone(x.global),
			})
			// Surface a failed write mid-run (once) instead of letting it
			// hide until Close: the operator learns the run has no durable
			// checkpoints while there is still time to fix the disk.
			noteCheckpointErr(&ckptErrSeen, writer.Err())
		}
		if x.rc.StopAtPPL > 0 && w.rec.Perplexity > 0 && w.rec.Perplexity <= x.rc.StopAtPPL {
			break
		}
	}
	return x.finish(nil)
}

// exchange is the simulator's half of a round, the part Serve does over the
// wire: draw the cohort and its dropouts, broadcast the model through the
// codecs (root → relays under the upstream codec, relays → cohort under the
// leaf codec), train the survivors in parallel, round-trip each update
// through its owner's codec, and fold the finite ones into x.fold in cohort
// order — through their relay group's mean when tiered. It stamps the
// window's participants, depth and payload accounting and returns the
// folded clients' metrics.
func (x *simulator) exchange(ctx context.Context, w *window) ([]map[string]float64, error) {
	cfg, rec := &x.rc, &w.rec
	cohort := x.rng.Perm(len(cfg.Clients))[:x.k]
	// Dropouts are drawn up front so parallel training stays deterministic.
	dropped := make([]bool, len(cohort))
	for i := range dropped {
		dropped[i] = cfg.DropoutProb > 0 && x.rng.Float64() < cfg.DropoutProb
	}

	// Clients train from the decoded broadcast — for a lossy codec the same
	// perturbed parameters a remote client would receive — and the encoded
	// size is what the round pays for.
	x.wire = roundWire{}
	var downBytes, upBytes, parentDown, parentUp int64
	var err error
	trainGlobal := x.global
	if x.tiers == 2 {
		if trainGlobal, parentDown, err = x.roundTrip(w, x.upModelCodec, trainGlobal, x.relays); err != nil {
			return nil, err
		}
	}
	if trainGlobal, downBytes, err = x.roundTrip(w, x.modelCodec, trainGlobal, len(cohort)); err != nil {
		return nil, err
	}

	results := make([]RoundResult, len(cohort))
	errs := make([]error, len(cohort))
	stepBase := (rec.Round - 1) * cfg.Spec.Steps
	// The train phase is the parallel section's wall time: the cohort's
	// critical path, not a per-client sum.
	train := obsv.Begin(obsv.PhaseTrain)
	var wg sync.WaitGroup
	for i, ci := range cohort {
		if dropped[i] {
			continue
		}
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			results[i], errs[i] = c.RunRound(ctx, trainGlobal, stepBase, cfg.Spec)
		}(i, cfg.Clients[ci])
	}
	wg.Wait()
	w.pn.Add(obsv.PhaseTrain, train.End())
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	x.fold.reset(len(x.global))
	for g := range x.groups {
		x.groups[g].reset(len(x.global))
	}
	var clientMetrics []map[string]float64
	for i, ci := range cohort {
		id := cfg.Clients[ci].ID
		if dropped[i] || errors.Is(errs[i], context.Canceled) || errors.Is(errs[i], context.DeadlineExceeded) {
			continue
		}
		if errs[i] != nil {
			return nil, fmt.Errorf("client %s: %w", id, errs[i])
		}
		codec, err := x.clientCodec(ci)
		if err != nil {
			return nil, err
		}
		upd, n, err := x.roundTrip(w, codec, results[i].Update, 1)
		if err != nil {
			return nil, fmt.Errorf("client %s: %w", id, err)
		}
		upBytes += n
		// A diverged client is dropped, as the networked tiers evict it.
		if checkFinite(upd) != nil {
			continue
		}
		clientMetrics = append(clientMetrics, results[i].Metrics)
		fold := &x.fold
		if x.groups != nil {
			// Static fleet partition: client index ci always belongs to
			// relay ci·R/N, like a deployment where each relay serves a
			// fixed slice of the fleet — so per-relay error-feedback
			// residuals stay with the same client set across rounds
			// regardless of cohort sampling order.
			fold = &x.groups[ci*x.relays/len(cfg.Clients)]
		}
		span := obsv.Begin(obsv.PhaseAggregate)
		fold.add(upd, 1)
		w.pn.Add(obsv.PhaseAggregate, span.End())
	}
	survivors := len(clientMetrics)

	// Each relay group's mean (crossing the upstream codec, per-relay error
	// feedback included) folds into the root in group order.
	for g := range x.groups {
		if x.groups[g].n == 0 {
			continue // an emptied cohort sends nothing upstream
		}
		codec, err := x.relayCodec(g)
		if err != nil {
			return nil, err
		}
		mean, n, err := x.roundTrip(w, codec, x.groups[g].mean(), 1)
		if err != nil {
			return nil, fmt.Errorf("relay %d: %w", g, err)
		}
		parentUp += n
		x.fold.add(mean, 1)
	}

	// The round pays encoded payload bytes (headerless — the simulator has
	// no frames). Flat runs split them into the aggregator's send/receive
	// sides; tiered runs report the parent link's bytes there instead, which
	// is what a relay deployment actually moves inter-region.
	rec.Clients, rec.Depth = survivors, x.tiers
	rec.CommBytes = x.wire.payloadBytes
	rec.WireSentBytes, rec.WireRecvBytes = downBytes, upBytes
	if x.tiers == 2 {
		rec.WireSentBytes, rec.WireRecvBytes = parentDown, parentUp
	}
	rec.EncodeMs = float64(w.pn[obsv.PhaseEncode]) / 1e6
	rec.DecodeMs = float64(w.pn[obsv.PhaseDecode]) / 1e6
	rec.CompressionRatio = float64(x.wire.payloadBytes) / float64(x.wire.denseBytes)
	return clientMetrics, nil
}

// simCodecs builds one tier's simulated codec state for Run: the shared
// model-broadcast encoder and an accessor over n per-owner update codec
// instances, created on first use.
func simCodecs(name string, n int) (link.Codec, func(int) (link.Codec, error), error) {
	c, err := link.NewCodec(name)
	if err != nil {
		return nil, nil, err
	}
	owned := make([]link.Codec, n)
	return link.ModelCodec(c), func(i int) (link.Codec, error) {
		if owned[i] == nil {
			var err error
			if owned[i], err = link.NewCodec(name); err != nil {
				return nil, err
			}
		}
		return owned[i], nil
	}, nil
}

// roundTrip is the simulator's stand-in for one wire crossing: encode v
// with codec, decode it back (for a lossy codec, the perturbed values the
// receiver would train or fold from), and charge the codec time to w and
// the payload — sent to `copies` receivers — to the round's volume. It
// returns the decoded vector and the encoded bytes charged.
func (x *simulator) roundTrip(w *window, codec link.Codec, v []float32, copies int) ([]float32, int64, error) {
	span := obsv.Begin(obsv.PhaseEncode)
	enc, err := link.EncodeVector(codec, v)
	w.pn.Add(obsv.PhaseEncode, span.End())
	if err != nil {
		return nil, 0, err
	}
	span = obsv.Begin(obsv.PhaseDecode)
	out, err := link.DecodePayload(codec, enc)
	if err != nil {
		return nil, 0, err
	}
	w.pn.Add(obsv.PhaseDecode, span.End())
	bytes := int64(copies) * int64(enc.WireBytes())
	x.wire.payloadBytes += bytes
	x.wire.denseBytes += int64(copies) * int64(enc.Elems) * 4
	return out, bytes, nil
}

func norm2(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
