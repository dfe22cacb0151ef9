package fed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"photon/internal/ckpt"
	"photon/internal/data"
	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/nn"
	"photon/internal/obsv"
	"photon/internal/topo"
)

// RunConfig configures a federated training run in the in-process simulator.
type RunConfig struct {
	ModelConfig nn.Config
	Seed        int64

	// Rng, when non-nil, is the injected source behind every random
	// decision the run makes — model init, cohort sampling, dropout /
	// churn draws — replacing any implicit global-rand usage. Nil seeds a
	// fresh source from Seed. Injecting the source makes churn simulations
	// reproducible and lets callers share one stream across subsystems.
	Rng *rand.Rand

	Rounds          int
	ClientsPerRound int // K
	Clients         []*Client
	Outer           OuterOpt
	Spec            LocalSpec

	// Validation is evaluated on the global model every EvalEvery rounds
	// (and always on the final round). Nil disables evaluation.
	Validation *data.ValidationSet
	EvalEvery  int

	// Codec, when non-empty, routes every model broadcast and client
	// update through the named wire codec exactly as the networked path
	// does: payloads are encoded, their encoded size is charged to the
	// round's communication accounting, and training continues from the
	// decoded (for lossy codecs, perturbed) values. Each client holds its
	// own codec instance across rounds, so error-feedback codecs (topk)
	// accumulate residuals per client. Empty skips codec simulation and
	// keeps the raw dense exchange with element-count byte estimates.
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

	// TimeModel, when set, accrues simulated wall-clock time per round under
	// Topology, populating History.SimSeconds (Appendix B.1 model).
	TimeModel *topo.Model
	Topology  topo.Topology

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

// Run executes Algorithm 1 in a single process: the global model is
// initialized from the seed, and each round samples K distinct clients
// uniformly (line 4), trains them concurrently (each in its own goroutine
// with its own model replica and data stream), folds the surviving updates
// in cohort order into a pseudo-gradient, and applies the outer optimizer.
// A survivor whose update is not finite is dropped like a dropout. It is
// deterministic for a fixed config.
//
// Cancelling ctx stops the run promptly — in-flight clients abort between
// local steps and the interrupted round is discarded — and Run returns the
// partial Result for the completed rounds together with ctx.Err().
func Run(ctx context.Context, cfg RunConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := cfg.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	// traceRng mints per-round trace IDs from its own stream so tracing
	// never perturbs cohort sampling or dropout draws.
	traceRng := rand.New(rand.NewSource(int64(uint64(cfg.Seed) ^ 0x9E3779B97F4A7C15)))
	globalModel := nn.NewModel(cfg.ModelConfig, rng)
	if cfg.InitParams != nil {
		if err := globalModel.Params().LoadFlat(cfg.InitParams); err != nil {
			return nil, fmt.Errorf("fed: InitParams: %w", err)
		}
	}
	global := globalModel.Params().Flatten(nil)

	// Codec simulation state, per tier: the model-broadcast encoder is
	// shared (one encode per round), while each client index — and, in the
	// hierarchical simulation, each relay — keeps its own update codec, so
	// error-feedback residuals (topk) accumulate per owner exactly as they
	// would on real client and relay processes.
	modelCodec, clientCodec, err := simCodecs(cfg.Codec, len(cfg.Clients))
	if err != nil {
		return nil, fmt.Errorf("fed: %w", err)
	}
	tiers := cfg.Tiers
	if tiers <= 0 {
		tiers = 1
	}
	relays := cfg.effectiveRelays()
	upName := cfg.UpstreamCodec
	if upName == "" {
		upName = cfg.Codec
	}
	var upModelCodec link.Codec
	var relayCodec func(int) (link.Codec, error)
	// A tiered run folds each survivor into its relay group first and the
	// relay means into fold after.
	var fold meanFold
	var groups []meanFold
	if tiers == 2 {
		if upModelCodec, relayCodec, err = simCodecs(upName, relays); err != nil {
			return nil, fmt.Errorf("fed: upstream codec: %w", err)
		}
		groups = make([]meanFold, relays)
	}
	var writer *ckpt.AsyncWriter
	var ckptErrSeen bool
	if cfg.CheckpointPath != "" {
		writer = ckpt.NewAsyncWriter(cfg.CheckpointPath)
		defer writer.Close()
	}

	hist := &metrics.History{}
	simTime := 0.0
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}

	var runErr error
	for round := cfg.StartRound + 1; round <= cfg.StartRound+cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		cohortIdx := rng.Perm(len(cfg.Clients))[:min(cfg.ClientsPerRound, len(cfg.Clients))]
		// Draw dropout decisions up front so parallel execution stays
		// deterministic.
		dropped := make([]bool, len(cohortIdx))
		for i := range dropped {
			dropped[i] = cfg.DropoutProb > 0 && rng.Float64() < cfg.DropoutProb
		}
		// The same 52-bit trace IDs as the networked tiers, so simulated
		// and real runs share one identifier space.
		traceID := mintTrace(traceRng)
		roundStart := time.Now()

		// Under a codec, clients train from the decoded broadcast — for a
		// lossy codec the same perturbed parameters a real remote client
		// would receive — and the encoded size is what the round pays for.
		// In a tiered simulation the broadcast chains through both tiers:
		// root → relays under the upstream codec, relays → cohort under
		// the leaf codec.
		var wire roundWire
		var downBytes, upBytes int64
		var parentDown, parentUp int64
		relayGlobal := global
		if upModelCodec != nil {
			var err error
			if relayGlobal, parentDown, err = wire.roundTrip(upModelCodec, global, relays); err != nil {
				return nil, fmt.Errorf("fed: round %d: %w", round, err)
			}
		}
		trainGlobal := relayGlobal
		if modelCodec != nil {
			var err error
			if trainGlobal, downBytes, err = wire.roundTrip(modelCodec, relayGlobal, len(cohortIdx)); err != nil {
				return nil, fmt.Errorf("fed: round %d: %w", round, err)
			}
		}

		type outcome struct {
			res RoundResult
			err error
			ok  bool
		}
		outcomes := make([]outcome, len(cohortIdx))
		stepBase := (round - 1) * cfg.Spec.Steps
		trainStart := time.Now()
		var wg sync.WaitGroup
		for i, ci := range cohortIdx {
			if dropped[i] {
				continue
			}
			wg.Add(1)
			go func(i int, c *Client) {
				defer wg.Done()
				res, err := c.RunRound(ctx, trainGlobal, stepBase, cfg.Spec)
				outcomes[i] = outcome{res: res, err: err, ok: err == nil}
			}(i, cfg.Clients[ci])
		}
		wg.Wait()
		// Train phase is the wall time of the parallel local-training
		// section — the cohort's critical path, not per-client sums.
		trainNs := time.Since(trainStart).Nanoseconds()
		if err := ctx.Err(); err != nil {
			// The round was interrupted; discard its partial work and
			// return what completed before the cancellation.
			runErr = err
			break
		}

		fold.reset(len(global))
		for g := range groups {
			groups[g].reset(len(global))
		}
		var clientMetrics []map[string]float64
		var aggNs int64 // fold and outer step
		for i := range outcomes {
			o := outcomes[i]
			if !o.ok {
				if o.err != nil && !errors.Is(o.err, context.Canceled) && !errors.Is(o.err, context.DeadlineExceeded) {
					return nil, fmt.Errorf("fed: round %d client %s: %w", round, cfg.Clients[cohortIdx[i]].ID, o.err)
				}
				continue // dropped or cancelled client
			}
			upd := o.res.Update
			if modelCodec != nil {
				codec, err := clientCodec(cohortIdx[i])
				if err != nil {
					return nil, fmt.Errorf("fed: round %d: %w", round, err)
				}
				var n int64
				if upd, n, err = wire.roundTrip(codec, upd, 1); err != nil {
					return nil, fmt.Errorf("fed: round %d client %s: %w", round, cfg.Clients[cohortIdx[i]].ID, err)
				}
				upBytes += n
			}
			// A diverged client is dropped, as the networked tiers evict it.
			if checkFinite(upd) != nil {
				continue
			}
			clientMetrics = append(clientMetrics, o.res.Metrics)
			foldStart := time.Now()
			if tiers == 2 {
				// Static fleet partition: client index ci always belongs to
				// relay ci·R/N, exactly like a deployment where each relay
				// serves a fixed slice of the fleet — so per-relay
				// error-feedback residuals stay with the same client set
				// across rounds regardless of cohort sampling order.
				groups[cohortIdx[i]*relays/len(cfg.Clients)].add(upd, 1)
			} else {
				fold.add(upd, 1)
			}
			aggNs += time.Since(foldStart).Nanoseconds()
		}
		survivors := len(clientMetrics)

		// Hierarchical fold: each relay group's mean (optionally crossing
		// the upstream codec, per-relay error feedback included) folds into
		// the root in group order.
		for g := range groups {
			if groups[g].n == 0 {
				continue // an emptied cohort sends nothing upstream
			}
			mean := groups[g].mean()
			if upModelCodec != nil {
				codec, err := relayCodec(g)
				if err != nil {
					return nil, fmt.Errorf("fed: round %d: %w", round, err)
				}
				var n int64
				if mean, n, err = wire.roundTrip(codec, mean, 1); err != nil {
					return nil, fmt.Errorf("fed: round %d relay %d: %w", round, g, err)
				}
				parentUp += n
			}
			fold.add(mean, 1)
		}

		paramBytes := int64(len(global)) * 4
		rec := metrics.Round{
			Round:   round,
			Clients: survivors,
			Depth:   tiers,
			// Model broadcast to the sampled cohort plus surviving uploads
			// (plus, when tiered, the parent tier's relay exchanges).
			CommBytes: int64(len(cohortIdx)+survivors) * paramBytes,
		}
		if tiers == 2 && upModelCodec == nil {
			rec.CommBytes += int64(relays+fold.n) * paramBytes
			rec.WireSentBytes = int64(relays) * paramBytes
			rec.WireRecvBytes = int64(fold.n) * paramBytes
		}
		if modelCodec != nil || upModelCodec != nil {
			// Codec accounting: the round pays for encoded payload bytes
			// (headerless — the simulator has no frames). Flat runs split
			// them into the aggregator's send/receive sides; tiered runs
			// report the parent link's bytes there instead, which is what
			// a relay deployment actually moves inter-region.
			rec.CommBytes = wire.payloadBytes
			if modelCodec == nil {
				// Upstream-only codec: the leaf tier still moves raw dense
				// vectors, so charge them at the element-count estimate —
				// otherwise CommBytes would silently drop a whole tier.
				rec.CommBytes += int64(len(cohortIdx)+survivors) * paramBytes
			}
			rec.WireSentBytes = downBytes
			rec.WireRecvBytes = upBytes
			if tiers == 2 {
				rec.WireSentBytes = parentDown
				rec.WireRecvBytes = parentUp
			}
			rec.EncodeMs = float64(wire.encNs) / 1e6
			rec.DecodeMs = float64(wire.decNs) / 1e6
			if wire.denseBytes > 0 {
				rec.CompressionRatio = float64(wire.payloadBytes) / float64(wire.denseBytes)
			}
		}
		if fold.n > 0 {
			aggStart := time.Now()
			delta := fold.mean()
			cfg.Outer.Step(global, delta, round)
			aggNs += time.Since(aggStart).Nanoseconds()
			rec.UpdateNorm = norm2(delta)
			rec.TrainLoss = metrics.AggMetrics(clientMetrics)["loss"]
		}

		if cfg.TimeModel != nil {
			simTime += cfg.TimeModel.RoundTime(cfg.Topology, len(cohortIdx))
		}
		rec.SimSeconds = simTime

		var evalNs int64
		if cfg.Validation != nil && (round%evalEvery == 0 || round == cfg.StartRound+cfg.Rounds) {
			evalStart := time.Now()
			if err := globalModel.Params().LoadFlat(global); err != nil {
				return nil, err
			}
			rec.ValPPL = cfg.Validation.Evaluate(globalModel)
			evalNs = time.Since(evalStart).Nanoseconds()
		}
		rec.TraceID = traceID
		rec.WallMs = float64(time.Since(roundStart).Nanoseconds()) / 1e6
		var pn obsv.PhaseNanos
		pn.Add(obsv.PhaseTrain, trainNs)
		pn.Add(obsv.PhaseEncode, wire.encNs)
		pn.Add(obsv.PhaseDecode, wire.decNs)
		pn.Add(obsv.PhaseAggregate, aggNs)
		pn.Add(obsv.PhaseEval, evalNs)
		rec.Phases = pn.Breakdown()
		hist.Append(rec)
		if cfg.OnRound != nil {
			cfg.OnRound(rec)
		}

		if writer != nil {
			snapshot := make([]float32, len(global))
			copy(snapshot, global)
			writer.Submit(&ckpt.Checkpoint{
				Round:  round,
				Step:   round * cfg.Spec.Steps,
				Meta:   map[string]float64{"ppl": rec.ValPPL, "loss": rec.TrainLoss},
				Params: snapshot,
			})
			// Surface a failed write mid-run (once) instead of letting it
			// hide until Close: the operator learns the run has no durable
			// checkpoints while there is still time to fix the disk.
			noteCheckpointErr(&ckptErrSeen, writer.Err())
		}
		if cfg.StopAtPPL > 0 && rec.ValPPL > 0 && rec.ValPPL <= cfg.StopAtPPL {
			break
		}
	}

	if err := globalModel.Params().LoadFlat(global); err != nil {
		return nil, err
	}
	return &Result{History: hist, Global: global, FinalModel: globalModel}, runErr
}

// simCodecs builds one tier's simulated codec state for Run: the shared
// model-broadcast encoder and an accessor over n per-owner update codec
// instances, created on first use. An empty name simulates no codec (nil
// encoder).
func simCodecs(name string, n int) (link.Codec, func(int) (link.Codec, error), error) {
	if name == "" {
		return nil, nil, nil
	}
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
// receiver would train or fold from), and charge the wall time and the
// payload — sent to `copies` receivers — to the round's accounting. It
// returns the decoded vector and the encoded bytes charged.
func (w *roundWire) roundTrip(codec link.Codec, v []float32, copies int) ([]float32, int64, error) {
	encStart := time.Now()
	enc, err := link.EncodeVector(codec, v)
	w.encNs += time.Since(encStart).Nanoseconds()
	if err != nil {
		return nil, 0, err
	}
	decStart := time.Now()
	out, err := link.DecodePayload(codec, enc)
	if err != nil {
		return nil, 0, err
	}
	w.decNs += time.Since(decStart).Nanoseconds()
	bytes := int64(copies) * int64(enc.WireBytes())
	w.payloadBytes += bytes
	w.denseBytes += int64(copies) * int64(enc.Elems) * 4
	return out, bytes, nil
}

func norm2(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
