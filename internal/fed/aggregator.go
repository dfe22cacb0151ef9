package fed

// The mode-pluggable aggregation core behind Serve. Serve owns everything
// around the seam — listener, handshakes, membership, liveness, WAL/registry
// setup, shutdown — and hands the assembled aggState to exactly one
// Aggregator implementation:
//
//   - syncAggregator: the deadline-based synchronous round loop (sample a
//     cohort, broadcast, collect until the deadline, fold with MeanDelta,
//     emit one outer step per round).
//   - asyncAggregator (async.go): the FedBuff-style asynchronous mode
//     (broadcast continuously-versioned models, fold arrivals into a
//     staleness-weighted buffer, emit a commit every K folds).
//
// Both modes are the same collect → fold → emit state machine; they differ
// only in what bounds a collect window (a deadline vs a buffer count) and
// in how a fold weighs its inputs (uniform mean vs staleness weights).

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"photon/internal/ckpt"
	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/nn"
	"photon/internal/obsv"
)

// compactEvery is how many commits the journal folds into the base
// checkpoint at a time, bounding replay time by the compaction window
// rather than the run length.
const compactEvery = 8

// Aggregator is the aggregation-core seam: one collect → fold → emit state
// machine with a synchronous and an asynchronous implementation. run drives
// the machine to completion and returns Serve's result; it is unexported
// because implementations share the package-private server plumbing.
type Aggregator interface {
	// Mode names the aggregation mode ("sync" or "async") for logs and
	// registry lineage.
	Mode() string

	run(ctx context.Context) (*Result, error)
}

// aggState is everything Serve assembles before handing control to an
// Aggregator: server plumbing, model and optimizer state, run bookkeeping,
// and the finish/fail exits that package (possibly partial) results.
type aggState struct {
	s   *server
	cfg ServerConfig

	k          int // cohort size per collect window (bounded by membership)
	minClients int
	evalEvery  int

	rng      *rand.Rand // cohort sampling / model init stream
	traceRng *rand.Rand // trace-ID stream, separate so tracing never perturbs sampling

	globalModel *nn.Model
	global      []float32
	hist        *metrics.History

	registry *ckpt.Registry
	lineage  map[string]string

	// finish packages the (possibly partial) run: completed rounds are
	// never discarded, even when the run ends on a membership or
	// no-progress error. fail routes a loop error through finish,
	// downgrading the exit to abrupt when an armed crash point fired.
	finish func(error) (*Result, error)
	fail   func(int, error) (*Result, error)
}

// syncAggregator is the deadline-based synchronous mode: one collect →
// fold → emit cycle per round, stragglers dropped (and down-weighted) at
// the round deadline.
type syncAggregator struct {
	*aggState
	resume *serverResume
}

func (a *syncAggregator) Mode() string { return "sync" }

func (a *syncAggregator) run(ctx context.Context) (*Result, error) {
	s, cfg, resume := a.s, a.cfg, a.resume
	startRound := resume.committed + 1
	commits := 0

	// emptyRounds counts consecutive rounds that aggregated zero updates
	// (every cohort member straggled past the deadline or failed). A few
	// in a row mean the run is burning rounds without training — better to
	// stop with the partial result than to silently "complete".
	const maxEmptyRounds = 3
	emptyRounds := 0

	// Wire-accounting windows tile the run with no gaps: each round's
	// window starts where the previous one ended, so traffic between
	// exchanges (heartbeats during aggregation and evaluation, rejoin
	// waits) is attributed to the next recorded round rather than lost,
	// and the per-round sums add up to the meter's cumulative totals.
	sentPrev, recvPrev := s.meter.Totals()
	// depth is the aggregation depth stamped on round records: 1 until a
	// relay identifies itself, then sticky at 2 — an empty round (every
	// relay straggled) does not mean the topology collapsed to flat.
	depth := 1
	var runErr error
	for round := startRound; round <= cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		// Membership floor: give evicted members a grace window to rejoin
		// before declaring the run dead.
		rejoinGrace := cfg.RoundDeadline
		if rejoinGrace <= 0 {
			rejoinGrace = 10 * time.Second
		}
		if err := s.waitAlive(ctx, a.minClients, rejoinGrace); err != nil {
			if ctx.Err() != nil {
				runErr = ctx.Err()
				break
			}
			return a.finish(fmt.Errorf("fed: round %d: %w", round, err))
		}

		// A WAL replay may hand this round back partially done: pre carries
		// the journaled cohort and the updates that already arrived before
		// the crash. Consume it exactly once.
		var pre *openRound
		if resume.open != nil && resume.open.round == round {
			pre = resume.open
			resume.open = nil
		}
		epoch := s.membershipEpoch()

		if pre != nil && pre.stepped {
			// The crash hit after the outer step: the journaled post-step
			// state is trusted only when it is complete — params plus the
			// outer snapshot when the optimizer is stateful. A crash that
			// landed between the two records left post-step params next to
			// pre-step momentum; using them together would corrupt the
			// trajectory, so the incomplete pair is discarded and the step
			// is redone below from the journaled updates instead.
			if snapshotOuter(cfg.Outer) == nil || pre.snapped {
				if len(pre.postGlobal) != len(a.global) {
					return a.fail(round, fmt.Errorf("journaled step has %d params, model has %d", len(pre.postGlobal), len(a.global)))
				}
				copy(a.global, pre.postGlobal)
				if pre.snapped {
					if err := restoreOuter(cfg.Outer, pre.postOuter); err != nil {
						return a.fail(round, err)
					}
				}
				if err := s.jrn.roundCommit(round, epoch); err != nil {
					return a.fail(round, err)
				}
				commits++
				if a.registry != nil {
					publishRegistry(a.registry, round, a.global, a.lineage)
				}
				emptyRounds = 0
				continue
			}
			pre.stepped = false
		}

		var cohort []*memberConn
		var preUpdates [][]float32
		var preMetrics []map[string]float64
		if pre != nil {
			// Re-open the journaled cohort: keep the updates that survived
			// in the log, re-ask only the members whose updates were lost.
			// Members that answered pre-crash are never re-trained — their
			// data streams must not advance twice for one round.
			for _, id := range pre.order {
				vec, err := s.decodeUpdate(pre.updates[id], len(a.global))
				if err != nil {
					// Treated as never journaled: the member is re-asked
					// below and its cached reply answers.
					log.Printf("fed: round %d: journaled update from %s skipped: %v", round, id, err)
					delete(pre.updates, id)
					continue
				}
				preUpdates = append(preUpdates, vec)
				preMetrics = append(preMetrics, map[string]float64{})
			}
			for _, id := range pre.cohort {
				if _, done := pre.updates[id]; done {
					continue
				}
				if mc := s.get(id); mc != nil {
					cohort = append(cohort, mc)
				}
			}
			if len(cohort) == 0 && len(preUpdates) == 0 {
				// Nothing journaled and nobody reconnected yet: retry the
				// round as a fresh draw against the refreshed membership.
				round--
				continue
			}
		} else {
			cohortInfos := s.reg.SampleCohort(a.rng, a.k, cfg.OverProvision)
			cohort = make([]*memberConn, 0, len(cohortInfos))
			ids := make([]string, 0, len(cohortInfos))
			for _, info := range cohortInfos {
				if mc := s.get(info.ID); mc != nil {
					cohort = append(cohort, mc)
					ids = append(ids, info.ID)
				}
			}
			if len(cohort) == 0 {
				// Sampled members vanished between the wait and the draw;
				// retry the round against the refreshed membership.
				round--
				continue
			}
			if err := s.jrn.roundOpen(round, epoch, ids); err != nil {
				return a.fail(round, err)
			}
		}

		// Meta values ride the wire as float64, so trace IDs are confined
		// to 52 bits — they survive the float round-trip exactly.
		traceID := a.traceRng.Uint64() & (1<<52 - 1)
		if traceID == 0 {
			traceID = 1
		}
		roundStart := time.Now()
		updates, clientMetrics, wire, phases, interrupted, err := s.exchangeRound(ctx, round, traceID, a.global, cohort, pre != nil)
		if err != nil {
			return a.fail(round, err)
		}
		if interrupted {
			runErr = ctx.Err()
			break
		}
		// Journaled pre-crash updates come first (their arrival order is
		// the log order), freshly collected ones after.
		if len(preUpdates) > 0 {
			updates = append(preUpdates, updates...)
			clientMetrics = append(preMetrics, clientMetrics...)
		}
		sentAfter, recvAfter := s.meter.Totals()
		sentRound, recvRound := sentAfter-sentPrev, recvAfter-recvPrev
		sentPrev, recvPrev = sentAfter, recvAfter

		// Depth 2 once any member identifies itself as an aggregation
		// tier (a relay stamps CohortKey on its upstream updates).
		for _, m := range clientMetrics {
			if _, ok := m[link.CohortKey]; ok {
				depth = 2
				break
			}
		}

		churn := s.reg.RoundDelta()
		rec := metrics.Round{
			Round:   round,
			Clients: len(updates),
			Depth:   depth,
			// Real wire traffic measured over the round's window, frame
			// headers and heartbeats included — not an element-count
			// estimate.
			WireSentBytes:     sentRound,
			WireRecvBytes:     recvRound,
			CommBytes:         sentRound + recvRound,
			EncodeMs:          float64(wire.encNs) / 1e6,
			DecodeMs:          float64(wire.decNs) / 1e6,
			Joins:             churn.Joins + churn.Rejoins,
			Evictions:         churn.Evictions,
			Stragglers:        churn.Stragglers,
			HeartbeatRTTMs:    churn.HeartbeatRTTMs,
			HeartbeatRTTP99Ms: churn.HeartbeatRTTP99Ms,
			TraceID:           traceID,
		}
		if wire.denseBytes > 0 {
			rec.CompressionRatio = float64(wire.payloadBytes) / float64(wire.denseBytes)
		}
		if len(updates) > 0 {
			aggSpan := s.tracer.Begin(obsv.PhaseAggregate)
			delta, err := MeanDelta(updates)
			if err != nil {
				return nil, err
			}
			cfg.Outer.Step(a.global, delta, round)
			// Journal the post-step params (bit-for-bit restore on replay,
			// no re-aggregation) plus the optimizer's momentum state.
			if err := s.jrn.outerStep(round, a.global, cfg.Outer); err != nil {
				return a.fail(round, err)
			}
			phases.pn.Add(obsv.PhaseAggregate, aggSpan.End(traceID))
			rec.UpdateNorm = norm2(delta)
			rec.TrainLoss = metrics.AggMetrics(clientMetrics)["loss"]
		}
		if cfg.Validation != nil && (round%a.evalEvery == 0 || round == cfg.Rounds) {
			evalSpan := s.tracer.Begin(obsv.PhaseEval)
			if err := a.globalModel.Params().LoadFlat(a.global); err != nil {
				return nil, err
			}
			rec.ValPPL = cfg.Validation.Evaluate(a.globalModel)
			phases.pn.Add(obsv.PhaseEval, evalSpan.End(traceID))
		}
		rec.WallMs = float64(time.Since(roundStart).Nanoseconds()) / 1e6
		rec.Phases = phases.pn.Breakdown()
		rec.SlowestID = phases.slowestID
		if phases.slowestID != "" {
			rec.SlowestPhase = phases.slowestPhase.String()
		}
		a.hist.Append(rec)
		if cfg.OnRound != nil {
			cfg.OnRound(rec)
		}
		s.publishRound(rec, nil)
		if len(updates) > 0 {
			// Seal the round (the journal's one fsync), publish the
			// committed checkpoint, and periodically fold the log into the
			// base checkpoint so replay time stays bounded.
			if err := s.jrn.roundCommit(round, epoch); err != nil {
				return a.fail(round, err)
			}
			commits++
			if a.registry != nil {
				publishRegistry(a.registry, round, a.global, a.lineage)
			}
			if commits%compactEvery == 0 {
				snap := make([]float32, len(a.global))
				copy(snap, a.global)
				base := &ckpt.Checkpoint{Round: round, Meta: map[string]float64{"loss": rec.TrainLoss}, Params: snap}
				// The base checkpoint holds params only, so the outer
				// optimizer's momentum must be carried into the fresh
				// log segment or a post-compaction resume would lose it.
				var carry []ckpt.Record
				if st := snapshotOuter(cfg.Outer); st != nil {
					carry = append(carry, ckpt.Record{Type: ckpt.RecStateSnapshot, Round: round, Member: snapOuter, Vec: st})
				}
				if err := s.jrn.compact(base, carry); err != nil {
					return a.fail(round, err)
				}
			}
		}
		if len(updates) == 0 {
			if emptyRounds++; emptyRounds >= maxEmptyRounds {
				return a.finish(fmt.Errorf("fed: no client updates for %d consecutive rounds", emptyRounds))
			}
		} else {
			emptyRounds = 0
		}
	}

	return a.finish(runErr)
}

// mintTrace draws a fresh 52-bit trace ID from the dedicated trace stream
// (Meta values ride the wire as float64, so trace IDs must survive the
// float round-trip exactly).
func (a *aggState) mintTrace() uint64 {
	id := a.traceRng.Uint64() & (1<<52 - 1)
	if id == 0 {
		id = 1
	}
	return id
}
