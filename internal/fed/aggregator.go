package fed

// The aggregation core behind Serve, RunRelay and Run. A networked round has
// five roles, each written once and shared by every driver:
//
//   - member session (session.go): the member side — join, echo heartbeats,
//     answer each model broadcast with one update, redeliver from the reply
//     cache. A leaf's work step trains; a relay's collects its cohort.
//   - ask (server.go): the aggregator's exchange with one member — send the
//     model, await the matching update, decode and validate it (decodeUpdate).
//   - collect: the preamble of a deadline-bounded window — wait for the
//     membership floor, pick the cohort.
//   - fold (outeropt.go): every update is added to one meanFold as it
//     arrives; the window's mean steps the outer optimizer.
//   - seal: the tail of every window — wire/churn accounting, evaluation,
//     history, OnRound, observers, journal commit, registry, compaction.
//
// What is left in a driver is what actually differs between them: when a
// collect window closes, at what weight an update folds, and where the
// outer step goes.
//
//   - syncAggregator: a window closes at the round deadline; updates fold
//     at weight 1 and the outer step updates the global model.
//   - asyncAggregator (async.go): a window closes after K arrivals; they
//     fold at their staleness weight and the outer step commits a version.
//   - relay (relay.go): a window is one parent round; updates fold at
//     weight 1 and their mean goes upstream, for the root to step.
//
// Run (agg.go) is no driver of its own: it is the sync driver over members
// that join through link.Pipe instead of a listener, with relays running
// RunRelay's code when tiered.

import (
	"context"
	"errors"
	"fmt"
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

// aggState is what every driver aggregates over: server plumbing, model and
// optimizer state, run bookkeeping, and the durable side. A relay builds
// one with no model, Validation, or registry.
type aggState struct {
	s   *server
	cfg ServerConfig

	k          int // cohort size per collect window (bounded by membership)
	minClients int
	evalEvery  int
	dropout    float64 // fed.Run's injected failure: each drawn member drops out with this probability

	rng      *rand.Rand // cohort sampling / model init stream
	traceRng *rand.Rand // trace-ID stream, separate so tracing never perturbs sampling

	globalModel *nn.Model
	global      []float32
	hist        *metrics.History
	fold        meanFold // the open window's updates; driver-loop-only

	// jrn journals state transitions when the durable control plane is on;
	// nil (all methods no-ops) otherwise. Only the driver's single-threaded
	// loop appends, so the journal needs no locking of its own.
	jrn      *journal
	registry *ckpt.Registry
	lineage  map[string]string

	// commitRec is the record type that seals a window in the journal (a
	// round commit unless the driver says otherwise), and carry, when
	// non-nil, supplies the driver's records that must survive
	// a compaction beside the outer-optimizer snapshot.
	commitRec ckpt.RecordType
	carry     func() []ckpt.Record
	commits   int

	// Wire-accounting windows tile the run with no gaps: each window starts
	// where the previous one ended, so traffic between exchanges
	// (heartbeats during aggregation and evaluation, rejoin waits) is
	// attributed to the next record rather than lost, and the per-record
	// sums add up to the meter's cumulative totals.
	sentPrev, recvPrev int64

	// crashed is set when an armed crash point fired: the exit must look
	// like a crash to the members, not a clean shutdown.
	crashed bool
}

// newAggState builds the aggregation state every driver starts from, with
// cfg's cohort bounds and defaults resolved. Serve and RunRelay then add
// the server with openServer.
func newAggState(cfg ServerConfig) *aggState {
	a := &aggState{
		cfg: cfg, hist: &metrics.History{}, commitRec: ckpt.RecRoundCommit,
		k: cfg.ClientsPerRound, minClients: cfg.MinClients, evalEvery: cfg.EvalEvery,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	if a.k <= 0 || a.k > cfg.ExpectClients {
		a.k = cfg.ExpectClients
	}
	if a.minClients < 1 {
		a.minClients = 1
	}
	if a.evalEvery <= 0 {
		a.evalEvery = 1
	}
	return a
}

// openServer adds what Serve and RunRelay share before any connection is
// accepted: the cohort-side server and — with cfg.WALDir set — the journal,
// whose prior contents are returned for the driver to replay. The caller
// closes a.jrn.
func (a *aggState) openServer() (*ckpt.Recovery, error) {
	s, err := newServer(a.cfg)
	if err != nil {
		return nil, err
	}
	a.s = s
	if a.cfg.WALDir == "" {
		return nil, nil
	}
	wal, recovered, err := ckpt.OpenWAL(a.cfg.WALDir, a.cfg.Failpoint)
	if err != nil {
		return nil, err
	}
	a.jrn = newJournal(wal)
	return recovered, nil
}

// initModel draws the global model from rng — always, even when init then
// replaces its params, so the rng stream stays aligned with an
// uninterrupted run's cohort draws — and seeds the trace-ID stream, which
// is separate so tracing never perturbs sampling.
func (a *aggState) initModel(init []float32) error {
	a.traceRng = rand.New(rand.NewSource(int64(uint64(a.cfg.Seed) ^ 0x9E3779B97F4A7C15)))
	a.globalModel = nn.NewModel(a.cfg.ModelConfig, a.rng)
	a.global = a.globalModel.Params().Flatten(nil)
	if init != nil && len(init) != len(a.global) {
		return fmt.Errorf("fed: resumed params have %d elements, model has %d (config changed between runs?)", len(init), len(a.global))
	}
	copy(a.global, init)
	return nil
}

// finish packages the (possibly partial) run: completed rounds are never
// discarded, even when the run ends on a membership or no-progress error.
func (a *aggState) finish(err error) (*Result, error) {
	if lerr := a.globalModel.Params().LoadFlat(a.global); lerr != nil {
		return nil, lerr
	}
	return &Result{History: a.hist, Global: a.global, FinalModel: a.globalModel}, err
}

// fail routes a loop error through finish, downgrading the exit to abrupt
// when it is an armed crash point firing.
func (a *aggState) fail(round int, err error) (*Result, error) {
	if errors.Is(err, ckpt.ErrFailpoint) {
		a.crashed = true
	}
	return a.finish(fmt.Errorf("fed: round %d: %w", round, err))
}

// rejoinGrace is how long a window waits for the membership floor before
// the driver gives up on it.
func (a *aggState) rejoinGrace() time.Duration {
	if a.cfg.RoundDeadline > 0 {
		return a.cfg.RoundDeadline
	}
	return 10 * time.Second
}

// mintTrace draws a fresh trace ID from the dedicated trace stream. Meta
// values ride the wire as float64, so trace IDs are confined to 52 bits —
// they survive the float round-trip exactly.
func mintTrace(rng *rand.Rand) uint64 {
	id := rng.Uint64() & (1<<52 - 1)
	if id == 0 {
		id = 1
	}
	return id
}

// window is one collect window on its way to becoming a round record. The
// driver pre-fills what only it knows (participants, depth, update norm,
// loss, version and staleness); exchangeRound adds the codec and
// critical-path accounting; seal stamps the rest.
type window struct {
	rec    metrics.Round
	start  time.Time
	pn     obsv.PhaseNanos
	epoch  uint64         // membership epoch journaled on the commit
	folded bool           // the window advanced state: commit it
	stale  map[string]int // per-member version lag for observers (async only)
	sealed time.Time      // when seal stamped WallMs; the next async window opens here
}

func (a *aggState) open(round int, traceID uint64, start time.Time) *window {
	return &window{rec: metrics.Round{Round: round, TraceID: traceID}, start: start}
}

// collect is the preamble of a deadline-bounded window: hold it until the
// membership floor is met — giving evicted members a grace period to rejoin
// — then pick who is asked. Normally (reask nil) that is a fresh
// health-weighted draw, after which each drawn member drops out with
// probability a.dropout, drawn from the same rng in cohort order (nothing is
// drawn at 0): a dropped member is not asked. When a WAL replay handed the
// window back partially done, reask is the journaled cohort's members whose
// updates were lost (possibly none, but not nil), so nobody who answered
// before the crash trains the round twice.
func (a *aggState) collect(ctx context.Context, reask []string) ([]*memberConn, error) {
	if err := a.s.waitAlive(ctx, a.minClients, a.rejoinGrace()); err != nil {
		return nil, err
	}
	ids := reask
	if ids == nil {
		for _, info := range a.s.reg.SampleCohort(a.rng, a.k, a.cfg.OverProvision) {
			if a.dropout == 0 || a.rng.Float64() >= a.dropout {
				ids = append(ids, info.ID)
			}
		}
	}
	cohort := make([]*memberConn, 0, len(ids))
	for _, id := range ids {
		if mc := a.s.get(id); mc != nil {
			cohort = append(cohort, mc)
		}
	}
	return cohort, nil
}

// seal closes a window: measure its share of the wire and the churn,
// evaluate when due, emit the record (history, OnRound, observers), and —
// when the window advanced state — commit it and periodically fold the log
// into the base checkpoint so replay time stays bounded. The order is the
// same for every driver, so crash points land between the same records:
// the window's updates are journaled before the record exists, the commit
// after observers saw it.
func (a *aggState) seal(w *window) error {
	s, rec := a.s, &w.rec
	// Real wire traffic measured over the window, frame headers and
	// heartbeats included — not an element-count estimate.
	sent, recv := s.meter.Totals()
	rec.WireSentBytes, rec.WireRecvBytes = sent-a.sentPrev, recv-a.recvPrev
	rec.CommBytes = rec.WireSentBytes + rec.WireRecvBytes
	a.sentPrev, a.recvPrev = sent, recv
	churn := s.reg.RoundDelta()
	rec.Joins = churn.Joins + churn.Rejoins
	rec.Evictions = churn.Evictions
	rec.Stragglers = churn.Stragglers
	rec.HeartbeatRTTMs = churn.HeartbeatRTTMs
	rec.HeartbeatRTTP99Ms = churn.HeartbeatRTTP99Ms
	if a.cfg.Validation != nil && (rec.Round%a.evalEvery == 0 || rec.Round == a.cfg.Rounds) {
		evalSpan := obsv.Begin(obsv.PhaseEval)
		if err := a.globalModel.Params().LoadFlat(a.global); err != nil {
			return err
		}
		rec.Perplexity = a.cfg.Validation.Evaluate(a.globalModel)
		w.pn.Add(obsv.PhaseEval, evalSpan.End())
	}
	w.sealed = time.Now()
	rec.WallMs = float64(w.sealed.Sub(w.start).Nanoseconds()) / 1e6
	rec.Phases = w.pn.Breakdown()
	a.hist.Append(*rec)
	if a.cfg.OnRound != nil {
		a.cfg.OnRound(*rec)
	}
	s.publishRound(*rec, w.stale)
	if !w.folded {
		return nil
	}
	// The commit is the journal's one fsync; the registry then publishes
	// the checkpoint it made durable.
	if err := a.jrn.append(ckpt.Record{Type: a.commitRec, Round: rec.Round, Epoch: w.epoch}); err != nil {
		return err
	}
	a.commits++
	if a.registry != nil {
		publishRegistry(a.registry, rec.Round, a.global, a.lineage)
	}
	if !a.jrn.enabled() || a.commits%compactEvery != 0 {
		return nil
	}
	snap := make([]float32, len(a.global))
	copy(snap, a.global)
	base := &ckpt.Checkpoint{Round: rec.Round, Meta: map[string]float64{"loss": rec.TrainLoss}, Params: snap}
	// The base checkpoint holds params only, so the outer optimizer's
	// momentum must be carried into the fresh log segment or a
	// post-compaction resume would lose it.
	var carry []ckpt.Record
	if so, ok := a.cfg.Outer.(OuterState); ok {
		carry = append(carry, ckpt.Record{Type: ckpt.RecStateSnapshot, Round: rec.Round, Member: snapOuter, Vec: so.Snapshot()})
	}
	if a.carry != nil {
		carry = append(carry, a.carry()...)
	}
	return a.jrn.wal.Compact(base, carry)
}

// syncAggregator is the deadline-based synchronous mode: one collect →
// fold → seal cycle per round, stragglers dropped (and down-weighted) at
// the round deadline.
type syncAggregator struct {
	*aggState
	resume *walResume
	// depth is the aggregation depth stamped on round records: 1 until a
	// relay identifies itself, then sticky at 2 — an empty round (every
	// relay straggled) does not mean the topology collapsed to flat.
	depth int
	// stopAtPPL ends the run early once a round evaluates at or below it
	// (fed.Run's StopAtPPL; 0 never stops).
	stopAtPPL float64
}

func (a *syncAggregator) run(ctx context.Context) (*Result, error) {
	cfg, resume := a.cfg, a.resume

	// emptyRounds counts consecutive rounds that aggregated zero updates
	// because cohort members failed (straggled past the deadline or were
	// dropped). A few in a row mean the run is burning rounds without
	// training — better to stop with the partial result than to silently
	// "complete". A round whose members had nothing to send (fed.Run's
	// dropouts, and relays whose cohorts all dropped out) is not one.
	const maxEmptyRounds = 3
	emptyRounds := 0

	var runErr error
	for round := resume.committed + 1; round <= cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		// A WAL replay may hand this round back opened but unsealed (consumed
		// exactly once): the updates journaled before the crash fold first,
		// in log order, and only the cohort members they do not cover are
		// re-asked. The round then steps and seals like any other.
		a.fold.reset(len(a.global))
		var clientMetrics []map[string]float64
		var reask []string
		resumed := resume.open == round
		if resumed {
			resume.open = 0
			done := make(map[string]bool, len(resume.pending))
			a.refold(resume.pending, func(u pendingUpdate, vec []float32) {
				a.fold.add(vec, 1)
				clientMetrics = append(clientMetrics, map[string]float64{})
				done[u.member] = true
			})
			reask = make([]string, 0, len(resume.cohort))
			for _, id := range resume.cohort {
				if !done[id] {
					reask = append(reask, id)
				}
			}
		}
		epoch := a.s.membershipEpoch()
		cohort, err := a.collect(ctx, reask)
		if err != nil {
			if ctx.Err() != nil {
				runErr = ctx.Err()
				break
			}
			return a.finish(fmt.Errorf("fed: round %d: %w", round, err))
		}
		if len(cohort) == 0 && a.fold.n == 0 && a.dropout == 0 {
			// Sampled members vanished between the wait and the draw (or
			// nothing was journaled and nobody reconnected yet); retry the
			// round as a fresh draw against the refreshed membership. A
			// cohort emptied by injected dropouts runs as an empty round.
			round--
			continue
		}
		if !resumed {
			ids := make([]string, len(cohort))
			for i, mc := range cohort {
				ids[i] = mc.id
			}
			if err := a.jrn.roundOpen(round, epoch, ids); err != nil {
				return a.fail(round, err)
			}
		}

		w := a.open(round, mintTrace(a.traceRng), time.Now())
		w.epoch = epoch
		freshMetrics, interrupted, err := a.s.exchangeRound(ctx, w, a.global, cohort, resumed, a.jrn, &a.fold)
		if err != nil {
			return a.fail(round, err)
		}
		if interrupted {
			runErr = ctx.Err()
			break
		}
		clientMetrics = append(clientMetrics, freshMetrics...)
		// Depth 2 once any member identifies itself as an aggregation tier
		// (a relay stamps CohortKey on its upstream updates).
		for _, m := range clientMetrics {
			if _, ok := m[link.CohortKey]; ok {
				a.depth = 2
				break
			}
		}
		w.rec.Clients, w.rec.Depth = a.fold.n, a.depth
		if err := a.step(w, clientMetrics); err != nil {
			return a.fail(round, err)
		}
		if a.fold.n > 0 {
			emptyRounds = 0
		} else if w.rec.Evictions+w.rec.Stragglers > 0 {
			if emptyRounds++; emptyRounds >= maxEmptyRounds {
				return a.finish(fmt.Errorf("fed: no client updates for %d consecutive rounds", emptyRounds))
			}
		}
		if a.stopAtPPL > 0 && w.rec.Perplexity > 0 && w.rec.Perplexity <= a.stopAtPPL {
			break
		}
	}
	return a.finish(runErr)
}

// step is where a sync round's fold goes:
// the uniform mean of the round's folded updates steps the outer optimizer
// on the global model, and the window is sealed. Nothing of the post-step
// state is journaled: replay redoes the step from the round's updates. An
// empty round seals without committing.
func (a *aggState) step(w *window, clientMetrics []map[string]float64) error {
	if a.fold.n > 0 {
		aggSpan := obsv.Begin(obsv.PhaseAggregate)
		delta := a.fold.mean()
		a.cfg.Outer.Step(a.global, delta, w.rec.Round)
		w.pn.Add(obsv.PhaseAggregate, aggSpan.End())
		w.rec.UpdateNorm = norm2(delta)
		w.rec.TrainLoss = metrics.AggMetrics(clientMetrics)["loss"]
		w.folded = true
	}
	return a.seal(w)
}
