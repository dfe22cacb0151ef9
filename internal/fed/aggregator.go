package fed

// The aggregation core behind Serve, RunRelay and Run. A window has five
// roles, each written once and shared by every driver:
//
//   - member session (session.go): the member side — join, echo heartbeats,
//     answer each model broadcast with one update, redeliver from the reply
//     cache. A leaf's work step trains; a relay's collects its cohort.
//   - ask (server.go): the aggregator's exchange with one member — send the
//     model, await the matching update, decode and validate it (decodeUpdate).
//   - collect: the one window loop. It runs each ask on a one-shot goroutine,
//     takes the answers over one channel and journals and folds them (take)
//     into one meanFold, at their staleness weight, until the window is full.
//   - commit: the window's mean steps the outer optimizer, or goes upstream.
//   - seal: the tail of every window — wire/churn accounting, evaluation,
//     history, OnRound, observers, journal commit, registry, compaction.
//
// A driver is a policy of three hooks — who is asked and when, when the
// window is full, the order answers fold in — and what it does around them:
//
//   - sync (runSync): a round asks its drawn cohort once, is full when each
//     has answered or failed or at the round deadline, folds in cohort order,
//     and its commit steps the global model.
//   - async (async.go): a version asks every idle member that has not trained
//     it, is full after K folds, folds in arrival order, and its commit makes
//     the next version.
//   - relay (relay.go): a parent round collects one sync window, whose mean
//     goes upstream for the root to step.
//
// Run (agg.go) is the sync driver over members that join through link.Pipe
// instead of a listener, with relays running RunRelay's code when tiered.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"photon/internal/ckpt"
	"photon/internal/cluster"
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

	k          int // cohort size per sync window (bounded by membership)
	minClients int
	evalEvery  int
	dropout    float64 // fed.Run's injected failure: each drawn member drops out with this probability
	alpha      float64 // staleness exponent (async); a sync window's staleness is 0, so its weight is 1
	// depth is the aggregation depth stamped on records: 1 until a member
	// identifies itself as a relay (it reports CohortKey), then sticky at 2 —
	// an empty window (every relay straggled) does not mean the topology
	// collapsed to flat.
	depth int

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

	// header is the journal's wal_open record: the driver's mode ("sync",
	// "async" or "relay" — a relay journals its upstream replies, not its
	// cohort's updates), the model's size, and the codec whose bytes the
	// log holds (at a relay the upstream one, "" when it takes the
	// parent's). carry, when non-nil, supplies the driver's records that
	// must survive a compaction beside the header and the outer snapshot.
	header  ckpt.Record
	carry   func() []ckpt.Record
	commits int

	// The asks in flight, run-loop-only: each member's current ask, the one
	// channel every ask answers on, and the goroutines a driver waits for
	// when it ends (stopAsks).
	asking  map[string]*asking
	answers chan *asking
	askers  sync.WaitGroup

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
		cfg: cfg, hist: &metrics.History{},
		k: cfg.ClientsPerRound, minClients: cfg.MinClients, evalEvery: cfg.EvalEvery,
		depth: 1, rng: rand.New(rand.NewSource(cfg.Seed)),
		asking: make(map[string]*asking), answers: make(chan *asking),
		header: ckpt.Record{Type: ckpt.RecWALOpen, Member: "sync", Round: int(cfg.ModelConfig.ParamCount()), Data: []byte(cmp.Or(cfg.Codec, "dense"))},
	}
	if cfg.Async != nil {
		a.alpha, a.header.Member = cfg.Async.norm().Alpha, "async"
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
// whose prior contents are returned for the driver to replay. A new log
// gets a.header, unsynced: recovery returns a valid prefix, so the log
// holds it or nothing until the first commit's fsync. A log with another
// header, or with records or a base but no header, is refused before
// anything replays it. The caller closes a.jrn.
func (a *aggState) openServer() (*ckpt.Recovery, error) {
	s, err := newServer(a.cfg)
	a.s = s
	if err != nil || a.cfg.WALDir == "" {
		return nil, err
	}
	wal, rv, err := ckpt.OpenWAL(a.cfg.WALDir, a.cfg.Failpoint)
	if err != nil {
		return nil, err
	}
	want, found := describeWAL(a.header), "a log with no header"
	if rv.Base == nil && len(rv.Records) == 0 {
		found, err = want, wal.Append(&a.header)
	} else if h := rv.Records; len(h) > 0 && h[0].Type == ckpt.RecWALOpen {
		found = describeWAL(h[0])
	}
	if err == nil && found != want {
		err = fmt.Errorf("%w: %s holds %s, want %s", errWALMismatch, a.cfg.WALDir, found, want)
	}
	if err != nil {
		wal.Close()
		return nil, err
	}
	a.jrn = &journal{wal}
	return rv, nil
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

// window is one collect window on its way to becoming a round record: what
// collect gathers into it, commit stamps on it, and seal stamps last.
type window struct {
	rec    metrics.Round
	start  time.Time
	pn     obsv.PhaseNanos
	folded bool           // the window advanced state: commit it
	stale  map[string]int // per-member version lag for observers (async only)
	sealed time.Time      // when seal stamped WallMs; the next async window opens here

	deadline time.Duration        // closes the window (0: none)
	expired  bool                 // the deadline passed
	asked    []*asking            // the window's asks, in the order they were made
	next     int                  // the next slot in fold order
	metrics  []map[string]float64 // folded members' metrics, in fold order
	staleSum float64              // Σ staleness of the folded updates
	slow     answer               // the slowest folded answer: the window's critical path
	encNs    int64                // encoding the window's broadcast

	// The folded answers' codec accounting: server-side decode time, and
	// the payload volume, encoded and dense, the compression ratio is
	// derived from.
	decNs, payloadBytes, denseBytes int64
}

// open starts the window for round (a sync round, or version round−1's
// buffer) with an empty fold.
func (a *aggState) open(round int, traceID uint64, start time.Time) *window {
	a.fold.reset(len(a.global))
	return &window{rec: metrics.Round{Round: round, TraceID: traceID, Depth: a.depth}, start: start}
}

// task is one ask: the member, the round its frame is sent as, and the frame
// — read-only, so one frame may go to many members.
type task struct {
	mc    *memberConn
	round int
	frame *link.Message
}

// asking is a task in flight on its own goroutine.
type asking struct {
	task
	stop chan struct{} // closed to end the ask: superseded, straggled or the run over
	ans  answer        // the reply, set before the ask is delivered
}

// policy is what one kind of window differs in: three hooks.
type policy struct {
	// asks names who is asked now. collect calls it when the window opens,
	// after every answer and on every tick; an error ends the window.
	asks func() ([]task, error)
	// full reports that the window has what it waits for.
	full func() bool
	// order places an answer in the window's fold order: answers fold in
	// slot order, w.next first. ok false drops the answer.
	order func(q *asking) (slot int, ok bool)
}

// collect is the one window loop. It runs each ask p names on a one-shot
// goroutine (launch) and takes the answers over one channel; those p places
// are journaled and folded (take) in p's order, until p says the window is
// full, its deadline passes — what has arrived then folds, the rest are
// stragglers — or ctx is cancelled (ctx.Err(): the window is discarded). A
// full window gets its codec and critical-path accounting: the slowest folded
// member's latency splits into broadcast (measured send), member
// train/encode/decode (self-reported), server decode (measured) and a wire
// residual. Any other error is a policy, encode or journal failure.
func (a *aggState) collect(ctx context.Context, w *window, p policy) error {
	held := map[int]*asking{}
	arrive := func(q *asking) error {
		if a.asking[q.mc.id] != q {
			return nil // superseded
		}
		delete(a.asking, q.mc.id)
		slot, ok := p.order(q)
		if !ok {
			return nil
		}
		for held[slot] = q; held[w.next] != nil; w.next++ {
			q := held[w.next]
			delete(held, w.next)
			if q.ans.update != nil {
				if err := a.take(w, q.ans); err != nil {
					return err
				}
			}
		}
		return nil
	}
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	var deadline <-chan time.Time
	for {
		tasks, err := p.asks()
		if err != nil {
			return err
		}
		for _, t := range tasks {
			a.launch(w, t)
		}
		if p.full() {
			break
		}
		if deadline == nil && w.deadline > 0 {
			timer := time.NewTimer(w.deadline)
			defer timer.Stop()
			deadline = timer.C
		}
		select {
		case q := <-a.answers:
			err = arrive(q)
		case <-deadline:
			w.expired = true
			for drained := false; !drained && err == nil; {
				select {
				case q := <-a.answers:
					err = arrive(q)
				default:
					drained = true
				}
			}
			// Past the deadline the window folds what has arrived, in order;
			// everyone else is a straggler (alive, but down-weighted).
			for ; w.next < len(w.asked) && err == nil; w.next++ {
				if q := held[w.next]; q == nil {
					q = w.asked[w.next]
					a.s.reg.ObserveRound(q.mc.id, w.deadline, cluster.OutcomeStraggler)
					a.end(q)
				} else if q.ans.update != nil {
					err = a.take(w, q.ans)
				}
			}
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	w.rec.EncodeMs += float64(w.encNs) / 1e6
	w.rec.DecodeMs += float64(w.decNs) / 1e6
	if w.denseBytes > 0 {
		w.rec.CompressionRatio = float64(w.payloadBytes) / float64(w.denseBytes)
	}
	if slow := w.slow; slow.mc != nil {
		memberTrain := int64(slow.meta[link.PhaseTrainNsKey])
		memberEnc := int64(slow.meta[link.PhaseEncNsKey])
		memberDec := int64(slow.meta[link.PhaseDecNsKey])
		w.pn.Add(obsv.PhaseBroadcast, slow.sendNs)
		w.pn.Add(obsv.PhaseTrain, memberTrain)
		w.pn.Add(obsv.PhaseEncode, w.encNs+memberEnc)
		w.pn.Add(obsv.PhaseDecode, memberDec+slow.srvDecNs)
		// Whatever the latency doesn't account for is wire transfer (plus
		// scheduling slack). Legacy members report no phase keys, so for
		// them the whole latency after the send lands here.
		w.pn.Add(obsv.PhaseWire, slow.latency.Nanoseconds()-slow.sendNs-memberTrain-memberEnc-memberDec-slow.srvDecNs)
		w.rec.SlowestID = slow.mc.id
		w.rec.SlowestPhase = w.pn.Slowest().String()
	}
	return nil
}

// launch asks t on its own goroutine, which hands the answer to collect over
// a.answers unless the ask is ended first. A member has one ask in flight: a
// new one supersedes it, ending it, and collect drops an answer it still
// delivers. No policy asks a member again on the connection it is busy on,
// so two asks never read one connection's updates.
func (a *aggState) launch(w *window, t task) {
	if prev := a.asking[t.mc.id]; prev != nil {
		close(prev.stop)
	}
	q := &asking{task: t, stop: make(chan struct{})}
	a.asking[t.mc.id], w.asked = q, append(w.asked, q)
	a.askers.Add(1)
	go func() {
		defer a.askers.Done()
		// The model send is bounded by the round deadline, or 30 s without one.
		sendTimeout := cmp.Or(a.cfg.RoundDeadline, 30*time.Second)
		q.ans = a.s.ask(t.mc, t.round, t.frame.Meta, t.frame.Payload, sendTimeout, q.stop)
		select {
		case a.answers <- q:
		case <-q.stop:
		}
	}()
}

// end ends q if it is still its member's ask in flight.
func (a *aggState) end(q *asking) {
	if a.asking[q.mc.id] == q {
		close(q.stop)
		delete(a.asking, q.mc.id)
	}
}

// stopAsks ends every ask in flight and waits for their goroutines: the
// member connections are the shutdown path's from here.
func (a *aggState) stopAsks() {
	for _, q := range a.asking {
		a.end(q)
	}
	a.askers.Wait()
}

// take journals one answer and folds it into w. collect takes answers in fold
// order, so the journal's order is the fold's: replay redoes it, and a crash
// after an append re-asks nothing from that member.
func (a *aggState) take(w *window, ans answer) error {
	if a.header.Member != "relay" {
		if err := a.jrn.memberUpdate(ans.round, ans.mc.id, ans.payload); err != nil {
			return err
		}
	}
	a.add(w, ans.round-1, ans.update, ans.meta)
	w.decNs += ans.srvDecNs
	w.payloadBytes += ans.payloadBytes
	w.denseBytes += ans.denseBytes
	a.s.reg.ObserveRound(ans.mc.id, ans.latency, cluster.OutcomeOK)
	if w.slow.mc == nil || ans.latency > w.slow.latency {
		w.slow = ans
	}
	return nil
}

// add folds one update, trained on version trained, into w at its staleness
// weight — always 1 in a sync window, whose answers trained on the version
// it broadcast — with its member's metrics. A member that reports a cohort
// size is a relay: the depth goes to 2.
func (a *aggState) add(w *window, trained int, vec []float32, meta map[string]float64) {
	span := obsv.Begin(obsv.PhaseAggregate)
	a.fold.add(vec, stalenessWeight(w.rec.Round-1, trained, a.alpha))
	w.pn.Add(obsv.PhaseAggregate, span.End())
	w.staleSum += float64(max(w.rec.Round-1-trained, 0))
	w.metrics = append(w.metrics, meta)
	if _, ok := meta[link.CohortKey]; ok {
		a.depth = 2
	}
}

// commit is where every window's folds go: their mean steps the outer
// optimizer into the next global model — a relay has none, and hands the
// mean upstream instead — and the record gets the folds' count, depth, mean
// staleness, update norm and mean loss. It returns the mean, nil when
// nothing folded: an empty window seals without committing. Nothing of the
// post-step state is journaled: replay redoes the step from the window's
// updates.
func (a *aggState) commit(w *window) []float32 {
	w.rec.Clients, w.rec.Depth = a.fold.n, a.depth
	if a.fold.n == 0 {
		return nil
	}
	span := obsv.Begin(obsv.PhaseAggregate)
	delta := a.fold.mean()
	if a.cfg.Outer != nil {
		a.cfg.Outer.Step(a.global, delta, w.rec.Round)
	}
	w.pn.Add(obsv.PhaseAggregate, span.End())
	w.rec.UpdateNorm, w.rec.TrainLoss = norm2(delta), metrics.AggMetrics(w.metrics)["loss"]
	w.rec.MeanStaleness = w.staleSum / float64(a.fold.n)
	w.folded = true
	return delta
}

// draw is the preamble of a sync window: hold it until the membership floor
// is met — giving evicted members a grace period to rejoin — then pick who
// is asked. Normally (reask nil) that is a fresh health-weighted draw, after
// which each drawn member drops out with probability a.dropout, drawn from
// the same rng in cohort order (nothing is drawn at 0): a dropped member is
// not asked. When a WAL replay handed the window back partially done, reask
// is the journaled cohort's members whose updates were lost (possibly none,
// but not nil), so nobody who answered before the crash trains the round
// twice.
func (a *aggState) draw(ctx context.Context, reask []string) ([]*memberConn, error) {
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
	if err := a.jrn.append(ckpt.Record{Type: ckpt.RecRoundCommit, Round: rec.Round}); err != nil {
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
	// The base checkpoint holds params only, so the header and the outer
	// optimizer's momentum must be carried into the fresh log segment or a
	// post-compaction resume would refuse the log or lose the momentum.
	carry := []ckpt.Record{a.header}
	if so, ok := a.cfg.Outer.(OuterState); ok {
		carry = append(carry, ckpt.Record{Type: ckpt.RecStateSnapshot, Round: rec.Round, Member: snapOuter, Vec: so.Snapshot()})
	}
	if a.carry != nil {
		carry = append(carry, a.carry()...)
	}
	return a.jrn.wal.Compact(base, carry)
}

// cohortPolicy is a sync window's policy, the root's and a relay's alike:
// ask the cohort once, each member with the frame encodeBroadcast built for
// it; the window is full once each has answered or failed, or at the round
// deadline; answers fold by cohort position, whatever order they arrive in,
// and an answer to another window's ask is late and dropped. A resumed
// round is asked with ResumeKey set: a member that already trained it
// answers from its cache instead of advancing its data stream twice.
func (a *aggState) cohortPolicy(w *window, cohort []*memberConn, resumed bool) policy {
	w.deadline = a.cfg.RoundDeadline
	asked := false
	return policy{
		asks: func() ([]task, error) {
			if asked {
				return nil, nil
			}
			asked = true
			meta := map[string]float64{link.TraceKey: float64(w.rec.TraceID)}
			if resumed {
				meta[link.ResumeKey] = 1
			}
			span := obsv.Begin(obsv.PhaseEncode)
			frames, deltas, err := a.s.encodeBroadcast(w.rec.Round, a.global, cohort, meta)
			w.encNs, w.rec.DeltaBroadcasts = span.End(), deltas
			tasks := make([]task, len(frames))
			for i := range frames {
				tasks[i] = task{cohort[i], w.rec.Round, &frames[i]}
			}
			return tasks, err
		},
		full:  func() bool { return asked && (w.next == len(cohort) || w.expired) },
		order: func(q *asking) (int, bool) { i := slices.Index(w.asked, q); return i, i >= 0 },
	}
}

// runSync is the synchronous driver: each round draws a cohort, collects
// one cohort window, commits and seals it. stopAtPPL ends the run early once
// a round evaluates at or below it (fed.Run's StopAtPPL; 0 never stops).
func (a *aggState) runSync(ctx context.Context, resume *walResume, stopAtPPL float64) (*Result, error) {
	defer a.stopAsks()
	// emptyRounds counts consecutive rounds that aggregated zero updates
	// because cohort members failed (straggled past the deadline or were
	// dropped). A few in a row mean the run is burning rounds without
	// training — better to stop with the partial result than to silently
	// "complete". A round whose members had nothing to send (fed.Run's
	// dropouts, and relays whose cohorts all dropped out) is not one.
	const maxEmptyRounds = 3
	emptyRounds := 0

	var runErr error
	for round := resume.committed + 1; round <= a.cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		// A WAL replay may hand this round back opened but unsealed (consumed
		// exactly once): the updates journaled before the crash fold first,
		// in log order, and only the cohort members they do not cover are
		// re-asked. The round then commits and seals like any other.
		w := a.open(round, 0, time.Time{})
		var reask []string
		resumed := resume.open == round
		if resumed {
			resume.open = 0
			done := make(map[string]bool, len(resume.pending))
			a.refold(resume.pending, func(u pendingUpdate, vec []float32) {
				a.add(w, round-1, vec, map[string]float64{})
				done[u.member] = true
			})
			reask = slices.DeleteFunc(append([]string{}, resume.cohort...), func(id string) bool { return done[id] })
		}
		cohort, err := a.draw(ctx, reask)
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
			if err := a.jrn.roundOpen(round, ids); err != nil {
				return a.fail(round, err)
			}
		}

		w.rec.TraceID, w.start = mintTrace(a.traceRng), time.Now()
		if err := a.collect(ctx, w, a.cohortPolicy(w, cohort, resumed)); ctx.Err() != nil {
			runErr = ctx.Err()
			break
		} else if err != nil {
			return a.fail(round, err)
		}
		a.commit(w)
		if err := a.seal(w); err != nil {
			return a.fail(round, err)
		}
		if a.fold.n > 0 {
			emptyRounds = 0
		} else if w.rec.Evictions+w.rec.Stragglers > 0 {
			if emptyRounds++; emptyRounds >= maxEmptyRounds {
				return a.finish(fmt.Errorf("fed: no client updates for %d consecutive rounds", emptyRounds))
			}
		}
		if stopAtPPL > 0 && w.rec.Perplexity > 0 && w.rec.Perplexity <= stopAtPPL {
			break
		}
	}
	return a.finish(runErr)
}
