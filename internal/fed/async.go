package fed

// asyncAggregator is the FedBuff-style asynchronous driver over aggState
// (see aggregator.go). Its window closes at a buffer count, not a deadline:
// every member is kept busy with the newest committed version, every reply
// folds into a staleness-weighted buffer as it arrives, and every K folds
// the outer optimizer commits a new global model version. A straggler never
// gates the commit cadence — its update lands in a later buffer with weight
// 1/(1+staleness)^α.
//
// Concurrency discipline: the run loop alone touches the buffer, the
// journal, the outer optimizer and the driver's state. It encodes each
// version once and hands the read-only frame to one-shot asks, whose answers
// serialize through one channel — a sync window's single-appender rule for
// the WAL. An ask still in flight when a newer version commits goes on, and
// its answer folds into a later buffer at its staleness.

import (
	"context"
	"math"
	"time"

	"photon/internal/link"
	"photon/internal/obsv"
)

// DefaultAsyncMinHealth is the admission floor the photon Job layer applies
// in async mode: members whose cluster health score fell below it keep
// receiving models (and can recover), but their updates are not folded.
const DefaultAsyncMinHealth = 0.1

// AsyncConfig tunes FedBuff-style asynchronous buffered aggregation
// (ServerConfig.Async).
type AsyncConfig struct {
	// K is the buffer size: a new global model version commits every K
	// folded updates (default 2). K must not exceed the number of members
	// expected to keep contributing, or commits stall waiting for a buffer
	// that can never fill.
	K int

	// Alpha is the staleness-weighting exponent: an update trained on a
	// model s versions behind the current one folds with weight
	// 1/(1+s)^Alpha. 0 weights all updates equally; larger values
	// down-weight stale updates harder. Negative selects the default 0.5.
	Alpha float64

	// MinHealth gates admission on the cluster health score (the same
	// score cohort sampling weights by in sync mode): updates from alive
	// members whose score is below the floor are dropped instead of
	// folded. 0 disables the gate.
	MinHealth float64
}

// norm returns the config with defaults applied.
func (c *AsyncConfig) norm() AsyncConfig {
	out := *c
	if out.K < 1 {
		out.K = 2
	}
	if out.Alpha < 0 {
		out.Alpha = 0.5
	}
	if out.MinHealth < 0 {
		out.MinHealth = 0
	}
	return out
}

type asyncAggregator struct {
	*aggState
	AsyncConfig // defaults applied

	// Run-loop-only: the newest version each member has answered, and since
	// when the membership has been below its floor.
	trained    map[string]int
	belowSince time.Time

	// Cached instruments, so the fold path does one registry lookup per
	// run instead of one per update.
	cFolds    *obsv.Counter
	cRejected *obsv.Counter
	gFill     *obsv.Gauge
	gStale    *obsv.Gauge
	gVersion  *obsv.Gauge
}

func newAsyncAggregator(st *aggState) *asyncAggregator {
	return &asyncAggregator{
		aggState:    st,
		AsyncConfig: st.cfg.Async.norm(),
		trained:     make(map[string]int),
		cFolds: obsv.Default.Counter("photon_async_folds_total",
			"Updates folded into the async staleness-weighted buffer."),
		cRejected: obsv.Default.Counter("photon_async_rejected_total",
			"Async updates dropped by admission (below the health floor)."),
		gFill: obsv.Default.Gauge("photon_async_buffer_fill",
			"Updates currently folded into the async buffer (commits at K)."),
		gStale: obsv.Default.Gauge("photon_async_staleness",
			"Staleness in versions of the most recently folded update."),
		gVersion: obsv.Default.Gauge("photon_async_model_version",
			"Committed global model version."),
	}
}

func (a *asyncAggregator) run(ctx context.Context, resume *walResume) (*Result, error) {
	defer a.stopAsks()
	w := a.open(resume.committed+1, mintTrace(a.traceRng), time.Now())
	// Resume: re-fold the journaled open buffer in log order — without
	// re-journaling, the records are already durable. The weights replay
	// exactly (the global version is constant while a buffer fills), so a
	// full buffer re-commits to bit-identical params.
	a.refold(resume.pending, func(u pendingUpdate, vec []float32) {
		a.add(w, u.trained, vec, map[string]float64{})
		a.trained[u.member] = max(a.trained[u.member], u.trained)
	})
	for w.rec.Round <= a.cfg.Rounds {
		if a.fold.n < a.K { // a resumed buffer may be full already
			if err := a.collect(ctx, w, a.policy(w)); ctx.Err() != nil {
				return a.finish(ctx.Err())
			} else if err != nil {
				return a.fail(w.rec.Round, err)
			}
		}
		if err := a.commitVersion(w); err != nil {
			return a.fail(w.rec.Round, err)
		}
		w = a.open(w.rec.Round+1, mintTrace(a.traceRng), w.sealed)
	}
	return a.finish(nil)
}

// policy is an async window's: ask every idle member that has not trained
// the committed version; the window is full at K folds; answers fold in
// arrival order, but not those of members below the health floor. Asking
// also watches the membership floor: persistent starvation below MinClients
// ends the run with the partial result, as a sync round's rejoin grace does.
func (a *asyncAggregator) policy(w *window) policy {
	version := w.rec.Round - 1
	var frame *link.Message // the version's broadcast, encoded when its first member is asked
	return policy{
		asks: func() ([]task, error) {
			if a.s.reg.AliveCount() >= a.minClients {
				a.belowSince = time.Time{}
			} else if a.belowSince.IsZero() {
				a.belowSince = time.Now()
			} else if time.Since(a.belowSince) > a.rejoinGrace() {
				return nil, a.s.belowFloor(a.minClients)
			}
			var tasks []task
			for _, mc := range a.s.snapshot() {
				if q := a.asking[mc.id]; q != nil && q.mc == mc {
					continue // busy
				}
				if v, ok := a.trained[mc.id]; ok && v >= version {
					continue
				}
				if frame == nil {
					span := obsv.Begin(obsv.PhaseEncode)
					p, err := link.EncodeVector(a.s.modelEnc, a.global)
					w.encNs += span.End()
					if err != nil {
						return nil, err // a broken broadcast codec is run-fatal, as in a sync round
					}
					// A dispatch is numbered as a sync round is: version v goes
					// out as round v+1, so its shared schedule follows the
					// global model. Every dispatch tolerates redelivery: a
					// member that already trained this round (its reply was
					// lost to a crash or a dropped connection) answers from its
					// cache instead of advancing its data stream a second time.
					frame = &link.Message{Payload: p, Meta: map[string]float64{
						link.TraceKey: float64(w.rec.TraceID), link.VersionKey: float64(version), link.ResumeKey: 1,
					}}
				}
				tasks = append(tasks, task{mc, w.rec.Round, frame})
			}
			return tasks, nil
		},
		full: func() bool { return a.fold.n >= a.K },
		order: func(q *asking) (int, bool) {
			// An answer — an empty one too, from a member still connected —
			// means the member trained the version its task carried; it is
			// asked again once a newer one commits. The update folds at that
			// version, never at one the member claims: a member cannot
			// shrink its own staleness.
			trained := q.round - 1
			if q.ans.update != nil || a.s.get(q.mc.id) == q.mc {
				a.trained[q.mc.id] = max(a.trained[q.mc.id], trained)
			}
			if q.ans.update == nil {
				return 0, false
			}
			if !a.s.reg.Admissible(q.mc.id, a.MinHealth) {
				a.cRejected.Inc()
				return 0, false
			}
			a.cFolds.Inc()
			a.gFill.Set(float64(a.fold.n + 1))
			a.gStale.Set(float64(max(version-trained, 0)))
			return w.next, true
		},
	}
}

// stalenessWeight is the weight an update trained on version trained folds
// at while current is the committed version: 1/(1+s)^alpha, s = current −
// trained (never negative). The live fold and replay's redo both use it.
func stalenessWeight(current, trained int, alpha float64) float64 {
	return 1 / math.Pow(1+float64(max(current-trained, 0)), alpha)
}

// commitVersion commits the buffer as version w.rec.Round through the
// shared commit and seals it, its record carrying the version, the fill and
// each member's version lag. Replay redoes the version from the buffer's
// journaled folds.
func (a *asyncAggregator) commitVersion(w *window) error {
	w.epoch = a.s.membershipEpoch()
	a.commit(w)
	w.rec.ModelVersion, w.rec.BufferFill = w.rec.Round, a.fold.n
	w.stale = make(map[string]int, len(a.trained))
	for id, v := range a.trained {
		w.stale[id] = max(w.rec.Round-v, 0)
	}
	if err := a.seal(w); err != nil {
		return err
	}
	a.gVersion.Set(float64(w.rec.Round))
	a.gFill.Set(0)
	return nil
}
