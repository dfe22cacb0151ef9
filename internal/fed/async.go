package fed

// asyncAggregator is the FedBuff-style asynchronous driver over aggState
// (see aggregator.go). The synchronous loop's collect window is a round
// deadline; here it is a buffer count: one dispatcher goroutine ("pump")
// per connected member keeps a continuously-versioned model task in flight,
// every reply is folded into a staleness-weighted buffer the moment it
// arrives, and every K folds the outer optimizer commits a new global model
// version. A straggler never gates the commit cadence — its update simply
// lands in a later buffer with weight 1/(1+staleness)^α.
//
// Concurrency discipline: pumps own the per-member send/receive I/O; the
// run loop is the only goroutine that touches the buffer, the journal, and
// the outer optimizer (arrivals serialize through one channel — the same
// single-appender rule the sync collect loop gives the WAL). The short
// mu-guarded section shared with the pumps covers the version counter, the
// per-version encoded-broadcast cache, and the commit wait channel.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"photon/internal/ckpt"
	"photon/internal/cluster"
	"photon/internal/link"
	"photon/internal/metrics"
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

// asyncArrival is one member's answer handed from a pump to the run loop.
type asyncArrival struct {
	answer
	version int // global model version the update trained on
}

type asyncAggregator struct {
	*aggState
	resume *walResume

	kBuf      int
	alpha     float64
	minHealth float64

	arrivals chan asyncArrival
	fatal    chan error    // pump-detected run-fatal errors (broken codec)
	stop     chan struct{} // closed when the run loop exits

	pumps  map[*memberConn]struct{} // run-loop-only
	pumpWg sync.WaitGroup

	// Pump-shared state. version is the committed global model version;
	// verWait is closed and replaced at every commit, waking pumps whose
	// member already trained the current version. The encoded broadcast is
	// cached per version so a thousand pumps cost one encode.
	mu          sync.Mutex
	version     int
	verWait     chan struct{}
	encVersion  int
	encModel    link.EncodedPayload
	lastTrained map[string]int // newest version each member has answered
	traceID     uint64         // trace ID stamped on the filling buffer's dispatches

	// Buffer state, run-loop-only: the staleness-weighted updates go into
	// aggState's fold, the rest is their bookkeeping. win is the filling
	// buffer's window: it opened when the previous version committed, and
	// accumulates fold time until the K-th fold seals it.
	bufStale    float64
	bufMetrics  []map[string]float64
	lastContrib map[string]int // newest trained version folded per member
	win         *window
	depth       int

	// Cached instruments, so the fold path does one registry lookup per
	// run instead of one per update.
	cFolds    *obsv.Counter
	cRejected *obsv.Counter
	gFill     *obsv.Gauge
	gStale    *obsv.Gauge
	gVersion  *obsv.Gauge
}

func newAsyncAggregator(st *aggState, resume *walResume) *asyncAggregator {
	cfg := st.cfg.Async.norm()
	a := &asyncAggregator{
		aggState:    st,
		resume:      resume,
		kBuf:        cfg.K,
		alpha:       cfg.Alpha,
		minHealth:   cfg.MinHealth,
		arrivals:    make(chan asyncArrival, st.cfg.ExpectClients+1),
		fatal:       make(chan error, 1),
		stop:        make(chan struct{}),
		pumps:       make(map[*memberConn]struct{}),
		verWait:     make(chan struct{}),
		encVersion:  -1,
		lastTrained: make(map[string]int),
		lastContrib: make(map[string]int),
		depth:       1,
		cFolds: obsv.Default.Counter("photon_async_folds_total",
			"Updates folded into the async staleness-weighted buffer."),
		cRejected: obsv.Default.Counter("photon_async_rejected_total",
			"Async updates dropped by admission (duplicate or below the health floor)."),
		gFill: obsv.Default.Gauge("photon_async_buffer_fill",
			"Updates currently folded into the async buffer (commits at K)."),
		gStale: obsv.Default.Gauge("photon_async_staleness",
			"Staleness in versions of the most recently folded update."),
		gVersion: obsv.Default.Gauge("photon_async_model_version",
			"Committed global model version."),
	}
	a.version = resume.committed
	a.traceID = mintTrace(st.traceRng)
	st.fold.reset(len(st.global))
	st.commitRec = ckpt.RecVersionCommit
	return a
}

func (a *asyncAggregator) run(ctx context.Context) (*Result, error) {
	// Pumps must be gone before Serve's shutdown path touches the member
	// connections (and before the leak checker looks).
	defer func() {
		close(a.stop)
		a.pumpWg.Wait()
	}()
	a.win = a.open(a.version+1, a.traceID, time.Now())

	// Resume: re-fold the journaled open buffer in log order — without
	// re-journaling, the records are already durable. The weights replay
	// exactly (the global version is constant while a buffer fills), so a
	// full buffer re-commits to bit-identical params.
	a.refold(a.resume.pending, func(u pendingUpdate, vec []float32) {
		a.bufferUpdate(u.member, u.trained, vec, map[string]float64{})
		a.noteTrained(u.member, u.trained)
	})
	if err := a.flush(); err != nil {
		return a.fail(a.version+1, err)
	}
	a.startPumps()

	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	var belowSince time.Time
	for a.version < a.cfg.Rounds {
		select {
		case <-ctx.Done():
			return a.finish(ctx.Err())
		case err := <-a.fatal:
			return a.fail(a.version+1, err)
		case ar := <-a.arrivals:
			err := a.admit(ar)
			if err == nil {
				err = a.flush()
			}
			if err != nil {
				return a.fail(a.version+1, err)
			}
		case <-tick.C:
			// The ticker adopts pumps for members that joined after the
			// last scan and watches the membership floor: persistent
			// starvation below MinClients ends the run with the partial
			// result, mirroring the sync loop's rejoin grace.
			a.startPumps()
			if a.s.reg.AliveCount() >= a.minClients {
				belowSince = time.Time{}
			} else if belowSince.IsZero() {
				belowSince = time.Now()
			} else if time.Since(belowSince) > a.rejoinGrace() {
				return a.finish(fmt.Errorf("fed: version %d: %w", a.version+1, a.s.belowFloor(a.minClients)))
			}
		}
	}
	return a.finish(nil)
}

// admit applies admission control to one arrival and folds it: duplicates
// (a cached redelivery whose original did land) and members below the
// health floor are dropped; everything else is journaled, then folded.
func (a *asyncAggregator) admit(ar asyncArrival) error {
	if prev, ok := a.lastContrib[ar.mc.id]; ok && ar.version <= prev {
		a.cRejected.Inc()
		return nil
	}
	if !a.s.reg.Admissible(ar.mc.id, a.minHealth) {
		a.cRejected.Inc()
		return nil
	}
	// Journal before folding: a crash after this append replays the fold,
	// a crash before it folds nothing — either way no double-count.
	if err := a.jrn.bufferFold(ar.mc.id, ar.version, ar.payload); err != nil {
		return err
	}
	a.bufferUpdate(ar.mc.id, ar.version, ar.update, ar.meta)
	a.s.reg.ObserveRound(ar.mc.id, ar.latency, cluster.OutcomeOK)
	return nil
}

// bufferUpdate folds one update, trained on the given model version, into the
// staleness-weighted buffer.
func (a *asyncAggregator) bufferUpdate(member string, version int, vec []float32, meta map[string]float64) {
	stale := max(a.version-version, 0)
	span := obsv.Begin(obsv.PhaseAggregate)
	a.fold.add(vec, stalenessWeight(a.version, version, a.alpha))
	a.win.pn.Add(obsv.PhaseAggregate, span.End())
	a.bufStale += float64(stale)
	a.bufMetrics = append(a.bufMetrics, meta)
	a.lastContrib[member] = version
	if _, ok := meta[link.CohortKey]; ok {
		a.depth = 2
	}
	a.cFolds.Inc()
	a.gFill.Set(float64(a.fold.n))
	a.gStale.Set(float64(stale))
}

// stalenessWeight is the weight an update trained on version trained folds
// at while current is the committed version: 1/(1+s)^alpha, s = current −
// trained (never negative). The live fold and replay's redo both use it.
func stalenessWeight(current, trained int, alpha float64) float64 {
	return 1 / math.Pow(1+float64(max(current-trained, 0)), alpha)
}

// commit is where the async fold goes: the buffer's weighted mean steps the
// outer optimizer into a new global model version and the window is sealed,
// in the same order as the sync loop's step. Replay redoes the version from
// the buffer's journaled folds.
func (a *asyncAggregator) commit() error {
	newVersion := a.version + 1
	w := a.win
	w.epoch = a.s.membershipEpoch()
	span := obsv.Begin(obsv.PhaseAggregate)
	delta := a.fold.mean()
	// The optimizer mutates global in place while pumps may be encoding
	// it, so the step shares the mu section that also publishes the new
	// version, invalidates the broadcast cache, and wakes waiting pumps.
	a.mu.Lock()
	a.cfg.Outer.Step(a.global, delta, newVersion)
	a.version = newVersion
	a.encVersion = -1
	close(a.verWait)
	a.verWait = make(chan struct{})
	a.traceID = mintTrace(a.traceRng)
	a.mu.Unlock()
	w.pn.Add(obsv.PhaseAggregate, span.End())
	w.rec.Clients, w.rec.Depth = a.fold.n, a.depth
	w.rec.ModelVersion, w.rec.BufferFill = newVersion, a.fold.n
	w.rec.MeanStaleness = a.bufStale / float64(a.fold.n)
	w.rec.UpdateNorm = norm2(delta)
	w.rec.TrainLoss = metrics.AggMetrics(a.bufMetrics)["loss"]
	w.folded, w.stale = true, a.staleSnapshot()
	if err := a.seal(w); err != nil {
		return err
	}
	a.gVersion.Set(float64(newVersion))
	a.gFill.Set(0)
	// Reset the buffer for the next window, which opens where this one was
	// sealed.
	a.fold.reset(len(a.global))
	a.bufStale = 0
	a.bufMetrics = a.bufMetrics[:0]
	a.win = a.open(newVersion+1, a.traceID, w.sealed)
	return nil
}

// flush commits the buffer once it holds K folds.
func (a *asyncAggregator) flush() error {
	if a.fold.n >= a.kBuf {
		return a.commit()
	}
	return nil
}

// startPumps adopts a dispatcher goroutine for every connected member that
// does not have one yet. Pumps are keyed by connection, so a rejoining
// member's fresh connection gets a fresh pump while the dead one's drains
// away.
func (a *asyncAggregator) startPumps() {
	for _, mc := range a.s.snapshot() {
		if _, have := a.pumps[mc]; !have {
			a.pumps[mc] = struct{}{}
			a.pumpWg.Add(1)
			go a.pump(mc)
		}
	}
}

// noteTrained records the newest model version a member has answered; its
// pump will not re-dispatch until a newer version commits.
func (a *asyncAggregator) noteTrained(id string, version int) {
	a.mu.Lock()
	if version > a.lastTrained[id] || a.lastTrained[id] == 0 {
		a.lastTrained[id] = version
	}
	a.mu.Unlock()
}

// staleSnapshot captures per-member version lag (current version minus the
// newest version the member has answered) for the observability feed.
func (a *asyncAggregator) staleSnapshot() map[string]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int, len(a.lastTrained))
	for id, v := range a.lastTrained {
		out[id] = max(a.version-v, 0)
	}
	return out
}

// modelFor returns the broadcast for one member: the current version, its
// (cached) encoded payload, and the trace ID to stamp. ok=false with a
// non-nil wait channel means the member has already trained the current
// version and its pump must wait for the next commit.
func (a *asyncAggregator) modelFor(id string) (ver int, enc link.EncodedPayload, traceID uint64, wait chan struct{}, ok bool, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if lt, seen := a.lastTrained[id]; seen && lt >= a.version {
		return 0, link.EncodedPayload{}, 0, a.verWait, false, nil
	}
	if a.encVersion != a.version {
		e, eerr := link.EncodeVector(a.s.modelEnc, a.global)
		if eerr != nil {
			return 0, link.EncodedPayload{}, 0, nil, false, eerr
		}
		a.encModel, a.encVersion = e, a.version
	}
	return a.version, a.encModel, a.traceID, nil, true, nil
}

// pump is one member's dispatcher: whenever the member has not yet trained
// the current global version, send it a versioned model task and hand the
// reply to the run loop; otherwise sleep until the next commit. It exits
// when the member's connection dies or the run ends.
func (a *asyncAggregator) pump(mc *memberConn) {
	defer a.pumpWg.Done()
	for {
		ver, enc, traceID, wait, ok, err := a.modelFor(mc.id)
		if err != nil {
			// A broken broadcast codec is deterministic and run-fatal,
			// exactly as in the sync loop.
			select {
			case a.fatal <- err:
			default:
			}
			return
		}
		if !ok {
			select {
			case <-wait:
				continue
			case <-mc.dead:
				return
			case <-a.stop:
				return
			}
		}
		if !a.dispatch(mc, ver, enc, traceID) {
			return
		}
	}
}

// dispatch asks the member one versioned model task and delivers its answer
// to the run loop. It returns false when the pump should exit (member lost
// or run over).
func (a *asyncAggregator) dispatch(mc *memberConn, ver int, enc link.EncodedPayload, traceID uint64) bool {
	// A dispatch is numbered as a sync round is: round r trains on the model
	// r−1 commits made, so version ver goes out as round ver+1. modelFor
	// sends a member each version at most once, so the round names one task
	// for that member, and its shared schedule follows the global model.
	task := ver + 1
	meta := map[string]float64{
		link.TraceKey:   float64(traceID),
		link.VersionKey: float64(ver),
		// Every async dispatch tolerates redelivery: a member that already
		// trained this round (its reply was lost to a crash or a dropped
		// connection) answers from its cache instead of advancing its data
		// stream a second time.
		link.ResumeKey: 1,
	}
	sendTO := a.cfg.RoundDeadline
	if sendTO <= 0 {
		sendTO = 30 * time.Second
	}
	ans, ok := a.s.ask(mc, task, meta, enc, sendTO, a.stop)
	if !ok {
		return false
	}
	// The update folds at the version dispatched with this task, never at
	// one the member claims: a member cannot shrink its own staleness.
	a.noteTrained(mc.id, ver)
	select {
	case a.arrivals <- asyncArrival{answer: ans, version: ver}:
	case <-a.stop:
	}
	return true
}
