package fed

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/ckpt"
	"photon/internal/cluster"
	"photon/internal/data"
	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/nn"
	"photon/internal/obsv"
)

// joinTimeout bounds the handshake of a freshly accepted connection: a
// stray connection that never sends MsgJoin is dropped without ever
// counting toward the membership.
const joinTimeout = 10 * time.Second

// handshakeTimeout bounds the client's wait for the aggregator's codec
// announcement; a pre-codec aggregator never announces, so waiting past
// this is a configuration error, not a transient.
const handshakeTimeout = 10 * time.Second

// ServerConfig configures a networked aggregator (the Agg component) that
// coordinates real LLM-C processes over the link protocol.
type ServerConfig struct {
	ModelConfig nn.Config
	Seed        int64

	// Rng, when non-nil, drives all of the aggregator's randomness (model
	// init, cohort sampling). Nil seeds a fresh source from Seed. Injecting
	// it makes churn simulations reproducible across processes.
	Rng *rand.Rand

	Rounds          int
	ExpectClients   int // block until this many clients join before round 1
	ClientsPerRound int // K; 0 means full participation

	// MinClients is the per-round participation floor once training has
	// started: a round does not begin until at least this many members are
	// alive (default 1), giving evicted clients a window to rejoin.
	MinClients int

	// HeartbeatInterval enables liveness tracking: the aggregator pings
	// every member on this cadence and evicts members that miss MissedBeats
	// consecutive beats. Zero disables heartbeats (pure round-driven
	// failure detection, the pre-elastic behavior).
	HeartbeatInterval time.Duration
	// MissedBeats is the eviction threshold (default 3).
	MissedBeats int

	// RoundDeadline bounds one round's model/update exchange. When it
	// expires the round aggregates the updates that arrived and counts the
	// missing members as stragglers (they stay alive, but their health
	// score — and so their sampling weight — drops). Zero blocks until
	// every cohort member answers or fails, the pre-elastic behavior.
	RoundDeadline time.Duration

	// OverProvision inflates the sampled cohort by this fraction (e.g.
	// 0.25 → 25% extra members) so that a round deadline with stragglers
	// still collects about K updates. Zero disables over-provisioning.
	OverProvision float64

	// Codec names the wire codec for parameter payloads ("dense", "flate",
	// "q8", "topk:<keep>", or anything added via link.RegisterCodec; empty
	// → "dense"). The aggregator announces it on every fresh connection
	// and clients ack by echoing its wire ID in their join, so a mixed
	// fleet fails fast at join time instead of corrupting rounds. Model
	// broadcasts under an update-only codec (topk) fall back to lossless
	// flate.
	Codec string

	Outer      OuterOpt
	Validation *data.ValidationSet
	EvalEvery  int

	// OnRound, when non-nil, is called synchronously with each round's
	// record right after it is appended to the history.
	OnRound func(metrics.Round)

	// WALDir, when non-empty, journals every round-state transition to a
	// write-ahead log in that directory. An aggregator restarted on the
	// same directory (same -id) replays the log, restores the global
	// params, outer-optimizer state, and any in-flight round, and resumes
	// where the crash left off instead of starting over.
	WALDir string

	// RegistryDir, when non-empty, publishes each committed round's
	// checkpoint into a content-addressed model registry rooted there and
	// moves its "latest" tag. Registry failures never abort training.
	RegistryDir string

	// Failpoint, when non-nil, arms crash-point injection inside the WAL:
	// the append whose site matches the armed site returns
	// ckpt.ErrFailpoint after the record is on disk, and Serve exits
	// abruptly (no MsgShutdown) as a real crash would. Test-only.
	Failpoint *ckpt.Failpoint

	// Async, when non-nil, swaps the deadline-based synchronous round loop
	// for FedBuff-style asynchronous buffered aggregation: the server
	// broadcasts continuously-versioned models, folds updates into a
	// staleness-weighted buffer as they arrive, and commits a new global
	// model version every AsyncConfig.K folds — stragglers contribute late
	// instead of being dropped at a deadline. Rounds then counts version
	// commits, and ClientsPerRound/OverProvision/RoundDeadline lose their
	// cohort meaning (RoundDeadline still bounds sends and the no-progress
	// grace). Nil keeps the synchronous mode bit-for-bit unchanged.
	Async *AsyncConfig
}

// memberConn is the aggregator's handle on one connected member: the
// connection plus the channels its reader goroutine communicates through.
type memberConn struct {
	id      string
	conn    *link.Conn
	updates chan *link.Message // latest-wins buffer of MsgUpdate replies
	dead    chan struct{}      // closed when the reader exits (conn lost)
}

// server is the state shared between the accept loop, per-member readers,
// the liveness loop, and the round loop.
type server struct {
	cfg ServerConfig
	reg *cluster.Registry

	// Negotiated wire codec: the configured name and wire ID announced to
	// every joiner, the session codec updates decode through, and the
	// model-broadcast encoder (the session codec, or its lossless fallback
	// for update-only codecs).
	codecName string
	codecID   uint8
	codec     link.Codec
	modelEnc  link.Codec

	// meter sums real wire bytes over every member connection; per-round
	// deltas ground the round records' communication cost in measured
	// traffic (headers and heartbeats included) rather than element-count
	// estimates.
	meter *link.Meter

	// jrn journals round-state transitions when the durable control plane
	// is on (ServerConfig.WALDir); nil (all methods no-ops) otherwise.
	// Only exchangeRound's single-threaded collect loop appends member
	// updates, so the journal needs no locking of its own.
	jrn *journal

	mu    sync.Mutex
	conns map[string]*memberConn

	// tracer ring-buffers round phase spans. It is always present and
	// always driven (End doubles as the phase stopwatch), but records
	// nothing until an observer subscribes — keeping the instrumented
	// round path allocation-free when nobody is watching.
	tracer *obsv.Tracer

	// observers are read-only MsgObserve subscribers (photon-top). They
	// are never members: no registry entry, no heartbeats, no cohort
	// slots — just a Meta-only MsgMetrics frame after every round.
	obsMu     sync.Mutex
	observers map[*link.Conn]struct{}
}

// newServer resolves the configured codec and builds the shared server
// state behind both the root aggregator (Serve) and the relay tier
// (RunRelay): the membership registry, the connection map, and the wire
// meter.
func newServer(cfg ServerConfig) (*server, error) {
	codecName := cfg.Codec
	if codecName == "" {
		codecName = "dense"
	}
	sessionCodec, err := link.NewCodec(codecName)
	if err != nil {
		return nil, fmt.Errorf("fed: server codec: %w", err)
	}
	return &server{
		cfg:       cfg,
		codecName: codecName,
		codecID:   link.CodecWireID(codecName),
		codec:     sessionCodec,
		modelEnc:  link.ModelCodec(sessionCodec),
		meter:     &link.Meter{},
		reg: cluster.New(cluster.Config{
			HeartbeatInterval: cfg.HeartbeatInterval,
			MissedBeats:       cfg.MissedBeats,
		}),
		conns:     make(map[string]*memberConn),
		tracer:    obsv.NewTracer(0),
		observers: make(map[*link.Conn]struct{}),
	}, nil
}

// addObserver admits a MsgObserve subscriber and starts a drain reader
// that detects its departure (observers send nothing after the handshake).
func (s *server) addObserver(conn *link.Conn) {
	s.obsMu.Lock()
	s.observers[conn] = struct{}{}
	s.obsMu.Unlock()
	s.tracer.Subscribe()
	go func() {
		for {
			if _, err := conn.Recv(); err != nil {
				break
			}
		}
		s.removeObserver(conn)
	}()
}

func (s *server) removeObserver(conn *link.Conn) {
	s.obsMu.Lock()
	_, ok := s.observers[conn]
	delete(s.observers, conn)
	s.obsMu.Unlock()
	if ok {
		s.tracer.Unsubscribe()
		conn.Close()
	}
}

func (s *server) closeObservers() {
	s.obsMu.Lock()
	conns := make([]*link.Conn, 0, len(s.observers))
	for c := range s.observers {
		conns = append(conns, c)
	}
	s.obsMu.Unlock()
	for _, c := range conns {
		// Best-effort goodbye so a tailing dashboard can distinguish a
		// clean end-of-run from a lost aggregator.
		c.SendTimeout(&link.Message{Type: link.MsgShutdown}, time.Second)
		s.removeObserver(c)
	}
}

// publishRound fans one round record out to every attached observer as a
// codec-free Meta-only frame. Sends are bounded and best-effort: a stuck
// observer is detached, never allowed to stall the round loop. stale, when
// non-nil, carries per-member staleness in versions (async mode only; the
// synchronous loop passes nil).
func (s *server) publishRound(rec metrics.Round, stale map[string]int) {
	s.obsMu.Lock()
	n := len(s.observers)
	conns := make([]*link.Conn, 0, n)
	for c := range s.observers {
		conns = append(conns, c)
	}
	s.obsMu.Unlock()
	if n == 0 {
		return
	}
	msg := observeMessage(rec, s.reg.Alive(), stale)
	for _, c := range conns {
		if err := c.SendTimeout(msg, time.Second); err != nil {
			s.removeObserver(c)
		}
	}
}

// startLoops launches the accept loop (and, when configured, the liveness
// loop) and returns a stop function that cancels both and waits for them to
// exit. The accept loop admits members for the whole run, so evicted or
// crashed members can rejoin at any time.
func (s *server) startLoops(ctx context.Context, l *link.Listener) (stop func()) {
	loopCtx, cancel := context.WithCancel(ctx)
	var loops sync.WaitGroup
	loops.Add(1)
	go func() {
		defer loops.Done()
		s.acceptLoop(loopCtx, l)
	}()
	if s.cfg.HeartbeatInterval > 0 {
		loops.Add(1)
		go func() {
			defer loops.Done()
			s.livenessLoop(loopCtx)
		}()
	}
	return func() {
		cancel()
		loops.Wait()
	}
}

// expireMemberIO expires every member connection's pending I/O — the
// cancellation path's way of breaking a round waiter out of an unbounded
// Send so shutdown can proceed.
func (s *server) expireMemberIO() {
	for _, mc := range s.snapshot() {
		mc.conn.SetDeadline(time.Now())
	}
}

// shutdownMembers ends every member session. Graceful delivers MsgShutdown
// with a bounded drain window so clients exit cleanly; abrupt just closes
// the connections — the crash path a relay takes when it loses its parent,
// so its cohort's resilient clients treat the loss as a transport failure
// and reconnect to a restarted relay instead of terminating.
func (s *server) shutdownMembers(graceful bool) {
	var shut sync.WaitGroup
	for _, mc := range s.snapshot() {
		shut.Add(1)
		go func(mc *memberConn) {
			defer shut.Done()
			if !graceful {
				mc.conn.Close()
				return
			}
			// SendTimeout installs a fresh write deadline once it holds
			// the send mutex, overriding any expiry the cancellation
			// watcher left behind.
			mc.conn.SendTimeout(&link.Message{Type: link.MsgShutdown}, 3*time.Second)
			select {
			case <-mc.dead:
				// The reader is gone; drain inbound for a bounded grace
				// period ourselves — closing with an unread in-flight
				// update would reset the connection and destroy the
				// shutdown message before the client reads it.
				mc.conn.SetReadDeadline(time.Now().Add(3 * time.Second))
				for {
					if _, err := mc.conn.Recv(); err != nil {
						break
					}
				}
			case <-time.After(3 * time.Second):
			}
			mc.conn.Close()
		}(mc)
	}
	shut.Wait()
}

// Serve runs the elastic aggregator protocol on the listener: wait for
// ExpectClients joins, then for each round sample a (possibly
// over-provisioned) cohort from the alive membership, send the global
// model, collect updates until all answer or RoundDeadline expires,
// aggregate what arrived, and advance the outer optimizer.
//
// Membership is elastic: the accept loop keeps admitting clients for the
// whole run, so an evicted or crashed client can rejoin mid-run (it resumes
// at the current round — MsgModel carries the round number that keys the
// shared schedule), and a brand-new client can join late. Members whose
// connection breaks are evicted immediately; with HeartbeatInterval set,
// silent members are evicted after MissedBeats missed beats. Per-round
// joins, evictions, stragglers, and mean heartbeat RTT are stamped on each
// round record.
//
// Cancelling ctx aborts the join wait and the round loop promptly: members
// are sent a best-effort MsgShutdown, and Serve returns the partial Result
// for the completed rounds together with ctx.Err().
func Serve(ctx context.Context, l *link.Listener, cfg ServerConfig) (*Result, error) {
	if cfg.Outer == nil || cfg.Rounds <= 0 || cfg.ExpectClients <= 0 {
		return nil, fmt.Errorf("fed: invalid server config %+v", cfg)
	}
	if err := cfg.ModelConfig.Validate(); err != nil {
		return nil, err
	}
	k := cfg.ClientsPerRound
	if k <= 0 || k > cfg.ExpectClients {
		k = cfg.ExpectClients
	}
	minClients := cfg.MinClients
	if minClients < 1 {
		minClients = 1
	}
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}

	// Durable control plane: open the registry and the WAL (replaying any
	// prior journal) before accepting a single connection, so a restart
	// that cannot recover fails fast instead of re-training from scratch.
	var registry *ckpt.Registry
	if cfg.RegistryDir != "" {
		if registry, err = ckpt.OpenRegistry(cfg.RegistryDir); err != nil {
			return nil, err
		}
	}
	resume := &serverResume{}
	aResume := &asyncResume{}
	if cfg.WALDir != "" {
		wal, rv, werr := ckpt.OpenWAL(cfg.WALDir, cfg.Failpoint)
		if werr != nil {
			return nil, werr
		}
		s.jrn = newJournal(wal)
		defer s.jrn.close()
		// The two modes journal different record sequences, so each replays
		// its own: a WAL written in one mode does not resume the other.
		if cfg.Async != nil {
			aResume = replayAsyncWAL(rv)
		} else {
			resume = replayServerWAL(rv)
		}
	}

	// The accept loop admits members for the entire run. Handshakes run in
	// their own goroutines so a stray connection that never sends MsgJoin
	// can neither hold a membership slot nor stall other joiners.
	stopLoops := s.startLoops(ctx, l)

	// On cancellation, expire in-flight member I/O via deadlines. Deadlines
	// only — a round waiter stuck in an unbounded model Send holds the
	// connection's send mutex, which is exactly what the deadline must
	// break before the shutdown path below can deliver MsgShutdown.
	watchDone := make(chan struct{})
	watcherExited := make(chan struct{})
	go func() {
		defer close(watcherExited)
		select {
		case <-ctx.Done():
			s.expireMemberIO()
		case <-watchDone:
		}
	}()

	// Shutdown: stop admitting, then deliver MsgShutdown to every member
	// still connected and give each a bounded grace period to read it
	// before the connection is torn down. An armed-failpoint exit flips
	// graceful off: the members see a dropped connection — exactly what a
	// real aggregator crash looks like — and resilient clients reconnect
	// to the restarted process instead of shutting down cleanly.
	graceful := true
	defer func() {
		stopLoops()
		close(watchDone)
		<-watcherExited
		s.closeObservers()
		s.shutdownMembers(graceful)
	}()

	// Initial membership: wait (ctx-bounded) for the expected cohort.
	if err := s.waitAlive(ctx, cfg.ExpectClients, 0); err != nil {
		return nil, err
	}

	rng := cfg.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	// traceRng mints round trace IDs from its own stream so tracing never
	// perturbs the cohort-sampling draws (run determinism is seeded).
	traceRng := rand.New(rand.NewSource(int64(uint64(cfg.Seed) ^ 0x9E3779B97F4A7C15)))
	globalModel := nn.NewModel(cfg.ModelConfig, rng)
	// The model init always draws from rng — even on resume — so the rng
	// stream stays aligned with an uninterrupted run's cohort sampling;
	// the recovered params then overwrite the fresh init in place.
	global := globalModel.Params().Flatten(nil)
	if cfg.Async != nil {
		if aResume.global != nil {
			if len(aResume.global) != len(global) {
				return nil, fmt.Errorf("fed: WAL params have %d elements, model has %d (config changed between runs?)", len(aResume.global), len(global))
			}
			copy(global, aResume.global)
		}
		if err := restoreOuter(cfg.Outer, aResume.outer); err != nil {
			return nil, err
		}
	} else if resume.global != nil || resume.committed > 0 || resume.open != nil {
		if resume.global != nil {
			if len(resume.global) != len(global) {
				return nil, fmt.Errorf("fed: WAL params have %d elements, model has %d (config changed between runs?)", len(resume.global), len(global))
			}
			copy(global, resume.global)
		}
		if err := restoreOuter(cfg.Outer, resume.outer); err != nil {
			return nil, err
		}
	}
	hist := &metrics.History{}
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}
	// finish packages the (possibly partial) run: completed rounds are
	// never discarded, even when the run ends on a membership or
	// no-progress error.
	finish := func(err error) (*Result, error) {
		if lerr := globalModel.Params().LoadFlat(global); lerr != nil {
			return nil, lerr
		}
		return &Result{History: hist, Global: global, FinalModel: globalModel}, err
	}
	// fail routes a round-loop error through finish, downgrading the exit
	// to abrupt when it is an armed crash point firing.
	fail := func(round int, err error) (*Result, error) {
		if errors.Is(err, ckpt.ErrFailpoint) {
			graceful = false
		}
		return finish(fmt.Errorf("fed: round %d: %w", round, err))
	}
	// lineage stamps registry manifests with enough to reproduce the job.
	lineage := map[string]string{
		"job": fmt.Sprintf("seed=%d rounds=%d expect=%d cohort=%d codec=%s outer=%s params=%d",
			cfg.Seed, cfg.Rounds, cfg.ExpectClients, k, s.codecName, cfg.Outer.Name(), len(global)),
	}
	st := &aggState{
		s:           s,
		cfg:         cfg,
		k:           k,
		minClients:  minClients,
		evalEvery:   evalEvery,
		rng:         rng,
		traceRng:    traceRng,
		globalModel: globalModel,
		global:      global,
		hist:        hist,
		registry:    registry,
		lineage:     lineage,
		finish:      finish,
		fail:        fail,
	}
	var core Aggregator
	if cfg.Async != nil {
		core = newAsyncAggregator(st, aResume)
	} else {
		core = &syncAggregator{aggState: st, resume: resume}
	}
	lineage["mode"] = core.Mode()
	return core.run(ctx)
}

// acceptLoop admits connections until ctx is cancelled, handing each off to
// a handshake goroutine.
func (s *server) acceptLoop(ctx context.Context, l *link.Listener) {
	var handshakes sync.WaitGroup
	defer handshakes.Wait()
	for {
		conn, err := l.AcceptContext(ctx)
		if err != nil {
			return
		}
		handshakes.Add(1)
		go func() {
			defer handshakes.Done()
			s.handshake(ctx, conn)
		}()
	}
}

// handshake performs the bounded join exchange on a fresh connection: the
// server announces its wire codec, and only a MsgJoin that acks the
// announcement by echoing the codec's wire ID admits the connection into
// the membership. Anything else — a stray connection, a legacy client that
// joined blind, a client configured for a different codec — closes without
// side effects, so a mixed fleet can never corrupt a round.
func (s *server) handshake(ctx context.Context, conn *link.Conn) {
	// Unblock the bounded Recv early if the server is shutting down.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-done:
		}
	}()
	announce := &link.Message{
		Type:     link.MsgCodecAnnounce,
		ClientID: s.codecName,
		Meta:     map[string]float64{link.CodecIDKey: float64(s.codecID)},
	}
	if err := conn.SendTimeout(announce, joinTimeout); err != nil {
		conn.Close()
		return
	}
	msg, err := conn.RecvTimeout(joinTimeout)
	if err != nil {
		conn.Close()
		return
	}
	if msg.Type == link.MsgObserve {
		// Read-only subscriber: no codec echo required (the observe
		// stream is Meta-only), no membership slot taken.
		s.addObserver(conn)
		return
	}
	if msg.Type != link.MsgJoin || msg.ClientID == "" {
		conn.Close()
		return
	}
	if echo, ok := msg.Meta[link.CodecIDKey]; !ok || uint8(echo) != s.codecID {
		conn.Close()
		return
	}
	s.admit(msg.ClientID, conn)
}

// admit registers a joined connection, displacing any previous connection
// held under the same identity (fast reconnect), and starts its reader.
func (s *server) admit(id string, conn *link.Conn) {
	mc := &memberConn{
		id:      id,
		conn:    conn,
		updates: make(chan *link.Message, 1),
		dead:    make(chan struct{}),
	}
	conn.SetMeter(s.meter)
	s.mu.Lock()
	old := s.conns[id]
	s.conns[id] = mc
	s.mu.Unlock()
	if old != nil {
		old.conn.Close()
	}
	s.reg.Join(id)
	go s.readLoop(mc)
}

// readLoop is the single receiver for one member connection: it answers
// nothing itself but routes heartbeat echoes into the registry and round
// updates into the member's latest-wins buffer. A receive error evicts the
// member (unless a newer connection has already displaced this one).
func (s *server) readLoop(mc *memberConn) {
	defer close(mc.dead)
	for {
		msg, err := mc.conn.Recv()
		if err != nil {
			s.drop(mc, "connection lost")
			return
		}
		switch msg.Type {
		case link.MsgHeartbeat:
			rtt := time.Duration(0)
			if ns, ok := msg.Meta[link.HeartbeatSentKey]; ok {
				rtt = time.Since(time.Unix(0, int64(ns)))
			}
			s.reg.Heartbeat(mc.id, rtt)
		case link.MsgUpdate:
			// Latest-wins: a stale straggler reply never blocks the reader
			// or shadows the current round's update.
			select {
			case mc.updates <- msg:
			default:
				select {
				case <-mc.updates:
				default:
				}
				select {
				case mc.updates <- msg:
				default:
				}
			}
		default:
			// Ignore anything else (duplicate joins, metrics-only frames).
		}
	}
}

// livenessLoop pings every member on the heartbeat cadence and evicts the
// ones that stopped answering.
func (s *server) livenessLoop(ctx context.Context) {
	t := time.NewTicker(s.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			for _, mc := range s.snapshot() {
				go func(mc *memberConn) {
					ping := &link.Message{
						Type: link.MsgHeartbeat,
						Meta: map[string]float64{link.HeartbeatSentKey: float64(time.Now().UnixNano())},
					}
					if err := mc.conn.SendTimeout(ping, s.cfg.HeartbeatInterval); err != nil {
						s.drop(mc, "heartbeat send failed")
						mc.conn.Close()
					}
				}(mc)
			}
			for _, id := range s.reg.ExpireDead() {
				if mc := s.get(id); mc != nil {
					s.remove(mc)
					mc.conn.Close()
				}
			}
		}
	}
}

// roundWire is one round's codec accounting: encode/decode wall time and
// the encoded-vs-dense payload volume the compression ratio is derived
// from.
type roundWire struct {
	encNs        int64
	decNs        int64
	payloadBytes int64 // codec-encoded payload bytes exchanged
	denseBytes   int64 // what the same payloads would cost as dense float32
}

// roundPhases is one round's critical-path phase accounting: the phase
// accumulator plus straggler attribution (the last member to answer, and
// the phase that member spent the most time in).
type roundPhases struct {
	pn           obsv.PhaseNanos
	slowestID    string
	slowestPhase obsv.Phase
}

// exchangeRound encodes the global model once with the negotiated codec,
// broadcasts it to the cohort, and collects codec-decoded updates until
// every member answers or fails, the round deadline expires, or ctx is
// cancelled (interrupted=true discards the round). A member whose update
// fails to decode is dropped — a codec disagreement must never silently
// poison the aggregate. err is only non-nil for a server-side encode
// failure (a broken codec), which aborts the run.
//
// traceID is the round-scoped trace identifier stamped on every MsgModel;
// members echo it (and their per-phase self-reports) on their MsgUpdate,
// which is how phases returns a full critical-path breakdown: the slowest
// successful member's latency is split into broadcast (measured send),
// member train/encode/decode (self-reported), server decode (measured per
// member), and a wire residual.
func (s *server) exchangeRound(ctx context.Context, round int, traceID uint64, global []float32, cohort []*memberConn, resume bool) (updates [][]float32, clientMetrics []map[string]float64, wire roundWire, phases roundPhases, interrupted bool, err error) {
	encSpan := s.tracer.Begin(obsv.PhaseEncode)
	encModel, err := link.EncodeVector(s.modelEnc, global)
	if err != nil {
		return nil, nil, wire, phases, false, err
	}
	wire.encNs = encSpan.End(traceID)

	type reply struct {
		mc       *memberConn
		update   []float32           // nil when the member failed
		payload  link.EncodedPayload // update as it arrived, for the journal
		meta     map[string]float64
		latency  time.Duration
		sendNs   int64 // model broadcast send duration
		srvDecNs int64 // server-side decode of this member's update
	}
	results := make(chan reply, len(cohort))
	stop := make(chan struct{})
	defer close(stop)

	var decNs, payloadBytes, denseBytes atomic.Int64
	for _, mc := range cohort {
		go func(mc *memberConn) {
			// Drain any stale straggler update from a previous round.
			select {
			case <-mc.updates:
			default:
			}
			start := time.Now()
			meta := map[string]float64{link.TraceKey: float64(traceID)}
			if resume {
				// Redelivery of an in-flight round after a crash: a member
				// that already trained it re-sends its cached update
				// instead of advancing its data stream a second time.
				meta[link.ResumeKey] = 1
			}
			sendSpan := s.tracer.Begin(obsv.PhaseBroadcast)
			err := mc.conn.SendTimeout(&link.Message{
				Type:    link.MsgModel,
				Round:   int32(round),
				Meta:    meta,
				Payload: encModel,
			}, s.cfg.RoundDeadline)
			sendNs := sendSpan.End(traceID)
			if err != nil {
				s.drop(mc, "model send failed")
				mc.conn.Close()
				results <- reply{mc: mc}
				return
			}
			payloadBytes.Add(int64(encModel.WireBytes()))
			denseBytes.Add(int64(len(global)) * 4)
			for {
				select {
				case msg := <-mc.updates:
					if msg.Round != int32(round) {
						continue // late reply from an earlier round
					}
					decSpan := s.tracer.Begin(obsv.PhaseDecode)
					vec, derr := s.decodeUpdate(msg.Payload, len(global))
					srvDecNs := decSpan.End(traceID)
					decNs.Add(srvDecNs)
					if derr != nil {
						s.drop(mc, "update decode failed")
						mc.conn.Close()
						results <- reply{mc: mc}
						return
					}
					payloadBytes.Add(int64(msg.Payload.WireBytes()))
					denseBytes.Add(int64(msg.Payload.Elems) * 4)
					results <- reply{mc: mc, update: vec, payload: msg.Payload, meta: msg.Meta,
						latency: time.Since(start), sendNs: sendNs, srvDecNs: srvDecNs}
					return
				case <-mc.dead:
					results <- reply{mc: mc}
					return
				case <-stop:
					return
				}
			}
		}(mc)
	}

	var deadlineC <-chan time.Time
	if s.cfg.RoundDeadline > 0 {
		timer := time.NewTimer(s.cfg.RoundDeadline)
		defer timer.Stop()
		deadlineC = timer.C
	}
	// slow tracks the slowest successful member: its latency dominates the
	// round's wall time, so its phase split IS the round's critical path.
	var slow reply
	collect := func() {
		wire.decNs = decNs.Load()
		wire.payloadBytes = payloadBytes.Load()
		wire.denseBytes = denseBytes.Load()
		if slow.mc == nil {
			return
		}
		memberTrain := int64(slow.meta[link.PhaseTrainNsKey])
		memberEnc := int64(slow.meta[link.PhaseEncNsKey])
		memberDec := int64(slow.meta[link.PhaseDecNsKey])
		phases.pn.Add(obsv.PhaseBroadcast, slow.sendNs)
		phases.pn.Add(obsv.PhaseTrain, memberTrain)
		phases.pn.Add(obsv.PhaseEncode, wire.encNs+memberEnc)
		phases.pn.Add(obsv.PhaseDecode, memberDec+slow.srvDecNs)
		// Whatever the latency doesn't account for is wire transfer (plus
		// scheduling slack). Legacy members report no phase keys, so for
		// them the whole latency after the send lands here.
		wireNs := slow.latency.Nanoseconds() - slow.sendNs - memberTrain - memberEnc - memberDec - slow.srvDecNs
		phases.pn.Add(obsv.PhaseWire, wireNs)
		phases.slowestID = slow.mc.id
		phases.slowestPhase = phases.pn.Slowest()
	}
	responded := make(map[string]bool, len(cohort))
	for len(responded) < len(cohort) {
		select {
		case r := <-results:
			responded[r.mc.id] = true
			if r.update != nil {
				// Journal the update (as received) before counting it: a
				// crash after this append re-collects nothing from this
				// member.
				if jerr := s.jrn.memberUpdate(round, r.mc.id, r.payload); jerr != nil {
					return nil, nil, wire, phases, false, jerr
				}
				updates = append(updates, r.update)
				clientMetrics = append(clientMetrics, r.meta)
				s.reg.ObserveRound(r.mc.id, r.latency, cluster.OutcomeOK)
				if slow.mc == nil || r.latency > slow.latency {
					slow = r
				}
			}
		case <-deadlineC:
			// Deadline: aggregate the partial round; everyone who has not
			// answered is a straggler (alive, but down-weighted).
			for _, mc := range cohort {
				if !responded[mc.id] {
					s.reg.ObserveRound(mc.id, s.cfg.RoundDeadline, cluster.OutcomeStraggler)
				}
			}
			collect()
			return updates, clientMetrics, wire, phases, false, nil
		case <-ctx.Done():
			return nil, nil, wire, phases, true, nil
		}
	}
	collect()
	return updates, clientMetrics, wire, phases, false, nil
}

// decodeUpdate decodes a member's update with the session codec. The
// declared element count must match the model before any codec allocates
// for it, so a mis-sized update can neither OOM the aggregator nor poison
// the fold. Live arrivals and journaled payloads replayed on resume both
// come through here.
func (s *server) decodeUpdate(p link.EncodedPayload, elems int) ([]float32, error) {
	if p.Elems != elems {
		return nil, fmt.Errorf("fed: update has %d elements, model has %d", p.Elems, elems)
	}
	vec, err := link.DecodePayload(s.codec, p)
	if err == nil && len(vec) != elems {
		err = fmt.Errorf("fed: update decoded to %d elements, model has %d", len(vec), elems)
	}
	return vec, err
}

// waitAlive blocks until at least n members are alive. grace > 0 bounds the
// wait; grace == 0 waits until ctx is cancelled.
func (s *server) waitAlive(ctx context.Context, n int, grace time.Duration) error {
	var deadlineC <-chan time.Time
	if grace > 0 {
		timer := time.NewTimer(grace)
		defer timer.Stop()
		deadlineC = timer.C
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.reg.AliveCount() >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-deadlineC:
			if alive := s.reg.AliveCount(); alive == 0 {
				return fmt.Errorf("all clients lost")
			} else {
				return fmt.Errorf("%d alive members, need %d", alive, n)
			}
		case <-tick.C:
		}
	}
}

// drop evicts a member whose connection mc failed — unless a newer
// connection has already displaced mc (fast rejoin), in which case the
// stale connection just goes away without touching the membership.
func (s *server) drop(mc *memberConn, reason string) {
	s.mu.Lock()
	current := s.conns[mc.id] == mc
	if current {
		delete(s.conns, mc.id)
	}
	s.mu.Unlock()
	if current {
		s.reg.Evict(mc.id, reason)
	}
}

// remove deletes a member's connection entry without evicting (used when
// the registry already evicted it, e.g. for missed heartbeats).
func (s *server) remove(mc *memberConn) {
	s.mu.Lock()
	if s.conns[mc.id] == mc {
		delete(s.conns, mc.id)
	}
	s.mu.Unlock()
}

func (s *server) get(id string) *memberConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns[id]
}

func (s *server) snapshot() []*memberConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*memberConn, 0, len(s.conns))
	for _, mc := range s.conns {
		out = append(out, mc)
	}
	return out
}

// ErrSessionLost marks a ServeClient failure caused by connection I/O —
// the session was healthy but the transport died. It is the class of
// failure RunResilientClient reconnects on; protocol violations and
// training errors are deterministic and not worth retrying.
var ErrSessionLost = errors.New("fed: session lost")

// Handshake performs the client half of the join protocol on a fresh
// connection: wait for the aggregator's codec announcement, verify the
// codec is locally available (and equals require, when non-empty), and ack
// by sending MsgJoin with the announced wire ID echoed. It returns the
// negotiated codec name. Codec disagreements return descriptive permanent
// errors; transport failures are wrapped in ErrSessionLost so resilient
// clients know a retry is worthwhile.
func Handshake(conn *link.Conn, clientID, require string) (string, error) {
	msg, err := conn.RecvTimeout(handshakeTimeout)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return "", fmt.Errorf("fed: no codec announcement from aggregator within %v (pre-codec aggregator?)", handshakeTimeout)
		}
		return "", fmt.Errorf("fed: handshake: %w: %w", ErrSessionLost, err)
	}
	if msg.Type != link.MsgCodecAnnounce {
		return "", fmt.Errorf("fed: handshake: aggregator sent message type %d before its codec announcement", msg.Type)
	}
	name := msg.ClientID
	announcedID := uint8(msg.Meta[link.CodecIDKey])
	if require != "" && require != name {
		return "", fmt.Errorf("fed: codec mismatch: aggregator announced %q, client requires %q", name, require)
	}
	if _, err := link.NewCodec(name); err != nil {
		return "", fmt.Errorf("fed: aggregator announced a codec this client cannot provide: %w", err)
	}
	if id := link.CodecWireID(name); id != announcedID {
		return "", fmt.Errorf("fed: codec %q wire id disagreement: aggregator says %d, local registration says %d", name, announcedID, id)
	}
	join := &link.Message{
		Type:     link.MsgJoin,
		ClientID: clientID,
		Meta:     map[string]float64{link.CodecIDKey: float64(announcedID)},
	}
	if err := conn.Send(join); err != nil {
		return "", fmt.Errorf("fed: join: %w: %w", ErrSessionLost, err)
	}
	return name, nil
}

// Session is a client's long-lived attachment to an aggregator: the local
// client, its training recipe, and the negotiated wire codec. The codec
// instance — including any error-feedback state a lossy codec carries, such
// as the topk residual — lives on the Session, so it survives connection
// churn: a resilient client reuses one Session across reconnects and
// dropped coordinates are still delivered in later rounds.
type Session struct {
	Client *Client
	Spec   LocalSpec
	// Codec, when non-empty, requires the aggregator to announce exactly
	// this codec name; empty accepts whatever the aggregator announces
	// (negotiation is server-driven).
	Codec string

	enc     link.Codec
	encName string

	// Last delivered update, kept for idempotent redelivery: when a
	// WAL-resuming aggregator re-broadcasts an in-flight round (ResumeKey
	// set) this client already trained, the cached encoded reply is
	// re-sent verbatim instead of training the round again — the data
	// stream and the codec's error-feedback state must not advance twice
	// for one round. Like the codec, the cache lives on the Session so it
	// survives reconnects.
	cacheOK    bool
	cacheRound int32
	cacheReply link.EncodedPayload
	cacheLoss  float64
	// Async aggregators key redelivery by model version rather than round
	// number (async dispatch task IDs are unique per send, so a resumed
	// dispatch of the same version arrives under a fresh round number).
	cacheHasVer  bool
	cacheVersion float64
}

// ServeConn runs one connection's worth of the session: handshake, then
// answer MsgModel rounds with codec-encoded MsgUpdate replies until
// MsgShutdown (or connection loss). Heartbeat pings are echoed immediately
// — even while a round is training, thanks to the dedicated reader
// goroutine — so a slow client is seen as alive-but-straggling rather than
// dead. stepBase for the shared schedule is derived from the round number,
// which also makes a rejoining client resume at the aggregator's current
// round. Cancelling ctx closes the connection to unblock a pending receive
// and returns ctx.Err(). onRound observers, if any, see one record per
// completed round (client-side loss and measured wire bytes, no PPL).
func (s *Session) ServeConn(ctx context.Context, conn *link.Conn, onRound ...func(metrics.Round)) error {
	client, spec := s.Client, s.Spec
	if err := spec.Validate(); err != nil {
		return err
	}
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchDone:
		}
	}()
	name, err := Handshake(conn, client.ID, s.Codec)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	if s.enc == nil || s.encName != name {
		codec, err := link.NewCodec(name) // validated by Handshake
		if err != nil {
			return err
		}
		s.enc, s.encName = codec, name
	}

	// The reader answers heartbeats inline — even while a round is training
	// — and routes models and control messages to the training loop. Send
	// is safe concurrently with the training loop's update uploads (Conn
	// serializes senders). Models are latest-wins: if the aggregator
	// deadlined past rounds while this client was still training, the
	// superseded broadcasts are dropped and the client jumps straight to
	// the current round — the backlog can never grow, so the reader is
	// never blocked off the heartbeat path and a chronically slow client
	// stays visible as alive-but-straggling instead of being evicted dead.
	models := make(chan *link.Message, 1)
	ctrl := make(chan *link.Message, 4)
	readErr := make(chan error, 1)
	go func() {
		for {
			msg, err := conn.Recv()
			if err != nil {
				readErr <- err
				return
			}
			switch msg.Type {
			case link.MsgHeartbeat:
				conn.Send(&link.Message{Type: link.MsgHeartbeat, Meta: msg.Meta})
			case link.MsgModel:
				select {
				case models <- msg:
				default:
					select {
					case <-models:
					default:
					}
					select {
					case models <- msg:
					default:
					}
				}
			default:
				select {
				case ctrl <- msg:
				default:
				}
			}
		}
	}()

	prevStats := conn.Stats()
	for {
		var msg *link.Message
		// A pending control message (shutdown) takes priority over a
		// pending model broadcast.
		select {
		case msg = <-ctrl:
		default:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case err := <-readErr:
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return fmt.Errorf("fed: client %s recv: %w: %w", client.ID, ErrSessionLost, err)
			case msg = <-ctrl:
			case msg = <-models:
			}
		}
		switch msg.Type {
		case link.MsgShutdown:
			return nil
		case link.MsgModel:
			// Idempotent redelivery: a resumed broadcast of a round this
			// client already trained is answered from the cache — no
			// decode, no training, no stream advance. Sync aggregators
			// re-broadcast under the same round number; async ones dispatch
			// the same model *version* under a fresh task ID, so the cache
			// also matches on the version stamp.
			ver, hasVer := msg.Meta[link.VersionKey]
			if msg.Meta[link.ResumeKey] != 0 && s.cacheOK &&
				(msg.Round == s.cacheRound || (hasVer && s.cacheHasVer && ver == s.cacheVersion)) {
				meta := map[string]float64{"loss": s.cacheLoss}
				if traceID := msg.Meta[link.TraceKey]; traceID != 0 {
					meta[link.TraceKey] = traceID
				}
				if s.cacheHasVer {
					meta[link.VersionKey] = s.cacheVersion
				}
				err := conn.Send(&link.Message{
					Type:     link.MsgUpdate,
					Round:    msg.Round,
					ClientID: client.ID,
					Meta:     meta,
					Payload:  s.cacheReply,
				})
				if err != nil {
					if ctx.Err() != nil {
						return ctx.Err()
					}
					return fmt.Errorf("fed: client %s send: %w: %w", client.ID, ErrSessionLost, err)
				}
				continue
			}
			// Size-check before decoding so a corrupt or hostile element
			// count can never drive a model-sized allocation past the
			// local replica's actual parameter count.
			if want := client.NumParams(); want > 0 && msg.Payload.Elems != want {
				return fmt.Errorf("fed: client %s round %d: model payload carries %d elems, want %d",
					client.ID, msg.Round, msg.Payload.Elems, want)
			}
			decStart := time.Now()
			global, err := link.DecodePayload(s.enc, msg.Payload)
			decNs := time.Since(decStart).Nanoseconds()
			if err != nil {
				return fmt.Errorf("fed: client %s round %d model: %w", client.ID, msg.Round, err)
			}
			stepBase := (int(msg.Round) - 1) * spec.Steps
			trainStart := time.Now()
			res, err := client.RunRound(ctx, global, stepBase, spec)
			trainNs := time.Since(trainStart).Nanoseconds()
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return fmt.Errorf("fed: client %s round %d: %w", client.ID, msg.Round, err)
			}
			encStart := time.Now()
			encUpd, err := link.EncodeVector(s.enc, res.Update)
			encNs := time.Since(encStart).Nanoseconds()
			if err != nil {
				return fmt.Errorf("fed: client %s round %d update: %w", client.ID, msg.Round, err)
			}
			// Phase self-reports let the aggregator split this member's
			// round latency into compute vs codec vs wire; the trace ID
			// echo attributes the reply to the root round that caused it.
			// res.Metrics is a fresh per-round map, safe to extend.
			res.Metrics[link.PhaseTrainNsKey] = float64(trainNs)
			res.Metrics[link.PhaseEncNsKey] = float64(encNs)
			res.Metrics[link.PhaseDecNsKey] = float64(decNs)
			traceID := uint64(msg.Meta[link.TraceKey])
			if traceID != 0 {
				res.Metrics[link.TraceKey] = float64(traceID)
			}
			if hasVer {
				// Echo the trained model version so an async aggregator can
				// compute this update's staleness when it finally folds.
				res.Metrics[link.VersionKey] = ver
			}
			// Cache before sending: the round is trained, so the stream and
			// error-feedback state have advanced. If the aggregator crashes
			// mid-send and this reply never lands, the resumed broadcast
			// must hit the cache — retraining would advance the stream a
			// second time for the same round.
			s.cacheOK, s.cacheRound = true, msg.Round
			s.cacheReply, s.cacheLoss = encUpd, res.Metrics["loss"]
			s.cacheHasVer, s.cacheVersion = hasVer, ver
			err = conn.Send(&link.Message{
				Type:     link.MsgUpdate,
				Round:    msg.Round,
				ClientID: client.ID,
				Meta:     res.Metrics,
				Payload:  encUpd,
			})
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return fmt.Errorf("fed: client %s send: %w: %w", client.ID, ErrSessionLost, err)
			}
			cur := conn.Stats()
			rec := metrics.Round{
				Round:     int(msg.Round),
				TrainLoss: res.Metrics["loss"],
				Clients:   1,
				// Measured wire traffic since the previous record: this
				// round's model down and update up, plus interleaved
				// heartbeats (round 1 absorbs the handshake).
				WireSentBytes: cur.SentBytes - prevStats.SentBytes,
				WireRecvBytes: cur.RecvBytes - prevStats.RecvBytes,
				CommBytes:     (cur.SentBytes - prevStats.SentBytes) + (cur.RecvBytes - prevStats.RecvBytes),
				EncodeMs:      float64(encNs) / 1e6,
				DecodeMs:      float64(decNs) / 1e6,
			}
			if dense := int64(msg.Payload.Elems+len(res.Update)) * 4; dense > 0 {
				rec.CompressionRatio = float64(msg.Payload.WireBytes()+encUpd.WireBytes()) / float64(dense)
			}
			rec.TraceID = traceID
			if hasVer {
				rec.ModelVersion = int(ver)
			}
			rec.WallMs = float64(time.Since(decStart).Nanoseconds()) / 1e6
			var pn obsv.PhaseNanos
			pn.Add(obsv.PhaseDecode, decNs)
			pn.Add(obsv.PhaseTrain, trainNs)
			pn.Add(obsv.PhaseEncode, encNs)
			rec.Phases = pn.Breakdown()
			prevStats = cur
			for _, fn := range onRound {
				fn(rec)
			}
		default:
			return fmt.Errorf("fed: client %s: unexpected message type %d", client.ID, msg.Type)
		}
	}
}

// ServeClient runs an LLM-C against a connected aggregator under a
// single-connection Session that accepts whatever codec the aggregator
// announces. See Session.ServeConn for the protocol; resilient clients
// that must keep codec state across reconnects build a Session directly.
func ServeClient(ctx context.Context, conn *link.Conn, client *Client, spec LocalSpec, onRound ...func(metrics.Round)) error {
	s := &Session{Client: client, Spec: spec}
	return s.ServeConn(ctx, conn, onRound...)
}
