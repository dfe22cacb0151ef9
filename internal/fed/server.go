package fed

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/bits"
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

// ServerConfig configures a networked aggregator (the Agg component) that
// coordinates real LLM-C processes over the link protocol.
type ServerConfig struct {
	ModelConfig nn.Config
	Seed        int64

	Rounds          int
	ExpectClients   int // block until this many clients join before round 1
	ClientsPerRound int // K; 0 means full participation

	// MinClients is the per-round participation floor once training has
	// started: a round does not begin until at least this many members are
	// alive (default 1), giving evicted clients a window to rejoin.
	MinClients int

	// HeartbeatInterval enables liveness tracking: the aggregator pings
	// every member on this cadence and evicts members that miss the
	// cluster registry's threshold of consecutive beats (3). Zero disables
	// heartbeats (pure round-driven failure detection, the pre-elastic
	// behavior).
	HeartbeatInterval time.Duration

	// RoundDeadline bounds one round's model/update exchange. When it
	// expires the round aggregates the updates that arrived and counts the
	// missing members as stragglers (they stay alive, but their health
	// score — and so their sampling weight — drops). Zero blocks until
	// every cohort member answers or fails (a model send failing after 30 s).
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
	// abruptly (no MsgShutdown) as a real crash would.
	//
	//photon:nolint unused-export -- test seam: the crash-point sweeps (TestCrashPointSweep, TestAsyncCrashPointSweep) arm it to kill the aggregator mid-append
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
	held    atomic.Int64       // link.HeldKey of the member's last accepted update
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

	// prev is the model the last cohort broadcast sent (lossless model
	// codecs only) and prevRound its round, 0 before the first; deltaVals
	// is the delta encode's value scratch, which no payload keeps.
	prev      []float32
	prevRound int
	deltaVals []float32

	// meter sums real wire bytes over every member connection; per-round
	// deltas ground the round records' communication cost in measured
	// traffic (headers and heartbeats included) rather than element-count
	// estimates.
	meter *link.Meter

	mu    sync.Mutex
	conns map[string]*memberConn

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
		reg:       cluster.New(cluster.Config{HeartbeatInterval: cfg.HeartbeatInterval}),
		conns:     make(map[string]*memberConn),
		observers: make(map[*link.Conn]struct{}),
	}, nil
}

// addObserver admits a MsgObserve subscriber and starts a drain reader
// that detects its departure (observers send nothing after the handshake).
func (s *server) addObserver(conn *link.Conn) {
	s.obsMu.Lock()
	s.observers[conn] = struct{}{}
	s.obsMu.Unlock()
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
	delete(s.observers, conn)
	s.obsMu.Unlock()
	conn.Close()
}

// observerConns snapshots the attached observers.
func (s *server) observerConns() []*link.Conn {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	conns := make([]*link.Conn, 0, len(s.observers))
	for c := range s.observers {
		conns = append(conns, c)
	}
	return conns
}

func (s *server) closeObservers() {
	for _, c := range s.observerConns() {
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
	conns := s.observerConns()
	if len(conns) == 0 {
		return
	}
	msg := observeMessage(rec, s.reg.Alive(), stale)
	for _, c := range conns {
		if err := c.SendTimeout(msg, time.Second); err != nil {
			s.removeObserver(c)
		}
	}
}

// startLoops launches the accept loop on l (none when l is nil: fed.Run's
// members join over link.Pipe) and, when configured, the liveness loop,
// and returns the stop function that ends the serving side: cancel and wait
// for the loops, say goodbye to observers, and end every member session
// (see shutdownMembers for graceful vs abrupt). The accept loop admits
// members for the whole run, so evicted or crashed members can rejoin at
// any time.
func (s *server) startLoops(ctx context.Context, l *link.Listener) (stop func(graceful bool)) {
	loopCtx, cancel := context.WithCancel(ctx)
	var loops sync.WaitGroup
	loops.Add(1)
	if l != nil {
		loops.Add(1)
		go func() {
			defer loops.Done()
			s.acceptLoop(loopCtx, l)
		}()
	}
	// On cancellation, expire in-flight member I/O via deadlines. Deadlines
	// only — a round waiter stuck in an unbounded model Send holds the
	// connection's send mutex, which is exactly what the deadline must
	// break before the shutdown path can deliver MsgShutdown.
	go func() {
		defer loops.Done()
		<-loopCtx.Done()
		if ctx.Err() != nil {
			s.expireMemberIO()
		}
	}()
	if s.cfg.HeartbeatInterval > 0 {
		loops.Add(1)
		go func() {
			defer loops.Done()
			s.livenessLoop(loopCtx)
		}()
	}
	return func(graceful bool) {
		cancel()
		loops.Wait()
		s.closeObservers()
		s.shutdownMembers(graceful)
	}
}

// expireMemberIO expires every member connection's pending I/O — the
// cancellation path's way of breaking a round waiter out of an unbounded
// Send so shutdown can proceed.
func (s *server) expireMemberIO() {
	for _, mc := range s.snapshot() {
		_ = mc.conn.Interrupt() // fails only on a closed conn, which has no I/O left to expire
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
// silent members are evicted after three missed beats. Per-round
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
	// Durable control plane: open the WAL (reading back any prior journal)
	// and the registry before accepting a single connection, so a restart
	// that cannot recover fails fast instead of re-training from scratch.
	st := newAggState(cfg)
	recovered, err := st.openServer()
	if err != nil {
		return nil, err
	}
	defer st.jrn.close()
	if cfg.RegistryDir != "" {
		if st.registry, err = ckpt.OpenRegistry(cfg.RegistryDir); err != nil {
			return nil, err
		}
	}
	s := st.s

	// The accept loop admits members for the entire run. Handshakes run in
	// their own goroutines so a stray connection that never sends MsgJoin
	// can neither hold a membership slot nor stall other joiners.
	stop := s.startLoops(ctx, l)

	// Shutdown: stop admitting, then deliver MsgShutdown to every member
	// still connected and give each a bounded grace period to read it
	// before the connection is torn down. An armed-failpoint exit is
	// abrupt instead: the members see a dropped connection — exactly what a
	// real aggregator crash looks like — and resilient clients reconnect
	// to the restarted process instead of shutting down cleanly.
	defer func() { stop(!st.crashed) }()

	// Initial membership: wait (ctx-bounded) for the expected cohort.
	if err := s.waitAlive(ctx, cfg.ExpectClients, 0); err != nil {
		return nil, err
	}

	// One replay for both modes; they differ only in the record type that
	// journals an update, so a WAL written in one mode does not resume the
	// other. The base params overwrite the fresh init in place, and the
	// committed windows are redone on top of them.
	resume := replayWAL(recovered, st.foldRec)
	if err := st.restore(resume); err != nil {
		return nil, err
	}
	// lineage stamps registry manifests with enough to reproduce the job.
	st.lineage = map[string]string{
		"job": fmt.Sprintf("seed=%d rounds=%d expect=%d cohort=%d codec=%s outer=%s params=%d",
			cfg.Seed, cfg.Rounds, cfg.ExpectClients, st.k, s.codecName, cfg.Outer.Name(), len(st.global)),
	}
	st.sentPrev, st.recvPrev = s.meter.Totals()
	if cfg.Async != nil {
		st.lineage["mode"] = "async"
		return newAsyncAggregator(st).run(ctx, resume)
	}
	st.lineage["mode"] = "sync"
	return st.runSync(ctx, resume, 0)
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
	defer closeOnDone(ctx, conn)()
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
			offerLatest(mc.updates, msg)
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
					s.drop(mc, "missed heartbeats") // already evicted: this forgets the connection
					mc.conn.Close()
				}
			}
		}
	}
}

// answer is one member's reply to one model task.
type answer struct {
	mc       *memberConn
	round    int                 // the task: the round the model was sent as
	update   []float32           // decoded pseudo-gradient; nil when the member failed
	payload  link.EncodedPayload // the same update as it arrived, for the journal
	meta     map[string]float64  // member-reported metrics (loss, phases, trained version)
	latency  time.Duration       // send-to-reply wall time
	sendNs   int64               // model send duration
	srvDecNs int64               // server-side decode of the update

	// The payloads of the exchange — the model sent and the update
	// received — as encoded and as they would be dense float32.
	payloadBytes, denseBytes int64
}

// ask is the aggregator's half of one exchange with one member, the same in
// every mode: send the encoded model as task (the MsgModel round number the
// member echoes), await the update that answers it, and decode it. meta is
// stamped on the frame (trace, version, resume) and only read. A member
// whose send fails or whose update fails to decode is dropped — a codec
// disagreement or a poisoned vector must never reach a fold. a.update is nil
// when the member failed or stop closed first.
func (s *server) ask(mc *memberConn, task int, meta map[string]float64, model link.EncodedPayload, sendTimeout time.Duration, stop <-chan struct{}) (a answer) {
	a.mc, a.round = mc, task
	// Drain a stale reply to a superseded task.
	select {
	case <-mc.updates:
	default:
	}
	start := time.Now()
	sendSpan := obsv.Begin(obsv.PhaseBroadcast)
	err := mc.conn.SendTimeout(&link.Message{
		Type:    link.MsgModel,
		Round:   int32(task),
		Meta:    meta,
		Payload: model,
	}, sendTimeout)
	a.sendNs = sendSpan.End()
	if err != nil {
		s.drop(mc, "model send failed")
		mc.conn.Close()
		return a
	}
	a.payloadBytes, a.denseBytes = int64(model.WireBytes()), int64(model.Elems)*4
	for {
		select {
		case msg := <-mc.updates:
			if msg.Round != int32(task) {
				continue // late reply to an earlier task
			}
			if msg.Payload.IsZero() {
				return a // an empty update: nothing this round
			}
			decSpan := obsv.Begin(obsv.PhaseDecode)
			vec, derr := decodeUpdate(s.codec, msg.Payload, model.Elems)
			a.srvDecNs = decSpan.End()
			if derr != nil {
				s.drop(mc, "update decode failed")
				mc.conn.Close()
				return a
			}
			a.payloadBytes += int64(msg.Payload.WireBytes())
			a.denseBytes += int64(msg.Payload.Elems) * 4
			mc.held.Store(int64(msg.Meta[link.HeldKey]))
			a.update, a.payload, a.meta = vec, msg.Payload, msg.Meta
			a.latency = time.Since(start)
			return a
		case <-mc.dead:
			return a
		case <-stop:
			return a
		}
	}
}

// encodeBroadcast returns each cohort member's model frame, building each
// encoding only if a member needs it: a delta against the previous broadcast,
// stamped with its round and the model's checksum, for a member whose last
// update echoed holding it, unless the delta does not pay; the full frame for
// everyone else. It counts the deltas and makes global the previous broadcast.
func (s *server) encodeBroadcast(round int, global []float32, cohort []*memberConn, meta map[string]float64) (frames []link.Message, deltas int, err error) {
	useDelta := make([]bool, len(cohort))
	for i, mc := range cohort {
		if useDelta[i] = s.prevRound != 0 && mc.held.Load() == int64(s.prevRound); useDelta[i] {
			deltas++
		}
	}
	delta, kept := link.Message{Meta: maps.Clone(meta)}, false
	if deltas > 0 { // EncodeDelta also copies global into prev
		if len(s.deltaVals) != len(global) {
			s.deltaVals = make([]float32, len(global))
		}
		if delta.Payload, kept, err = link.EncodeDelta(s.modelEnc, s.prev, global, s.deltaVals); err != nil {
			return nil, 0, err
		}
	} else if link.CanDelta(s.modelEnc) {
		s.prev = append(s.prev[:0], global...)
	}
	if kept {
		delta.Meta[link.BaseRoundKey] = float64(s.prevRound)
		delta.Meta[link.ModelCRCKey] = float64(link.Checksum(global))
	} else {
		deltas = 0
	}
	if link.CanDelta(s.modelEnc) {
		s.prevRound = round
	}
	full := link.Message{Meta: meta}
	if deltas < len(cohort) {
		if full.Payload, err = link.EncodeVector(s.modelEnc, global); err != nil {
			return nil, 0, err
		}
	}
	frames = make([]link.Message, len(cohort))
	for i := range frames {
		if frames[i] = full; useDelta[i] && kept {
			frames[i] = delta
		}
	}
	return frames, deltas, nil
}

// decodeUpdate is the single door every update passes on its way to a
// fold under the aggregator's session codec — live sync and async arrivals
// and both WAL replays. The declared element count must match the model
// before any codec allocates for it, so a mis-sized update can neither OOM
// the aggregator nor poison the fold, and the decoded values must pass
// checkFinite: those a sparse top-k payload carries, every one otherwise.
func decodeUpdate(codec link.Codec, p link.EncodedPayload, elems int) ([]float32, error) {
	if p.Elems != elems {
		return nil, fmt.Errorf("fed: update has %d elements, model has %d", p.Elems, elems)
	}
	vec, err := link.DecodePayload(codec, p)
	if err != nil {
		return nil, err
	}
	if len(vec) != elems {
		return nil, fmt.Errorf("fed: update decoded to %d elements, model has %d", len(vec), elems)
	}
	if err := checkFinite(vec, link.SparseMarks(p)); err != nil {
		return nil, err
	}
	return vec, nil
}

// checkFinite rejects an update holding a NaN or ±Inf, which would spread to
// every parameter it touches. Every fold input passes it, in decodeUpdate.
// marks, when non-nil, is the bitmap of the elements a sparse payload
// carried (link.SparseMarks): only those are checked, the rest being zeros.
func checkFinite(vec []float32, marks []byte) error {
	bad := func(v float32) bool { return math.Float32bits(v)&0x7f800000 == 0x7f800000 } // exponent all ones: NaN or ±Inf
	if marks == nil {
		for i, v := range vec {
			if bad(v) {
				return fmt.Errorf("fed: update element %d is %v", i, v)
			}
		}
		return nil
	}
	for w := 0; w < len(marks); w += 8 {
		for word := binary.LittleEndian.Uint64(marks[w:]); word != 0; word &= word - 1 {
			if i := 8*w + bits.TrailingZeros64(word); bad(vec[i]) {
				return fmt.Errorf("fed: update element %d is %v", i, vec[i])
			}
		}
	}
	return nil
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
			return s.belowFloor(n)
		case <-tick.C:
		}
	}
}

// belowFloor describes a membership that stayed short of n alive members.
func (s *server) belowFloor(n int) error {
	if alive := s.reg.AliveCount(); alive > 0 {
		return fmt.Errorf("%d alive members, need %d", alive, n)
	}
	return fmt.Errorf("all clients lost")
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
