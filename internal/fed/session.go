package fed

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/obsv"
)

// handshakeTimeout bounds the client's wait for the aggregator's codec
// announcement; a pre-codec aggregator never announces, so waiting past
// this is a configuration error, not a transient.
const handshakeTimeout = 10 * time.Second

// ErrSessionLost marks a member-session failure caused by connection I/O —
// the session was healthy but the transport died. It is the class of
// failure RunResilientClient and RunRelay reconnect on; protocol violations
// and training errors are deterministic and not worth retrying.
var ErrSessionLost = errors.New("fed: session lost")

// ErrBaseMismatch refuses a delta broadcast the member cannot use: its base
// round is not the model the member holds, or the model it rebuilds fails the
// frame's checksum. The member drops its held model and the session counts as
// lost, so a resilient member reconnects and is sent a full frame.
var ErrBaseMismatch = fmt.Errorf("fed: delta broadcast does not match the held model: %w", ErrSessionLost)

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

// closeOnDone closes conn when ctx ends — unblocking any I/O pending on it —
// until the returned stop function is called.
func closeOnDone(ctx context.Context, conn *link.Conn) (stop func()) {
	stopped := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stopped:
		}
	}()
	return func() { close(stopped) }
}

// offerLatest puts msg into a one-slot latest-wins buffer without ever
// blocking the reader that calls it: a message still waiting there is
// superseded and dropped.
func offerLatest(ch chan *link.Message, msg *link.Message) {
	select {
	case ch <- msg:
	default:
		select {
		case <-ch:
		default:
		}
		select {
		case ch <- msg:
		default:
		}
	}
}

// roundTask is one model broadcast as the member session hands it to its
// work step: the frame (round number plus trace, version and resume
// stamps), its decoded payload, and what serving it has cost so far.
type roundTask struct {
	msg    *link.Message
	global []float32
	decNs  int64     // decoding the broadcast
	start  time.Time // when the session began serving it
}

// roundReply is what a work step hands back to be sent upstream.
type roundReply struct {
	update []float32
	// meta is the reply's metadata; the session owns it from here and adds
	// the phase self-reports and the trace echo.
	meta map[string]float64
	// sticky are the stamps a cached redelivery of this reply repeats (a
	// leaf's loss, a relay's cohort size).
	sticky map[string]float64
	// sent runs once the reply is cached and on the wire.
	sent func(sentReply) error
}

// sentReply is what the session measured while delivering a reply.
type sentReply struct {
	payload link.EncodedPayload // the reply as encoded and sent
	workNs  int64               // the work step's wall time
	encNs   int64               // encoding the reply
	// Wire bytes this connection moved since the previous round: received
	// up to the moment its model was taken (the model down), sent up to the
	// end of its reply (the update up), interleaved heartbeats included.
	wireSent, wireRecv int64
}

// roundWork is the one step of a member session that differs between
// tiers: a leaf trains the broadcast model (Session.train), a relay
// collects its cohort and folds it through the outer optimizer
// (relay.serve). A nil reply with a nil error sends nothing upstream and
// keeps the session alive; a reply with a nil update sends an empty one.
type roundWork func(ctx context.Context, t roundTask) (*roundReply, error)

// memberSession is the member side of the round protocol, written once for
// every tier: join, echo heartbeats, and answer each model broadcast with
// one update. What must outlive a connection lives here — the negotiated
// codec instance (with any error-feedback state, such as the topk residual)
// and the last reply — so a member that reconnects still delivers dropped
// coordinates in later rounds and never does one round's work twice.
type memberSession struct {
	id      string // identity joined under
	name    string // "client <id>" / "relay <id>", for errors
	require string // codec the aggregator must announce ("" accepts any)
	want    int    // model parameter count (0 skips the size check)

	enc     link.Codec
	encName string
	// held is the model this member last decoded and heldRound its round (0:
	// none), echoed as link.HeldKey on every update: the base a delta
	// broadcast applies to.
	held      []float32
	heldRound int32
	// restore is codec state recovered from a WAL, applied once to the
	// codec the next handshake instantiates; a codec that survived
	// in-process already carries its state.
	restore []float32

	// Last delivered reply, kept for idempotent redelivery: when an
	// aggregator re-broadcasts a round (ResumeKey set) this member already
	// worked, the cached bytes are re-sent verbatim — the data streams and
	// the codec's error-feedback state must not advance twice for one round.
	// Sync and async aggregators both re-send a round under its own number
	// (an async round is the dispatched version + 1).
	cacheOK     bool
	cacheRound  int32
	cacheReply  link.EncodedPayload
	cacheSticky map[string]float64
}

// serveConn runs one connection's worth of the session: handshake, then
// answer MsgModel broadcasts through work until MsgShutdown (nil) or
// connection loss (ErrSessionLost). Cancelling ctx closes the connection to
// unblock a pending receive and returns ctx.Err().
func (m *memberSession) serveConn(ctx context.Context, conn *link.Conn, work roundWork) error {
	defer closeOnDone(ctx, conn)()
	name, err := Handshake(conn, m.id, m.require)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	if m.enc == nil || m.encName != name {
		codec, err := link.NewCodec(name) // validated by Handshake
		if err != nil {
			return err
		}
		m.enc, m.encName = codec, name
		if err := link.RestoreCodecState(m.enc, m.restore); err != nil {
			return err
		}
	}
	m.restore = nil

	// The reader answers heartbeats inline — even while a round is being
	// worked — and routes models and control messages to the loop below, so
	// a slow member reads as alive-but-straggling rather than dead. Send is
	// safe concurrently with the loop's uploads (Conn serializes senders).
	// Models are latest-wins: if the aggregator deadlined past rounds while
	// this member was busy, the superseded broadcasts are dropped and the
	// member jumps straight to the current round — the backlog can never
	// grow, so the reader is never blocked off the heartbeat path.
	models := make(chan *link.Message, 1)
	ctrl := make(chan *link.Message, 4) // control frames are rare; a full buffer drops the excess
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
				offerLatest(models, msg)
			default:
				select {
				case ctrl <- msg:
				default:
				}
			}
		}
	}()

	prev := conn.Stats()
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
				return fmt.Errorf("fed: %s recv: %w: %w", m.name, ErrSessionLost, err)
			case msg = <-ctrl:
			case msg = <-models:
			}
		}
		switch msg.Type {
		case link.MsgShutdown:
			return nil
		case link.MsgModel:
			// The receive side is counted as the model is taken: while it
			// is worked, the reader may already count the next broadcast.
			if err := m.serveRound(ctx, conn, msg, work, &prev, conn.Stats().RecvBytes); err != nil {
				return err
			}
		default:
			return fmt.Errorf("fed: %s: unexpected message type %d", m.name, msg.Type)
		}
	}
}

// serveRound answers one model broadcast: from the reply cache when it is a
// redelivery, otherwise size-check and decode it, run work, then encode,
// stamp, cache and send the reply. A nil reply with a nil error answers
// nothing; a reply without an update sends an empty one. recv is the
// connection's received byte count when msg was taken.
func (m *memberSession) serveRound(ctx context.Context, conn *link.Conn, msg *link.Message, work roundWork, prev *link.ConnStats, recv int64) error {
	if msg.Meta[link.ResumeKey] != 0 && m.cacheOK && msg.Round == m.cacheRound {
		// No decode, no work, no stream advance; re-encoding would
		// double-apply an error-feedback codec's residual.
		meta := make(map[string]float64, len(m.cacheSticky)+2)
		for k, v := range m.cacheSticky {
			meta[k] = v
		}
		if traceID := uint64(msg.Meta[link.TraceKey]); traceID != 0 {
			meta[link.TraceKey] = float64(traceID)
		}
		meta[link.HeldKey] = float64(m.heldRound)
		return m.reply(ctx, conn, msg.Round, meta, m.cacheReply)
	}
	// Size-check before decoding so a corrupt or hostile element count can
	// never drive a model-sized allocation past the real parameter count.
	if m.want > 0 && msg.Payload.Elems != m.want {
		return fmt.Errorf("fed: %s round %d: model payload carries %d elems, want %d",
			m.name, msg.Round, msg.Payload.Elems, m.want)
	}
	t := roundTask{msg: msg, start: time.Now()}
	decSpan := obsv.Begin(obsv.PhaseDecode)
	global, err := m.decodeModel(msg)
	t.decNs = decSpan.End()
	if err != nil {
		return fmt.Errorf("fed: %s round %d model: %w", m.name, msg.Round, err)
	}
	t.global = global

	var st sentReply
	workStart := time.Now()
	r, err := work(ctx, t)
	st.workNs = time.Since(workStart).Nanoseconds()
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("fed: %s round %d: %w", m.name, msg.Round, err)
	}
	if r == nil {
		return nil
	}
	if r.update != nil {
		encSpan := obsv.Begin(obsv.PhaseEncode)
		st.payload, err = link.EncodeVector(m.enc, r.update)
		st.encNs = encSpan.End()
		if err != nil {
			return fmt.Errorf("fed: %s round %d update: %w", m.name, msg.Round, err)
		}
	}
	// Phase self-reports let the aggregator split this member's round
	// latency into work vs codec vs wire (for a relay the work is its whole
	// cohort exchange, and these overwrite the cohort means AggMetrics left
	// in meta); the trace echo attributes the reply to the root round that
	// caused it.
	r.meta[link.PhaseTrainNsKey] = float64(st.workNs)
	r.meta[link.PhaseEncNsKey] = float64(st.encNs)
	r.meta[link.PhaseDecNsKey] = float64(t.decNs)
	r.meta[link.HeldKey] = float64(m.heldRound)
	if traceID := uint64(msg.Meta[link.TraceKey]); traceID != 0 {
		r.meta[link.TraceKey] = float64(traceID)
	}
	// Cache before sending: the work is done, so the data streams and the
	// error-feedback state have advanced. If the aggregator crashes
	// mid-send and this reply never lands, the resumed broadcast must hit
	// the cache — redoing the work would advance them a second time.
	m.cacheOK, m.cacheRound = true, msg.Round
	m.cacheReply, m.cacheSticky = st.payload, r.sticky
	if err := m.reply(ctx, conn, msg.Round, r.meta, st.payload); err != nil {
		return err
	}
	sent := conn.Stats().SentBytes
	st.wireSent, st.wireRecv = sent-prev.SentBytes, recv-prev.RecvBytes
	prev.SentBytes, prev.RecvBytes = sent, recv
	return r.sent(st)
}

// decodeModel decodes a broadcast — a delta one in place, into the held
// model — and holds the result; a broadcast that fails to decode drops the
// held model. The held model is the round's global until the next broadcast
// rewrites it, so nothing may keep it past its round.
func (m *memberSession) decodeModel(msg *link.Message) (global []float32, err error) {
	if msg.Payload.CodecID != link.CodecDelta {
		global, err = link.DecodePayload(m.enc, msg.Payload)
	} else if base := msg.Meta[link.BaseRoundKey]; m.held == nil || base != float64(m.heldRound) {
		err = fmt.Errorf("%w: it applies to round %v, the member holds round %d", ErrBaseMismatch, base, m.heldRound)
	} else if err = link.ApplyDelta(m.held, msg.Payload); err == nil {
		if global = m.held; float64(link.Checksum(global)) != msg.Meta[link.ModelCRCKey] {
			global, err = nil, fmt.Errorf("%w: the rebuilt model fails its checksum", ErrBaseMismatch)
		}
	}
	if m.held, m.heldRound = global, 0; global != nil {
		m.heldRound = msg.Round
	}
	return global, err
}

// reply sends one MsgUpdate, mapping a transport failure to ErrSessionLost.
func (m *memberSession) reply(ctx context.Context, conn *link.Conn, round int32, meta map[string]float64, p link.EncodedPayload) error {
	err := conn.Send(&link.Message{
		Type:     link.MsgUpdate,
		Round:    round,
		ClientID: m.id,
		Meta:     meta,
		Payload:  p,
	})
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("fed: %s send: %w: %w", m.name, ErrSessionLost, err)
	}
	return nil
}

// Session is a client's long-lived attachment to an aggregator: the local
// client, its training recipe, and the negotiated wire codec. The codec
// instance — including any error-feedback state a lossy codec carries, such
// as the topk residual — and the last reply live on the Session, so they
// survive connection churn: a resilient client reuses one Session across
// reconnects.
type Session struct {
	Client *Client
	Spec   LocalSpec
	// Codec, when non-empty, requires the aggregator to announce exactly
	// this codec name; empty accepts whatever the aggregator announces
	// (negotiation is server-driven).
	Codec string

	m memberSession
}

// ServeConn runs one connection's worth of the session: handshake, then
// answer MsgModel rounds with codec-encoded MsgUpdate replies until
// MsgShutdown (or connection loss). Heartbeat pings are echoed immediately
// — even while a round is training — so a slow client is seen as
// alive-but-straggling rather than dead. stepBase for the shared schedule
// is derived from the round number, which also makes a rejoining client
// resume at the aggregator's current round. Cancelling ctx closes the
// connection to unblock a pending receive and returns ctx.Err(). onRound
// observers, if any, see one record per completed round (client-side loss
// and measured wire bytes, no PPL); nil entries are skipped.
func (s *Session) ServeConn(ctx context.Context, conn *link.Conn, onRound ...func(metrics.Round)) error {
	if err := s.Spec.Validate(); err != nil {
		return err
	}
	return s.member().serveConn(ctx, conn, s.train(onRound))
}

// member returns the session's member side, bound to its client.
func (s *Session) member() *memberSession {
	s.m.id, s.m.name = s.Client.ID, "client "+s.Client.ID
	s.m.require, s.m.want = s.Codec, s.Client.NumParams()
	return &s.m
}

// train is the leaf's work step: run the local training pipeline on the
// broadcast model and reply with the pseudo-gradient.
func (s *Session) train(onRound []func(metrics.Round)) roundWork {
	client, spec := s.Client, s.Spec
	return func(ctx context.Context, t roundTask) (*roundReply, error) {
		round := int(t.msg.Round)
		res, err := client.RunRound(ctx, t.global, (round-1)*spec.Steps, spec)
		if err != nil {
			return nil, err
		}
		loss := res.Metrics["loss"]
		return &roundReply{
			update: res.Update,
			meta:   res.Metrics, // a fresh per-round map, safe to extend
			sticky: map[string]float64{"loss": loss},
			sent: func(st sentReply) error {
				rec := metrics.Round{
					Round:         round,
					TrainLoss:     loss,
					Clients:       1,
					WireSentBytes: st.wireSent,
					WireRecvBytes: st.wireRecv,
					CommBytes:     st.wireSent + st.wireRecv,
					EncodeMs:      float64(st.encNs) / 1e6,
					DecodeMs:      float64(t.decNs) / 1e6,
					TraceID:       uint64(t.msg.Meta[link.TraceKey]),
					ModelVersion:  int(t.msg.Meta[link.VersionKey]),
					WallMs:        float64(time.Since(t.start).Nanoseconds()) / 1e6,
				}
				if dense := int64(t.msg.Payload.Elems+len(res.Update)) * 4; dense > 0 {
					rec.CompressionRatio = float64(t.msg.Payload.WireBytes()+st.payload.WireBytes()) / float64(dense)
				}
				var pn obsv.PhaseNanos
				pn.Add(obsv.PhaseDecode, t.decNs)
				pn.Add(obsv.PhaseTrain, st.workNs)
				pn.Add(obsv.PhaseEncode, st.encNs)
				rec.Phases = pn.Breakdown()
				for _, fn := range onRound {
					if fn != nil {
						fn(rec)
					}
				}
				return nil
			},
		}, nil
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
