package fed

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"photon/internal/ckpt"
	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/nn"
	"photon/internal/obsv"
)

// RelayConfig configures a networked relay aggregator: a node that joins a
// parent aggregator as an ordinary client while serving its own regional
// cohort with the elastic membership machinery. Each parent round it
// re-broadcasts the global model down, aggregates its cohort's updates
// locally, and forwards one pseudo-gradient upward — the Algorithm 1
// lines 19–25 sub-federation running over real links instead of inside one
// process.
type RelayConfig struct {
	// ModelConfig sizes payload validation on both tiers; the relay never
	// trains, it only moves and folds parameter vectors.
	ModelConfig nn.Config
	// ID is the identity the relay joins the parent under. Required — a
	// restarted relay rejoining under the same ID resumes its membership.
	ID string

	Seed int64

	// Cohort-tier membership, liveness, and pacing — the same knobs as
	// ServerConfig, scoped to this tier. ExpectClients is how many cohort
	// members must join before the relay dials its parent (the parent's
	// round 1 therefore starts only when every relay's cohort is ready).
	ExpectClients     int
	ClientsPerRound   int // K within the cohort; 0 means full participation
	MinClients        int
	HeartbeatInterval time.Duration
	// RoundDeadline bounds the cohort tier's model/update exchange. With
	// it set, a straggling cohort member costs this tier a partial round
	// instead of stalling the parent's round; elasticity composes because
	// each tier enforces its own deadline.
	RoundDeadline time.Duration
	OverProvision float64

	// Codec is the cohort-tier wire codec the relay announces downstream
	// (typically "dense" on LAN). The upstream codec is negotiated with
	// the parent and pinned via Parent.Codec — the two tiers are
	// independent, so a dense intra-region cohort can feed a q8 or topk
	// inter-region uplink.
	Codec string

	// Parent tunes the uplink's fault tolerance: MaxAttempts/backoff
	// reconnect a lost parent session under the same ID (the upstream
	// codec's error-feedback state survives, as it lives on the relay, not
	// the connection), and Codec requires the parent to announce exactly
	// that codec. CheckpointPath is ignored — a relay carries no model
	// state worth snapshotting.
	Parent ReconnectConfig

	// OnRound observes this tier's round records (Tier 1, Depth 1).
	OnRound func(metrics.Round)

	// WALDir, when non-empty, journals each served round's encoded
	// upstream reply and the upstream codec's error-feedback residual. A
	// restarted relay (same ID, same directory) replays the log and can
	// redeliver its last committed reply when a durably-resuming parent
	// re-broadcasts an in-flight round, instead of retraining its cohort.
	WALDir string
}

func (c *RelayConfig) validate() error {
	switch {
	case c.ID == "":
		return fmt.Errorf("fed: relay requires an ID")
	case c.ExpectClients <= 0:
		return fmt.Errorf("fed: relay ExpectClients must be positive, got %d", c.ExpectClients)
	}
	return c.ModelConfig.Validate()
}

// relay is the running state: an aggState over the cohort-side server (its
// collect, commit and seal are the aggregator's) plus the parent-side member
// session, whose work step is serve.
type relay struct {
	*aggState
	up memberSession

	lastRound int32 // highest parent round served on this connection
	// lastVer is the newest global model version seen from an async parent
	// (0 under a sync parent), stamped on this tier's round records.
	lastVer int
	// answerEmpty sends an empty update for a round whose cohort folded
	// nothing, instead of nothing: fed.Run's root waits for every relay
	// without a deadline.
	answerEmpty bool
}

// RunRelay serves a relay aggregator until the parent ends the session:
// wait for ExpectClients cohort joins on l, dial the parent, and bridge
// parent rounds onto cohort rounds. The cohort side is fully elastic (late
// joins, rejoins, heartbeat eviction, per-round deadline with partial
// aggregation); a cohort that delivers zero updates for a round simply
// sends nothing upstream, so the parent sees one straggler — not a dead
// cohort. A parent connection loss is retried per cfg.Parent; when the
// session is lost for good the cohort is dropped abruptly (no MsgShutdown),
// so resilient cohort clients reconnect to a restarted relay instead of
// exiting.
//
// The returned Result carries this tier's round history and the last
// global parameters seen from the parent (loaded into FinalModel).
func RunRelay(ctx context.Context, l *link.Listener, dial func(context.Context) (*link.Conn, error), cfg RelayConfig) (*Result, error) {
	return runRelay(ctx, l, dial, cfg, nil)
}

// runRelay is RunRelay with setup, when non-nil, run on the relay before it
// serves: fed.Run's joins the relay's cohort in memory (l is then nil).
func runRelay(ctx context.Context, l *link.Listener, dial func(context.Context) (*link.Conn, error), cfg RelayConfig, setup func(*relay)) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Durable relay: the WAL is read back before serving.
	st := newAggState(ServerConfig{
		ModelConfig:       cfg.ModelConfig,
		Seed:              cfg.Seed,
		ExpectClients:     cfg.ExpectClients,
		ClientsPerRound:   cfg.ClientsPerRound,
		MinClients:        cfg.MinClients,
		HeartbeatInterval: cfg.HeartbeatInterval,
		RoundDeadline:     cfg.RoundDeadline,
		OverProvision:     cfg.OverProvision,
		Codec:             cfg.Codec,
		OnRound:           cfg.OnRound,
		WALDir:            cfg.WALDir,
	})
	// The relay's log holds replies in the upstream codec's bytes.
	st.header.Member, st.header.Data = "relay", []byte(cfg.Parent.Codec)
	recovered, err := st.openServer()
	if err != nil {
		return nil, err
	}
	defer st.jrn.close()
	r := &relay{
		aggState: st,
		up: memberSession{
			id:      cfg.ID,
			name:    "relay " + cfg.ID,
			require: cfg.Parent.Codec,
			want:    int(cfg.ModelConfig.ParamCount()),
		},
	}
	// A compaction must keep what a restart redelivers from, and a restart
	// seeds the session's reply cache with the last committed reply.
	st.carry = r.replyCarry
	r.up.recoverReply(recovered)
	cfg.Parent.fill()
	if setup != nil {
		setup(r)
	}

	stop := st.s.startLoops(ctx, l)
	graceful := false
	defer func() { stop(graceful) }()
	defer st.stopAsks()

	// The cohort assembles before the relay announces itself upstream.
	if err := st.s.waitAlive(ctx, cfg.ExpectClients, 0); err != nil {
		return nil, err
	}
	err = serveResilient(ctx, dial, cfg.ID, cfg.Parent, func(ctx context.Context, conn *link.Conn) error {
		// Round numbering is per parent RUN, not global: a restarted parent
		// starts over at round 1, so the stale-redelivery guard resets with
		// each fresh connection.
		r.lastRound = 0
		return r.up.serveConn(ctx, conn, r.serve)
	})
	// A clean end and an operator-initiated stop shut the cohort down
	// gracefully; anything else is a crash.
	graceful = err == nil || ctx.Err() != nil
	res := &Result{History: r.hist, Global: r.global}
	if r.global != nil {
		res.FinalModel = nn.NewModel(cfg.ModelConfig, rand.New(rand.NewSource(cfg.Seed)))
		if lerr := res.FinalModel.Params().LoadFlat(r.global); lerr != nil {
			return nil, lerr
		}
	}
	return res, err
}

// serve is the relay's work step: bridge one parent round onto the cohort —
// collect one sync window under the cohort tier's own deadline on the
// decoded broadcast, and hand its mean upstream as one pseudo-gradient
// (Algorithm 1 line 24): the outer step is the root's, so a two-tier mean of
// equal cohorts is the flat mean. A round whose cohort delivered nothing
// replies nothing — the parent's deadline counts the relay as a straggler
// and the run moves on. A resumed round (one whose cached reply the session
// could not use) collects again with the resume flag propagated downstream,
// so leaf clients that already trained it answer from their own caches.
func (r *relay) serve(ctx context.Context, t roundTask) (*roundReply, error) {
	resumed := t.msg.Meta[link.ResumeKey] != 0
	if t.msg.Round <= r.lastRound && !resumed {
		return nil, nil // stale redelivery
	}
	round := int(t.msg.Round)
	r.global = append(r.global[:0], t.global...) // the session rewrites t.global in place next round
	if ver, ok := t.msg.Meta[link.VersionKey]; ok {
		r.lastVer = int(ver)
	}
	// The parent's trace ID attributes everything this round does — the
	// cohort exchange included, since it is propagated downstream on the
	// cohort broadcasts — to the root round that caused it.
	w := r.open(round, uint64(t.msg.Meta[link.TraceKey]), t.start)
	w.rec.Tier, w.rec.ModelVersion = 1, r.lastVer
	// This tier's codec cost covers both connections: the parent
	// broadcast's decode here, the cohort exchange's on top.
	w.rec.DecodeMs = float64(t.decNs) / 1e6
	w.pn.Add(obsv.PhaseDecode, t.decNs)

	// An emptied cohort gets a rejoin window; if nobody comes back the
	// round is simply skipped upstream.
	cohort, err := r.draw(ctx, nil)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		r.lastRound = t.msg.Round
		return nil, r.seal(w)
	}
	if err := r.collect(ctx, w, r.cohortPolicy(w, cohort, resumed)); err != nil {
		return nil, err // cancelled, or a server-side encode failure: deterministic, not retryable
	}
	r.lastRound = t.msg.Round
	upward := r.commit(w)
	if upward == nil && r.answerEmpty {
		return &roundReply{meta: map[string]float64{link.CohortKey: 0}, sent: func(sentReply) error { return r.seal(w) }}, nil
	}
	if upward == nil {
		return nil, r.seal(w)
	}
	folded := w.rec.Clients
	meta := metrics.AggMetrics(w.metrics)
	meta[link.CohortKey] = float64(folded)
	return &roundReply{
		update: upward,
		meta:   meta,
		sticky: map[string]float64{link.CohortKey: float64(folded)},
		sent: func(st sentReply) error {
			w.rec.EncodeMs += float64(st.encNs) / 1e6
			w.pn.Add(obsv.PhaseEncode, st.encNs)
			// Journal the reply (bytes and residual here, the commit in
			// seal) so the cache survives a relay restart. A journal error
			// is fatal — an armed failpoint here models the relay crashing
			// right after the record lands.
			if err := r.jrn.upstreamReply(round, folded, st.payload, r.up.enc); err != nil {
				return err
			}
			return r.seal(w)
		},
	}, nil
}

// replyCarry renders the session's cached reply as the records a compacted
// log must keep for recoverReply: the reply, the residual, and the commit
// that makes them safe to redeliver.
func (r *relay) replyCarry() []ckpt.Record {
	round := int(r.up.cacheRound)
	recs := upstreamReplyRecords(round, int(r.up.cacheSticky[link.CohortKey]), r.up.cacheReply, r.up.enc)
	return append(recs, ckpt.Record{Type: ckpt.RecRoundCommit, Round: round})
}
