package fed

// Durable control plane: the journal wraps the ckpt write-ahead log with
// fed-level record semantics, and replayWAL folds a recovered record stream
// back into aggregator state. A sync aggregator journals per round, an async
// (FedBuff-mode) one per model version:
//
//	sync                                  async
//	round_open(round, epoch, cohort IDs)  —
//	member_update(round, member, payload) buffer_fold(version+1, version, member, payload)
//	round_commit(round, epoch)            version_commit(version, epoch)
//
// Both number an update by the round its member was sent, the version it
// trained on plus one (a sync round r trains on what r−1 commits made).
// The journal holds inputs, never post-step state, and the commit record is
// its only fsync. Every compactEvery commits the log folds into the base
// checkpoint; the fresh segment starts with what a checkpoint cannot hold,
// the outer optimizer's state_snapshot("outer").
//
// Replay has one rule: it always redoes. From the base params and carried
// outer state, each committed window's updates fold again in log order and
// the outer step re-runs. Log order is fold order — a driver journals and
// folds each update in one loop — so the redo is bit-exact on one machine.
// The updates after the last commit are the open window, which the resumed
// driver finishes: a sync round re-asks only the cohort members they do not
// cover; an async buffer re-folds without asking anyone.
//
// Relays journal a smaller protocol: the encoded upstream reply bytes
// (member "up"), the upstream codec's error-feedback residual
// (state_snapshot "codec"), and a commit per served round. Re-encoding an
// update after a crash would double-apply the top-k residual, so the relay
// journals the exact bytes it sent and replays them on redelivery.

import (
	"encoding/binary"
	"log"
	"strconv"

	"photon/internal/ckpt"
	"photon/internal/link"
	"photon/internal/obsv"
)

// snapOuter is the Member key for outer-optimizer state snapshots.
const snapOuter = "outer"

// snapCodec is the Member key for upstream-codec residual snapshots.
const snapCodec = "codec"

// upstreamMember is the Member key for a relay's journaled encoded reply.
const upstreamMember = "up"

// journal provides nil-safe, typed appends over a ckpt.WAL. A nil *journal
// is the "durability off" mode: every method is a no-op, so call sites need
// no branching.
type journal struct {
	wal *ckpt.WAL
}

func newJournal(w *ckpt.WAL) *journal {
	if w == nil {
		return nil
	}
	return &journal{wal: w}
}

func (j *journal) enabled() bool { return j != nil && j.wal != nil }

// append journals recs in order.
func (j *journal) append(recs ...ckpt.Record) error {
	if !j.enabled() {
		return nil
	}
	for i := range recs {
		if err := j.wal.Append(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}

func (j *journal) close() {
	if j.enabled() {
		j.wal.Close()
	}
}

// roundOpen journals the start of a round with its sampled cohort.
func (j *journal) roundOpen(round int, epoch uint64, cohort []string) error {
	return j.append(ckpt.Record{Type: ckpt.RecRoundOpen, Round: round, Epoch: epoch, IDs: cohort})
}

// memberUpdate journals one client update as it arrives — the encoded wire
// payload the member sent, not a re-serialisation of the decoded vector:
// under a sparse or quantized codec that is a fraction of the bytes, and
// Codec.Decode is stateless, so replay decodes it to the same bits.
func (j *journal) memberUpdate(round int, member string, p link.EncodedPayload) error {
	if !j.enabled() {
		return nil // skip the payload copy
	}
	return j.append(ckpt.Record{Type: ckpt.RecMemberUpdate, Round: round, Member: member, Data: encodePayloadBytes(p)})
}

// upstreamReply journals what a relay sent upstream for a round: the exact
// encoded bytes, so redelivery after a crash re-sends them without
// re-encoding (which would double-apply an error-feedback codec's
// residual), and the upstream codec's residual after producing them.
func (j *journal) upstreamReply(round, cohort int, p link.EncodedPayload, codec link.Codec) error {
	if !j.enabled() {
		return nil // skip the payload and residual copies
	}
	return j.append(upstreamReplyRecords(round, cohort, p, codec)...)
}

// upstreamReplyRecords renders a relay's reply as journal records. cohort
// is the update count folded into the reply, stashed in the Epoch field so
// redelivery can restamp the CohortKey meta; a stateless codec has no
// residual record.
func upstreamReplyRecords(round, cohort int, p link.EncodedPayload, codec link.Codec) []ckpt.Record {
	recs := []ckpt.Record{{
		Type: ckpt.RecMemberUpdate, Round: round, Epoch: uint64(cohort),
		Member: upstreamMember, Data: encodePayloadBytes(p),
	}}
	if state := link.CodecState(codec); len(state) > 0 {
		recs = append(recs, ckpt.Record{Type: ckpt.RecStateSnapshot, Round: round, Member: snapCodec, Vec: state})
	}
	return recs
}

// bufferFold journals one update folded into the async staleness-weighted
// buffer: the round the member was sent (trained+1), the model version it
// trained on, and the update's wire payload as received. Appended before the
// in-memory fold, so a crash after the append loses nothing and a crash
// before it folds nothing.
func (j *journal) bufferFold(member string, trained int, p link.EncodedPayload) error {
	if !j.enabled() {
		return nil // skip the payload copy
	}
	return j.append(ckpt.Record{Type: ckpt.RecBufferFold, Round: trained + 1, Epoch: uint64(trained), Member: member, Data: encodePayloadBytes(p)})
}

// pendingUpdate is one journaled update.
type pendingUpdate struct {
	member  string              // member that produced it
	round   int                 // round the member was sent
	trained int                 // async: global model version it was trained on
	payload link.EncodedPayload // the update as received
}

// replayWindow is one committed window: its round (sync) or new version
// (async), and its updates in log order.
type replayWindow struct {
	step    int
	updates []pendingUpdate
}

// walResume is the aggregator state a WAL replay recovers, for either driver.
type walResume struct {
	committed int             // last committed round or version (0: none)
	global    []float32       // base params (nil: fresh init)
	outer     []float32       // outer optimizer state carried with the base
	windows   []replayWindow  // windows committed after the base, in log order
	open      int             // sync: round opened after the last commit (0: none)
	cohort    []string        // sync: that round's journaled cohort
	pending   []pendingUpdate // the open window's updates, in log order
}

// replayWAL splits a recovery into the base, the committed windows and the
// open window. foldRec is the record type the driver journals updates as:
// member_update (sync) or buffer_fold (async). A commit takes the updates
// journaled for its round or earlier — an async update's round never passes
// the version its buffer commits — so a sync round opened past an empty one
// stays open with its own. A crash inside a compaction can leave the old log
// beside the new base: windows the base holds are dropped, and the carry is
// the outer snapshot stamped with the base's round. Records is a valid prefix, so replay is infallible.
func replayWAL(rv *ckpt.Recovery, foldRec ckpt.RecordType) *walResume {
	res := &walResume{}
	if rv == nil {
		return res
	}
	if rv.Base != nil {
		res.committed, res.global = rv.Base.Round, rv.Base.Params
	}
	base := res.committed
	for _, rec := range rv.Records {
		switch rec.Type {
		case ckpt.RecRoundOpen:
			if rec.Round >= res.open {
				res.open, res.cohort = rec.Round, rec.IDs
			}
		case foldRec:
			p, ok := decodePayloadBytes(rec.Data)
			if !ok {
				break // unreadable: as if never journaled, the member is re-asked
			}
			res.pending = append(res.pending, pendingUpdate{member: rec.Member, round: rec.Round, trained: int(rec.Epoch), payload: p})
		case ckpt.RecStateSnapshot:
			if rec.Member == snapOuter && rec.Round == base {
				res.outer = rec.Vec
			}
		case ckpt.RecRoundCommit, ckpt.RecVersionCommit:
			var win []pendingUpdate
			keep := res.pending[:0]
			for _, u := range res.pending {
				if u.round <= rec.Round {
					win = append(win, u)
				} else {
					keep = append(keep, u)
				}
			}
			res.pending = keep
			if rec.Round > base {
				res.windows = append(res.windows, replayWindow{step: rec.Round, updates: win})
			}
			res.committed = max(res.committed, rec.Round)
			if res.open <= rec.Round {
				res.open, res.cohort = 0, nil
			}
		}
	}
	return res
}

// refold is the one loop that folds journaled updates back, for both
// drivers and both kinds of window: decode in log order, hand each to fold.
// One that does not decode is skipped as if never journaled; decodeUpdate
// is deterministic, so a redone window skips what the live run skipped.
func (a *aggState) refold(updates []pendingUpdate, fold func(u pendingUpdate, vec []float32)) {
	for _, u := range updates {
		vec, err := decodeUpdate(a.s.codec, u.payload, len(a.global))
		if err != nil {
			log.Printf("fed: journaled update from %s skipped: %v", u.member, err)
			continue
		}
		fold(u, vec)
	}
}

// restore brings a fresh aggState to what replay recovered: the base params,
// the carried outer state, then each committed window redone at its
// staleness weights (alpha 0, weight 1, for sync) and re-stepped. It touches
// only global, the fold and the optimizer — not history, observers, the
// registry or the journal.
func (a *aggState) restore(res *walResume) error {
	if err := a.initModel(res.global); err != nil {
		return err
	}
	if so, ok := a.cfg.Outer.(OuterState); ok && len(res.outer) > 0 {
		if err := so.Restore(res.outer); err != nil {
			return err
		}
	}
	for _, w := range res.windows {
		a.fold.reset(len(a.global))
		a.refold(w.updates, func(u pendingUpdate, vec []float32) {
			a.fold.add(vec, stalenessWeight(w.step-1, u.trained, a.alpha))
		})
		if a.fold.n > 0 {
			a.cfg.Outer.Step(a.global, a.fold.mean(), w.step)
		}
	}
	return nil
}

// recoverReply seeds a relay's parent-side session from its journal: the last
// committed upstream reply becomes the session's cached reply, and the codec
// residual that produced it is restored into the codec the next handshake
// instantiates. Only committed replies are safe to redeliver: an uncommitted
// reply may never have left the socket, and its residual snapshot may be
// torn away by the same crash.
func (m *memberSession) recoverReply(rv *ckpt.Recovery) {
	if rv == nil {
		return
	}
	var reply link.EncodedPayload
	var replyOK bool
	var round, cohort int
	var codec []float32
	for _, rec := range rv.Records {
		switch rec.Type {
		case ckpt.RecMemberUpdate:
			if rec.Member == upstreamMember {
				if p, ok := decodePayloadBytes(rec.Data); ok {
					reply, replyOK = p, true
					round, cohort = rec.Round, int(rec.Epoch)
				}
			}
		case ckpt.RecStateSnapshot:
			if rec.Member == snapCodec {
				codec = rec.Vec
			}
		case ckpt.RecRoundCommit:
			if replyOK && round == rec.Round {
				m.cacheOK, m.cacheRound, m.cacheReply = true, int32(round), reply
				m.cacheSticky = map[string]float64{link.CohortKey: float64(cohort)}
				m.restore = codec
			}
		}
	}
}

// encodePayloadBytes flattens an EncodedPayload for a WAL record's Data
// field: u8 codec ID | u32 elems | codec bytes.
func encodePayloadBytes(p link.EncodedPayload) []byte {
	out := make([]byte, 5+len(p.Data))
	out[0] = p.CodecID
	binary.LittleEndian.PutUint32(out[1:5], uint32(p.Elems))
	copy(out[5:], p.Data)
	return out
}

// decodePayloadBytes reverses encodePayloadBytes.
func decodePayloadBytes(b []byte) (link.EncodedPayload, bool) {
	if len(b) < 5 {
		return link.EncodedPayload{}, false
	}
	return link.EncodedPayload{
		CodecID: b[0],
		Elems:   int(binary.LittleEndian.Uint32(b[1:5])),
		Data:    b[5:],
	}, true
}

// membershipEpoch derives a monotonic (within one process run) membership
// epoch from cumulative churn: every join, rejoin, and eviction advances
// it. It is journaled on round_open/round_commit records so a
// replayed log tells membership eras apart.
func (s *server) membershipEpoch() uint64 {
	tot := s.reg.Totals()
	return uint64(tot.Joins + tot.Rejoins + tot.Evictions)
}

// publishRegistry publishes a committed round's params into the
// content-addressed registry and moves the "latest" tag. Registry failures
// never abort training — the WAL still has the round — they are logged and
// counted instead.
func publishRegistry(reg *ckpt.Registry, round int, global []float32, lineage map[string]string) {
	snap := make([]float32, len(global))
	copy(snap, global)
	full := make(map[string]string, len(lineage)+1)
	for k, v := range lineage {
		full[k] = v
	}
	full["round"] = strconv.Itoa(round)
	hash, err := reg.Put(&ckpt.Checkpoint{Round: round, Params: snap}, full)
	if err == nil {
		err = reg.Tag("latest", hash)
	}
	if err != nil {
		log.Printf("fed: registry publish for round %d failed: %v", round, err)
		obsv.Default.Counter(
			"photon_registry_errors_total",
			"Model-registry publishes that failed after a round commit.",
		).Inc()
	}
}

// noteCheckpointErr surfaces an async checkpoint writer failure exactly
// once per writer: a log line plus an obsv counter bump, after which the
// run continues without durability rather than aborting training.
func noteCheckpointErr(seen *bool, err error) {
	if err == nil || *seen {
		return
	}
	*seen = true
	log.Printf("fed: async checkpoint write failed; run continues without checkpoint durability: %v", err)
	obsv.Default.Counter(
		"photon_ckpt_write_errors_total",
		"Async checkpoint writes that failed and were surfaced to the run loop.",
	).Inc()
}
