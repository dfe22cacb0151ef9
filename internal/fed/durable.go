package fed

// Durable control plane: the journal wraps the ckpt write-ahead log with
// fed-level record semantics, and the replay functions fold a recovered
// record stream back into aggregator / relay state. The protocol per round:
//
//	round_open(round, epoch, cohort IDs)
//	member_update(round, member, wire payload)        — one per arrival
//	outer_step(round, post-step global params)        — aggregation applied
//	state_snapshot("outer", optimizer state)          — momentum buffers
//	round_commit(round, epoch)                        — fsync barrier
//
// Everything before round_commit is cheap (buffered appends); the commit
// record is the only fsync, so journaling adds one disk flush per round.
// A crash between records leaves a prefix the WAL replays verbatim: the
// resumed aggregator re-opens the in-flight round, keeps the journaled
// member updates, and only re-asks members whose updates were lost.
//
// Relays journal a smaller protocol: the encoded upstream reply bytes
// (member "up"), the upstream codec's error-feedback residual
// (state_snapshot "codec"), and a commit per served round. Re-encoding an
// update after a crash would double-apply the top-k residual, so the relay
// journals the exact bytes it sent and replays them on redelivery.
//
// An async (FedBuff-mode) aggregator journals its own protocol per version:
//
//	round_open(max leased task, member "lease")       — task-ID lease
//	buffer_fold(task, trained version, member, payload) — one per folded update
//	outer_step(version, post-step global params)      — buffer committed
//	state_snapshot("outer", optimizer state)          — momentum buffers
//	version_commit(version, epoch)                    — fsync barrier
//
// The fold records between two version commits are the pending buffer; a
// crash mid-buffer replays them and the resumed aggregator re-folds without
// re-asking the members. Post-step state is only trusted once its
// version_commit sealed it — otherwise the step is redone from the journaled
// folds, which is bit-exact (same updates, same order, same weights). The
// lease records ensure a restarted aggregator never reuses a dispatch task
// ID that may have trained a member before the crash.

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

// asyncLeaseMember is the Member key marking a round_open record as an async
// task-ID lease rather than a sync cohort open (sync opens never set Member).
const asyncLeaseMember = "lease"

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

// outerStep journals the post-step global parameters plus the outer
// optimizer's state. Replay restores the params bit-for-bit instead of
// re-running the order-sensitive float32 aggregation.
func (j *journal) outerStep(round int, global []float32, outer OuterOpt) error {
	if !j.enabled() {
		return nil // skip the state copy
	}
	recs := []ckpt.Record{{Type: ckpt.RecOuterStep, Round: round, Vec: global}}
	if st := snapshotOuter(outer); st != nil {
		recs = append(recs, ckpt.Record{Type: ckpt.RecStateSnapshot, Round: round, Member: snapOuter, Vec: st})
	}
	return j.append(recs...)
}

// commit seals a window — a sync or relay round (RecRoundCommit) or an async
// model version (RecVersionCommit). It is the journal's fsync barrier.
func (j *journal) commit(typ ckpt.RecordType, round int, epoch uint64) error {
	return j.append(ckpt.Record{Type: typ, Round: round, Epoch: epoch})
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
// buffer: the dispatch task ID, the model version the member trained on, and
// the update's wire payload as received. Appended before the in-memory fold,
// so a crash after the append loses nothing and a crash before it folds
// nothing.
func (j *journal) bufferFold(task int, member string, trainedVersion uint64, p link.EncodedPayload) error {
	if !j.enabled() {
		return nil // skip the payload copy
	}
	return j.append(ckpt.Record{Type: ckpt.RecBufferFold, Round: task, Epoch: trainedVersion, Member: member, Data: encodePayloadBytes(p)})
}

// taskLease journals (and fsyncs) a dispatch task-ID lease: every ID up to
// and including leasedThrough may be handed out by this process life. A
// restarted aggregator resumes its counter past the lease, so a task ID that
// was in flight at the crash — and may have advanced a member's data stream
// — is never minted a second time.
func (j *journal) taskLease(leasedThrough int) error {
	if !j.enabled() {
		return nil
	}
	if err := j.append(leaseRecord(leasedThrough)); err != nil {
		return err
	}
	return j.wal.Sync()
}

// leaseRecord renders a task-ID lease as the record taskLease journals and a
// compaction carries.
func leaseRecord(leasedThrough int) ckpt.Record {
	return ckpt.Record{Type: ckpt.RecRoundOpen, Round: leasedThrough, Member: asyncLeaseMember}
}

// openRound is a partially-completed round reconstructed from the WAL.
type openRound struct {
	round   int
	cohort  []string                       // journaled cohort member IDs
	updates map[string]link.EncodedPayload // journaled updates by member, as received
	order   []string                       // arrival order, for deterministic averaging
	stepped bool                           // outer step already applied pre-crash

	// Post-step state journaled for this round before the crash. It is
	// kept on the open round — not folded into the resume state — because
	// a crash can land between the outer_step record and its state
	// snapshot: the params would be post-step but the momentum pre-step.
	// The resume path only trusts the pair when it is complete (snapped,
	// or the outer optimizer is stateless); otherwise it redoes the step
	// from the journaled updates.
	postGlobal []float32
	postOuter  []float32
	snapped    bool
}

// serverResume is the aggregator state recovered from a WAL replay.
type serverResume struct {
	committed int        // last committed round (0: none)
	global    []float32  // post-step params as of the newest outer_step / base
	outer     []float32  // outer optimizer state as of the newest snapshot
	open      *openRound // in-flight round, nil when cleanly committed
}

// replayServerWAL folds a recovery into aggregator resume state. The WAL
// layer already guarantees Records is a valid prefix; replay is therefore
// infallible — unknown or out-of-order records are skipped, never fatal.
func replayServerWAL(rv *ckpt.Recovery) *serverResume {
	res := &serverResume{}
	if rv == nil {
		return res
	}
	if rv.Base != nil {
		res.committed = rv.Base.Round
		res.global = rv.Base.Params
	}
	for _, rec := range rv.Records {
		switch rec.Type {
		case ckpt.RecRoundOpen:
			if rec.Member != "" {
				// An async task-ID lease (member "lease"), not a cohort
				// open; a sync replay over an async log must not invent an
				// in-flight round from it.
				break
			}
			res.open = &openRound{
				round:   rec.Round,
				cohort:  rec.IDs,
				updates: make(map[string]link.EncodedPayload, len(rec.IDs)),
			}
		case ckpt.RecMemberUpdate:
			if res.open != nil && rec.Round == res.open.round && rec.Member != upstreamMember {
				p, ok := journaledUpdate(&rec)
				if !ok {
					break // unreadable: as if never journaled, the member is re-asked
				}
				if _, dup := res.open.updates[rec.Member]; !dup {
					res.open.order = append(res.open.order, rec.Member)
				}
				res.open.updates[rec.Member] = p
			}
		case ckpt.RecOuterStep:
			if res.open != nil && res.open.round == rec.Round {
				res.open.stepped = true
				res.open.postGlobal = rec.Vec
			} else {
				res.global = rec.Vec
			}
		case ckpt.RecStateSnapshot:
			if rec.Member != snapOuter {
				break
			}
			if res.open != nil && res.open.round == rec.Round {
				res.open.postOuter = rec.Vec
				res.open.snapped = true
			} else {
				// A compacted log carries the committed outer state as a
				// bare snapshot record with no surrounding round.
				res.outer = rec.Vec
			}
		case ckpt.RecRoundCommit:
			if rec.Round > res.committed {
				res.committed = rec.Round
			}
			if res.open != nil && res.open.round <= rec.Round {
				// The commit seals the open round: its post-step state is
				// now the durable truth.
				if res.open.stepped {
					res.global = res.open.postGlobal
					if res.open.snapped {
						res.outer = res.open.postOuter
					}
				}
				res.open = nil
			}
		}
	}
	// A round opened at or before the last commit is stale (possible only
	// with a reordered or hand-edited log); drop it rather than replay it.
	if res.open != nil && res.open.round <= res.committed {
		res.open = nil
	}
	return res
}

// pendingFold is one journaled-but-uncommitted async buffer fold.
type pendingFold struct {
	task           int                 // dispatch task ID the update answered
	member         string              // member that produced it
	trainedVersion int                 // global model version it was trained on
	payload        link.EncodedPayload // the update as received
}

// asyncResume is the async-aggregator state recovered from a WAL replay.
type asyncResume struct {
	committed int           // last committed model version (0: none)
	global    []float32     // params as of the newest *sealed* commit / base
	outer     []float32     // outer state as of the newest sealed snapshot
	pending   []pendingFold // folds journaled after the last commit, in order
	maxTask   int           // highest task ID leased or observed in the log
}

// replayAsyncWAL folds a recovery into async resume state. Post-step state
// (outer_step + its snapshot) is only adopted once a version_commit seals
// it; an unsealed step is discarded and redone from the pending folds, which
// reproduces it bit-for-bit — same updates, same order, same staleness
// weights (the global version is constant while a buffer fills, so replayed
// staleness equals the original).
func replayAsyncWAL(rv *ckpt.Recovery) *asyncResume {
	res := &asyncResume{}
	if rv == nil {
		return res
	}
	if rv.Base != nil {
		res.committed = rv.Base.Round
		res.global = rv.Base.Params
	}
	var pendingGlobal, pendingOuter []float32
	for _, rec := range rv.Records {
		switch rec.Type {
		case ckpt.RecRoundOpen:
			if rec.Member == asyncLeaseMember && rec.Round > res.maxTask {
				res.maxTask = rec.Round
			}
		case ckpt.RecBufferFold:
			if rec.Round > res.maxTask {
				res.maxTask = rec.Round
			}
			p, ok := journaledUpdate(&rec)
			if !ok {
				break // unreadable: as if never journaled, the member is re-asked
			}
			res.pending = append(res.pending, pendingFold{
				task:           rec.Round,
				member:         rec.Member,
				trainedVersion: int(rec.Epoch),
				payload:        p,
			})
		case ckpt.RecOuterStep:
			pendingGlobal = rec.Vec
		case ckpt.RecStateSnapshot:
			if rec.Member != snapOuter {
				break
			}
			if pendingGlobal != nil {
				pendingOuter = rec.Vec
			} else {
				// A compacted log carries the committed outer state as a
				// bare snapshot with no preceding step record.
				res.outer = rec.Vec
			}
		case ckpt.RecVersionCommit:
			if rec.Round > res.committed {
				res.committed = rec.Round
			}
			if pendingGlobal != nil {
				res.global = pendingGlobal
				if pendingOuter != nil {
					res.outer = pendingOuter
				}
			}
			pendingGlobal, pendingOuter = nil, nil
			res.pending = res.pending[:0]
		}
	}
	return res
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

// journaledUpdate reads a member_update / buffer_fold record's update as a
// wire payload: the received payload from Data, or — a log written before
// payloads were journaled — the decoded vector from Vec, wrapped in the
// (lossless, always-accepted) dense encoding.
func journaledUpdate(rec *ckpt.Record) (link.EncodedPayload, bool) {
	if len(rec.Data) == 0 {
		return link.Dense(rec.Vec), len(rec.Vec) > 0
	}
	return decodePayloadBytes(rec.Data)
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
// epoch from cumulative churn: every join, rejoin, leave, and eviction
// advances it. It is journaled on round_open/round_commit records so a
// replayed log tells membership eras apart.
func (s *server) membershipEpoch() uint64 {
	tot := s.reg.Totals()
	return uint64(tot.Joins + tot.Rejoins + tot.Leaves + tot.Evictions)
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
