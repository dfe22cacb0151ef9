package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"photon/internal/tensor"
)

// RecordType identifies what state transition a WAL record journals.
type RecordType uint8

// The round-loop state transitions the aggregator journals. Replay applies
// them in order on top of the compacted base checkpoint.
const (
	// RecRoundOpen opens a round: the round number, the membership epoch,
	// and the sampled cohort's member IDs.
	RecRoundOpen RecordType = iota + 1
	// RecMemberUpdate records one cohort member's update as it was accepted
	// into the round: Data carries the encoded wire payload exactly as it
	// arrived. A record without Data is unreadable to the aggregator's
	// replay, which re-asks the member instead.
	RecMemberUpdate
	// RecOuterStep records post-step global parameters in Vec. The fed
	// aggregators no longer write it — their replay redoes each committed
	// step from the journaled updates — but the benchmark's layer replay
	// still does, until that replay is deleted.
	RecOuterStep
	// RecRoundCommit seals a round. It is the WAL's fsync point: everything
	// up to and including the commit is durable once Append returns.
	RecRoundCommit
	// RecStateSnapshot records a named auxiliary state vector — "outer" for
	// the server optimizer's momentum, "codec" for a lossy uplink codec's
	// error-feedback residual. Member carries the name.
	RecStateSnapshot
	// RecBufferFold records one update folded into an async aggregator's
	// staleness-weighted buffer: Round carries the round the member was
	// sent (the version it trained on + 1), Epoch that version, Member the
	// member ID, and Data the update's wire payload as received. Replay
	// re-folds every journaled buffer, so an async aggregator redoes its
	// committed versions and resumes mid-buffer.
	RecBufferFold
	// RecVersionCommit seals one async model-version commit (the async
	// counterpart of RecRoundCommit, and an fsync point like it): Round
	// carries the new global model version, Epoch the membership epoch.
	RecVersionCommit
)

// String names the record type for failpoint sites and logs.
func (t RecordType) String() string {
	switch t {
	case RecRoundOpen:
		return "round_open"
	case RecMemberUpdate:
		return "member_update"
	case RecOuterStep:
		return "outer_step"
	case RecRoundCommit:
		return "round_commit"
	case RecStateSnapshot:
		return "state_snapshot"
	case RecBufferFold:
		return "buffer_fold"
	case RecVersionCommit:
		return "version_commit"
	default:
		return fmt.Sprintf("record(%d)", uint8(t))
	}
}

// Record is one journaled state transition. Which fields are meaningful
// depends on Type; unused fields encode as empty.
type Record struct {
	Type   RecordType
	Round  int
	Epoch  uint64   // membership epoch at round open/commit
	Member string   // member ID (RecMemberUpdate) or state name (RecStateSnapshot)
	IDs    []string // cohort member IDs (RecRoundOpen)
	Vec    []float32
	Data   []byte // opaque payload (an encoded wire payload, as received or to re-send)
}

// Recovery is what OpenWAL reconstructed from disk: the compacted base
// checkpoint (nil when the log has never been compacted) plus every valid
// record appended after it, in append order. A torn tail — a partial
// record from a crash mid-write, a bit-flipped CRC — ends the record list
// early; it is not an error.
type Recovery struct {
	Base    *Checkpoint
	Records []Record
}

// WAL file names inside the directory.
const (
	walBaseName = "base.ckpt"
	walLogName  = "wal.log"
)

// maxRecordBytes bounds one record's encoded payload during replay, so a
// corrupted length prefix can never drive a multi-gigabyte allocation.
const maxRecordBytes = 1 << 30

// WAL is an append-only, CRC-framed record log paired with a compacted
// base checkpoint. One process owns a WAL directory at a time; Photon keys
// the directory off the aggregator's -id, so a restarted aggregator finds
// its own log. Append writes every record to the OS and fsyncs on
// round-commit records — the durability points of the round protocol.
// Records between commits may be lost to a power cut, which is safe: resume
// re-collects them from the (idempotent) members.
type WAL struct {
	dir  string
	f    *os.File
	fail *Failpoint
}

// OpenWAL opens (creating if needed) the WAL directory, replays the base
// checkpoint and the log's valid prefix, truncates any torn tail, and
// returns the log opened for append. fail, when non-nil, arms crash-point
// injection on every subsequent Append.
func OpenWAL(dir string, fail *Failpoint) (*WAL, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("ckpt: wal dir: %w", err)
	}
	rv := &Recovery{}
	base, err := Load(filepath.Join(dir, walBaseName))
	switch {
	case err == nil:
		rv.Base = base
	case os.IsNotExist(unwrapPathErr(err)):
		// Never compacted: cold start or young log.
	default:
		// The base is written atomically, so corruption here is a real
		// storage fault, not a crash artifact — surface it.
		return nil, nil, err
	}

	logPath := filepath.Join(dir, walLogName)
	raw, err := os.ReadFile(logPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("ckpt: wal read: %w", err)
	}
	recs, validEnd := replayRecords(raw)
	rv.Records = recs

	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: wal open: %w", err)
	}
	// Torn-tail repair: drop the partial record so the next append starts
	// at a clean frame boundary.
	if int64(validEnd) < int64(len(raw)) {
		if err := f.Truncate(int64(validEnd)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("ckpt: wal truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(validEnd), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("ckpt: wal seek: %w", err)
	}
	return &WAL{dir: dir, f: f, fail: fail}, rv, nil
}

// unwrapPathErr digs the os-level error out of Load's wrapping so IsNotExist
// works on it.
func unwrapPathErr(err error) error {
	for {
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return err
		}
		err = u.Unwrap()
	}
}

// replayRecords decodes the valid prefix of a log image, returning the
// records and the byte offset where validity ends. Corruption anywhere —
// short frame, absurd length, CRC mismatch, malformed payload — stops the
// replay at the last valid record; it is never an error, because a torn
// tail is the expected shape of a crash.
func replayRecords(raw []byte) ([]Record, int) {
	var recs []Record
	off := 0
	for {
		if off+8 > len(raw) {
			return recs, off
		}
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		if n <= 0 || n > maxRecordBytes || off+8+n > len(raw) {
			return recs, off
		}
		payload := raw[off+4 : off+4+n]
		want := binary.LittleEndian.Uint32(raw[off+4+n:])
		if crc32.ChecksumIEEE(payload) != want {
			return recs, off
		}
		rec, ok := decodeRecord(payload)
		if !ok {
			return recs, off
		}
		recs = append(recs, rec)
		off += 8 + n
	}
}

// encodeRecord renders one record's frame — u32 payload length, payload,
// u32 CRC-32 of the payload — into a single exactly-sized buffer.
func encodeRecord(rec *Record) []byte {
	size := 1 + 8 + 8 + 2 + len(rec.Member) + 2 + 4 + 4*len(rec.Vec) + 4 + len(rec.Data)
	for _, id := range rec.IDs {
		size += 2 + len(id)
	}
	le := binary.LittleEndian
	out := make([]byte, 4, 8+size)
	le.PutUint32(out, uint32(size))
	out = append(out, byte(rec.Type))
	out = le.AppendUint64(out, uint64(rec.Round))
	out = le.AppendUint64(out, rec.Epoch)
	out = le.AppendUint16(out, uint16(len(rec.Member)))
	out = append(out, rec.Member...)
	out = le.AppendUint16(out, uint16(len(rec.IDs)))
	for _, id := range rec.IDs {
		out = le.AppendUint16(out, uint16(len(id)))
		out = append(out, id...)
	}
	out = le.AppendUint32(out, uint32(len(rec.Vec)))
	vec := out[len(out) : len(out)+4*len(rec.Vec)]
	tensor.PutLE(vec, rec.Vec)
	out = out[:len(out)+len(vec)]
	out = le.AppendUint32(out, uint32(len(rec.Data)))
	out = append(out, rec.Data...)
	return le.AppendUint32(out, crc32.ChecksumIEEE(out[4:]))
}

// decodeRecord parses one frame payload; ok=false marks it malformed.
func decodeRecord(p []byte) (Record, bool) {
	var rec Record
	off := 0
	need := func(n int) bool { return off+n <= len(p) }
	if !need(1 + 8 + 8 + 2) {
		return rec, false
	}
	rec.Type = RecordType(p[off])
	off++
	rec.Round = int(binary.LittleEndian.Uint64(p[off:]))
	off += 8
	rec.Epoch = binary.LittleEndian.Uint64(p[off:])
	off += 8
	mLen := int(binary.LittleEndian.Uint16(p[off:]))
	off += 2
	if !need(mLen) {
		return rec, false
	}
	rec.Member = string(p[off : off+mLen])
	off += mLen
	if !need(2) {
		return rec, false
	}
	nIDs := int(binary.LittleEndian.Uint16(p[off:]))
	off += 2
	if nIDs > 0 {
		rec.IDs = make([]string, 0, nIDs)
	}
	for i := 0; i < nIDs; i++ {
		if !need(2) {
			return rec, false
		}
		l := int(binary.LittleEndian.Uint16(p[off:]))
		off += 2
		if !need(l) {
			return rec, false
		}
		rec.IDs = append(rec.IDs, string(p[off:off+l]))
		off += l
	}
	if !need(4) {
		return rec, false
	}
	nVec := int(binary.LittleEndian.Uint32(p[off:]))
	off += 4
	if nVec < 0 || !need(4*nVec) {
		return rec, false
	}
	if nVec > 0 {
		rec.Vec = make([]float32, nVec)
		tensor.GetLE(rec.Vec, p[off:])
		off += 4 * nVec
	}
	if !need(4) {
		return rec, false
	}
	nData := int(binary.LittleEndian.Uint32(p[off:]))
	off += 4
	if nData < 0 || !need(nData) {
		return rec, false
	}
	if nData > 0 {
		rec.Data = append([]byte(nil), p[off:off+nData]...)
		off += nData
	}
	if off != len(p) {
		return rec, false
	}
	return rec, true
}

// Append journals one record: frame it, hand the frame to the OS in one
// write, and fsync when the record is a round commit (the round protocol's
// durability point). With a failpoint armed at "wal:<type>", the record
// still lands — modeling a crash immediately after the write — and Append
// returns ErrFailpoint for the caller to die on.
func (w *WAL) Append(rec *Record) error {
	if _, err := w.f.Write(encodeRecord(rec)); err != nil {
		return fmt.Errorf("ckpt: wal append: %w", err)
	}
	if rec.Type == RecRoundCommit || rec.Type == RecVersionCommit {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("ckpt: wal sync: %w", err)
		}
	}
	if site := "wal:" + rec.Type.String(); w.fail.Fire(site) {
		return failErr(site)
	}
	return nil
}

// Sync forces everything appended so far to stable storage.
func (w *WAL) Sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("ckpt: wal sync: %w", err)
	}
	return nil
}

// Compact folds the journaled history into the atomic base checkpoint and
// rotates the log. The carry-over records (auxiliary state that is not part
// of the checkpoint) are appended to the live log and synced first; then
// base lands durably, and a fresh segment seeded with the carry atomically
// replaces the old log. A crash anywhere in between leaves a log that holds
// the carry for whichever base is on disk: a replay that skips the windows
// the base already holds and takes the carry stamped with the base's round
// recovers the same state from any of the three.
func (w *WAL) Compact(base *Checkpoint, carry []Record) error {
	for i := range carry {
		if err := w.Append(&carry[i]); err != nil {
			return err
		}
	}
	if len(carry) > 0 {
		if err := w.Sync(); err != nil {
			return err
		}
	}
	if err := Save(filepath.Join(w.dir, walBaseName), base); err != nil {
		return fmt.Errorf("ckpt: wal compact: %w", err)
	}
	var seg bytes.Buffer
	for i := range carry {
		seg.Write(encodeRecord(&carry[i]))
	}
	if err := writeFileAtomic(filepath.Join(w.dir, walLogName), seg.Bytes()); err != nil {
		return fmt.Errorf("ckpt: wal rotate: %w", err)
	}
	// Swap the append handle onto the fresh segment.
	f, err := os.OpenFile(filepath.Join(w.dir, walLogName), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: wal reopen: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: wal seek: %w", err)
	}
	w.f.Close()
	w.f = f
	if site := "wal:compact"; w.fail.Fire(site) {
		return failErr(site)
	}
	return nil
}

// Close syncs and closes the log file.
func (w *WAL) Close() error {
	serr := w.f.Sync()
	cerr := w.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
