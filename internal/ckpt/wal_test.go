package ckpt

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testRecords() []Record {
	return []Record{
		{Type: RecWALOpen, Round: 3, Member: "sync", Data: []byte("q8")},
		{Type: RecRoundOpen, Round: 1, IDs: []string{"c1", "c2"}},
		{Type: RecMemberUpdate, Round: 1, Member: "c1", Vec: []float32{0.5, -1.25, 3}},
		{Type: RecMemberUpdate, Round: 1, Member: "c2", Vec: []float32{1, 2, -0.5}},
		{Type: RecOuterStep, Round: 1, Vec: []float32{9, 8, 7}},
		{Type: RecStateSnapshot, Round: 1, Member: "outer", Vec: []float32{0.1, 0.2, 0.3}},
		{Type: RecRoundCommit, Round: 1},
	}
}

func writeWAL(t *testing.T, dir string, recs []Record) {
	t.Helper()
	w, rv, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if len(rv.Records) != 0 || rv.Base != nil {
		t.Fatalf("fresh WAL not empty: %+v", rv)
	}
	for i := range recs {
		if err := w.Append(&recs[i]); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords()
	writeWAL(t, dir, recs)

	w, rv, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w.Close()
	if !reflect.DeepEqual(rv.Records, recs) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", rv.Records, recs)
	}
	// Appending after recovery must extend, not clobber.
	if err := w.Append(&Record{Type: RecRoundOpen, Round: 2}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	w.Close()
	_, rv2, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatalf("re-reopen: %v", err)
	}
	if len(rv2.Records) != len(recs)+1 {
		t.Fatalf("got %d records after append, want %d", len(rv2.Records), len(recs)+1)
	}
}

// TestWALTornTail truncates the log at every possible byte boundary and
// asserts replay always returns a valid prefix of the written records —
// never an error, never a partial record.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords()
	writeWAL(t, dir, recs)
	logPath := filepath.Join(dir, walLogName)
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries, so we know how many records each cut preserves.
	var bounds []int
	off := 0
	for i := range recs {
		off += len(encodeRecord(&recs[i]))
		bounds = append(bounds, off)
	}
	if off != len(full) {
		t.Fatalf("frame bounds sum to %d, file is %d bytes", off, len(full))
	}

	for cut := 0; cut <= len(full); cut++ {
		got, validEnd := replayRecords(full[:cut])
		wantN := 0
		for _, b := range bounds {
			if b <= cut {
				wantN++
			}
		}
		if len(got) != wantN {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), wantN)
		}
		if wantN > 0 && !reflect.DeepEqual(got, recs[:wantN]) {
			t.Fatalf("cut %d: prefix mismatch", cut)
		}
		wantEnd := 0
		if wantN > 0 {
			wantEnd = bounds[wantN-1]
		}
		if validEnd != wantEnd {
			t.Fatalf("cut %d: validEnd %d, want %d", cut, validEnd, wantEnd)
		}
	}
}

// TestWALTornTailRepair verifies OpenWAL truncates a torn tail on disk and
// that subsequent appends produce a clean, fully replayable log.
func TestWALTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords()
	writeWAL(t, dir, recs)
	logPath := filepath.Join(dir, walLogName)
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the final record.
	tear := len(full) - len(encodeRecord(&recs[len(recs)-1]))/2
	if err := os.WriteFile(logPath, full[:tear], 0o644); err != nil {
		t.Fatal(err)
	}

	w, rv, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatalf("OpenWAL on torn log: %v", err)
	}
	if len(rv.Records) != len(recs)-1 {
		t.Fatalf("replayed %d records, want %d", len(rv.Records), len(recs)-1)
	}
	if err := w.Append(&Record{Type: RecRoundCommit, Round: 1}); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	w.Close()

	_, rv2, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rv2.Records) != len(recs) {
		t.Fatalf("after repair+append: %d records, want %d", len(rv2.Records), len(recs))
	}
	if rv2.Records[len(rv2.Records)-1].Type != RecRoundCommit {
		t.Fatalf("last record is %v, want round_commit", rv2.Records[len(rv2.Records)-1].Type)
	}
}

// TestWALBitFlips flips every byte of the log in turn; replay must stop at
// (or before) the corrupted record and must never return a record that
// differs from what was written.
func TestWALBitFlips(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords()
	writeWAL(t, dir, recs)
	full, err := os.ReadFile(filepath.Join(dir, walLogName))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0xA5
		got, _ := replayRecords(mut)
		if len(got) > len(recs) {
			t.Fatalf("flip @%d: replayed %d records from a %d-record log", i, len(got), len(recs))
		}
		for j, rec := range got {
			if !recordEqualOrStopped(rec, recs[j]) {
				t.Fatalf("flip @%d: record %d corrupted silently:\n got %+v\nwant %+v", i, j, rec, recs[j])
			}
		}
	}
}

// recordEqualOrStopped: a replayed record must equal the written one; the
// CRC makes a silently altered record impossible, so any inequality is a
// test failure.
func recordEqualOrStopped(got, want Record) bool {
	return reflect.DeepEqual(got, want)
}

// TestWALGolden pins the frame encoding: a byte-level change to the format
// must be a deliberate, versioned decision, not an accident.
func TestWALGolden(t *testing.T) {
	rec := Record{
		Type:   RecMemberUpdate,
		Round:  7,
		Epoch:  2,
		Member: "c1",
		IDs:    []string{"a", "bc"},
		Vec:    []float32{1, -2},
		Data:   []byte{0xDE, 0xAD},
	}
	frame := encodeRecord(&rec)
	want := []byte{
		0x30, 0x00, 0x00, 0x00, // payload length = 48
		0x02,                      // type member_update
		0x07, 0, 0, 0, 0, 0, 0, 0, // round 7
		0x02, 0, 0, 0, 0, 0, 0, 0, // epoch 2
		0x02, 0x00, 'c', '1', // member "c1"
		0x02, 0x00, // 2 ids
		0x01, 0x00, 'a',
		0x02, 0x00, 'b', 'c',
		0x02, 0x00, 0x00, 0x00, // 2 vec elems
		0x00, 0x00, 0x80, 0x3F, // 1.0
		0x00, 0x00, 0x00, 0xC0, // -2.0
		0x02, 0x00, 0x00, 0x00, // 2 data bytes
		0xDE, 0xAD,
	}
	if !bytes.Equal(frame[:len(frame)-4], want) {
		t.Fatalf("frame drifted:\n got % X\nwant % X", frame[:len(frame)-4], want)
	}
	got, ok := decodeRecord(frame[4 : len(frame)-4])
	if !ok || !reflect.DeepEqual(got, rec) {
		t.Fatalf("golden decode mismatch: ok=%v got %+v", ok, got)
	}
}

// FuzzWALReplay throws arbitrary bytes at the replayer: it must never
// panic, and every record it does return must survive a re-encode/decode
// round trip (i.e. be internally consistent, not garbage).
func FuzzWALReplay(f *testing.F) {
	recs := testRecords()
	var log bytes.Buffer
	for i := range recs {
		log.Write(encodeRecord(&recs[i]))
	}
	f.Add(log.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, validEnd := replayRecords(raw)
		if validEnd < 0 || validEnd > len(raw) {
			t.Fatalf("validEnd %d out of [0,%d]", validEnd, len(raw))
		}
		for i := range got {
			re := encodeRecord(&got[i])
			back, ok := decodeRecord(re[4 : len(re)-4])
			if !ok || !reflect.DeepEqual(back, got[i]) {
				t.Fatalf("record %d not round-trippable: %+v", i, got[i])
			}
			for _, v := range got[i].Vec {
				_ = v // NaN is representable; nothing to assert beyond decode consistency
			}
		}
	})
}

func TestWALCompact(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords()
	w, _, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	base := &Checkpoint{Round: 1, Step: 4, Params: []float32{9, 8, 7}}
	carry := []Record{{Type: RecStateSnapshot, Round: 1, Member: "outer", Vec: []float32{0.1, 0.2, 0.3}}}
	if err := w.Compact(base, carry); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Post-compaction appends land in the fresh segment.
	if err := w.Append(&Record{Type: RecRoundOpen, Round: 2, IDs: []string{"c1"}}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	_, rv, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Base == nil || rv.Base.Round != 1 || len(rv.Base.Params) != 3 {
		t.Fatalf("base not recovered: %+v", rv.Base)
	}
	if len(rv.Records) != 2 {
		t.Fatalf("rotated log has %d records, want 2 (carry + post-compact append)", len(rv.Records))
	}
	if rv.Records[0].Type != RecStateSnapshot || rv.Records[1].Round != 2 {
		t.Fatalf("rotated log contents wrong: %+v", rv.Records)
	}
}

// TestWALCompactCarryLandsFirst: a crash inside Compact before the base is
// written leaves the old base and the old log with the carry appended and
// durable, so a replay finds the carry whichever base survives.
func TestWALCompactCarryLandsFirst(t *testing.T) {
	dir := t.TempDir()
	var fp Failpoint
	w, _, err := OpenWAL(dir, &fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&Record{Type: RecRoundCommit, Round: 1}); err != nil {
		t.Fatal(err)
	}
	fp.Arm("wal:state_snapshot")
	carry := []Record{{Type: RecStateSnapshot, Round: 1, Member: "outer", Vec: []float32{0.5}}}
	if err := w.Compact(&Checkpoint{Round: 1, Params: []float32{9}}, carry); !isFailpoint(err) {
		t.Fatalf("armed carry append did not fire: %v", err)
	}
	w.Close()
	_, rv, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Base != nil || len(rv.Records) != 2 || !reflect.DeepEqual(rv.Records[1], carry[0]) {
		t.Fatalf("crash before the base write: base %+v, records %+v", rv.Base, rv.Records)
	}
}

func TestWALFailpoint(t *testing.T) {
	dir := t.TempDir()
	var fp Failpoint
	fp.Arm("wal:round_commit")
	w, _, err := OpenWAL(dir, &fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&Record{Type: RecRoundOpen, Round: 1}); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
	err = w.Append(&Record{Type: RecRoundCommit, Round: 1})
	if err == nil || !isFailpoint(err) {
		t.Fatalf("armed site did not fire: %v", err)
	}
	if !fp.Fired() {
		t.Fatal("Fired() false after firing")
	}
	w.Close()
	// Crash semantics: the record is on disk even though Append errored.
	_, rv, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rv.Records) != 2 {
		t.Fatalf("post-failpoint recovery wrong: %+v", rv.Records)
	}
	// One crash per arming: re-opened WAL with the same (now disarmed)
	// failpoint appends cleanly.
	w2, _, err := OpenWAL(dir, &fp)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := w2.Append(&Record{Type: RecRoundCommit, Round: 2}); err != nil {
		t.Fatalf("disarmed failpoint fired: %v", err)
	}
}

func isFailpoint(err error) bool {
	for err != nil {
		if err == ErrFailpoint {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestWALVecSpecials(t *testing.T) {
	dir := t.TempDir()
	vec := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), 0, math.MaxFloat32}
	writeWAL(t, dir, []Record{{Type: RecStateSnapshot, Member: "outer", Vec: vec}})
	_, rv, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rv.Records) != 1 || !reflect.DeepEqual(rv.Records[0].Vec, vec) {
		t.Fatalf("special values mangled: %+v", rv.Records)
	}
}
