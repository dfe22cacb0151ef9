// Package ckpt implements Photon's durable state: the aggregator snapshots
// the global model at every round boundary (Algorithm 1 line 11, "async
// checkpointing"), each LLM client keeps a local checkpoint for fast
// recovery (line 26), the control plane journals round state transitions to
// a write-ahead log (wal.go) so a crashed aggregator can resume the round
// in flight, and committed checkpoints can be published to a
// content-addressed model registry (registry.go). Checkpoint writes are
// atomic (temp file + rename + parent-dir fsync) so a crash can never leave
// a truncated checkpoint in place, and the async writer keeps checkpointing
// off the training critical path with latest-wins semantics.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"photon/internal/tensor"
)

// Checkpoint is one recoverable training state: the flat parameter vector
// plus round/step counters and scalar metadata.
type Checkpoint struct {
	Round  int
	Step   int
	Meta   map[string]float64
	Params []float32
}

const (
	magic   = 0x50434B50 // "PCKP"
	version = 1
)

// encodeCheckpoint renders the checkpoint in its on-disk format: magic,
// version, round/step, sorted meta, params, CRC-32 trailer over everything
// between the header and the trailer. Save and the registry share this
// encoding, so a registry blob's hash is the hash of the exact bytes Save
// would have written.
func encodeCheckpoint(c *Checkpoint) []byte {
	keys := make([]string, 0, len(c.Meta))
	size := 8 + 16 + 4 + 4 + 4*len(c.Params) + 4
	for k := range c.Meta {
		keys = append(keys, k)
		size += 4 + len(k) + 8
	}
	sort.Strings(keys)
	le := binary.LittleEndian
	out := make([]byte, 0, size)
	out = le.AppendUint32(out, magic)
	out = le.AppendUint32(out, version)
	out = le.AppendUint64(out, uint64(c.Round))
	out = le.AppendUint64(out, uint64(c.Step))
	out = le.AppendUint32(out, uint32(len(keys)))
	for _, k := range keys {
		out = le.AppendUint32(out, uint32(len(k)))
		out = append(out, k...)
		out = le.AppendUint64(out, math.Float64bits(c.Meta[k]))
	}
	out = le.AppendUint32(out, uint32(len(c.Params)))
	params := len(out)
	out = out[:params+4*len(c.Params)]
	tensor.PutLE(out[params:], c.Params)
	return le.AppendUint32(out, crc32.ChecksumIEEE(out[8:]))
}

// decodeCheckpoint parses and verifies the on-disk format.
func decodeCheckpoint(raw []byte) (*Checkpoint, error) {
	if len(raw) < 8+16+4+4+4 {
		return nil, fmt.Errorf("ckpt: file too short (%d bytes)", len(raw))
	}
	if binary.LittleEndian.Uint32(raw[0:]) != magic {
		return nil, fmt.Errorf("ckpt: bad magic")
	}
	if v := binary.LittleEndian.Uint32(raw[4:]); v != version {
		return nil, fmt.Errorf("ckpt: unsupported version %d", v)
	}
	body := raw[8 : len(raw)-4]
	wantCRC := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, fmt.Errorf("ckpt: checksum mismatch")
	}

	off := 0
	need := func(n int) error {
		if off+n > len(body) {
			return fmt.Errorf("ckpt: truncated body")
		}
		return nil
	}
	c := &Checkpoint{}
	if err := need(16); err != nil {
		return nil, err
	}
	c.Round = int(binary.LittleEndian.Uint64(body[off:]))
	c.Step = int(binary.LittleEndian.Uint64(body[off+8:]))
	off += 16
	if err := need(4); err != nil {
		return nil, err
	}
	nMeta := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if nMeta > 0 {
		c.Meta = make(map[string]float64, nMeta)
	}
	for i := 0; i < nMeta; i++ {
		if err := need(4); err != nil {
			return nil, err
		}
		kLen := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if err := need(kLen + 8); err != nil {
			return nil, err
		}
		k := string(body[off : off+kLen])
		off += kLen
		c.Meta[k] = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
		off += 8
	}
	if err := need(4); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if err := need(4 * n); err != nil {
		return nil, err
	}
	if n > 0 {
		c.Params = make([]float32, n)
		tensor.GetLE(c.Params, body[off:])
	}
	return c, nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Without it a checkpoint (or a rotated WAL segment) written and
// renamed moments before power loss can vanish: the data blocks hit disk,
// but the rename lived only in the directory's in-memory metadata.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// writeFileAtomic writes data to path atomically and durably: temp file in
// the same directory, write, fsync, rename over path, fsync the directory.
func writeFileAtomic(path string, data []byte) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("ckpt: create temp: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	w := bufio.NewWriterSize(tmp, 1<<20)
	if _, err = w.Write(data); err != nil {
		return fmt.Errorf("ckpt: write: %w", err)
	}
	if err = w.Flush(); err != nil {
		return fmt.Errorf("ckpt: flush: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("ckpt: sync: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: rename: %w", err)
	}
	if err = syncDir(dir); err != nil {
		return fmt.Errorf("ckpt: sync dir: %w", err)
	}
	return nil
}

// Save writes the checkpoint atomically: the bytes land in a temp file in
// the same directory, are fsynced, are renamed over path, and the parent
// directory is fsynced so the rename itself survives power loss.
func Save(path string, c *Checkpoint) error {
	return writeFileAtomic(path, encodeCheckpoint(c))
}

// Load reads and verifies a checkpoint written by Save.
func Load(path string) (*Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: read: %w", err)
	}
	return decodeCheckpoint(raw)
}

// AsyncWriter checkpoints in a background goroutine with latest-wins
// semantics: if training produces rounds faster than the disk can absorb,
// intermediate snapshots are skipped rather than queued.
type AsyncWriter struct {
	path string

	mu      sync.Mutex
	pending *Checkpoint
	lastErr error
	kick    chan struct{}
	done    chan struct{}
	closed  bool
}

// NewAsyncWriter starts the background writer for path.
func NewAsyncWriter(path string) *AsyncWriter {
	w := &AsyncWriter{
		path: path,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go w.loop()
	return w
}

func (w *AsyncWriter) loop() {
	defer close(w.done)
	for range w.kick {
		for {
			w.mu.Lock()
			c := w.pending
			w.pending = nil
			w.mu.Unlock()
			if c == nil {
				break
			}
			if err := Save(w.path, c); err != nil {
				w.mu.Lock()
				if w.lastErr == nil {
					w.lastErr = err // first error wins: it names the root cause
				}
				w.mu.Unlock()
			}
		}
	}
}

// Submit schedules a checkpoint; a previously queued, unwritten snapshot is
// replaced. The checkpoint must not be mutated after submission.
func (w *AsyncWriter) Submit(c *Checkpoint) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.pending = c
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// Err reports the first background write error, without waiting for Close:
// a run that checkpoints for hours should learn its disk is full on the
// round it happened, not at shutdown.
func (w *AsyncWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastErr
}

// Close flushes the final pending checkpoint and returns the first write
// error, if any.
func (w *AsyncWriter) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.kick)
	<-w.done
	// The loop may have exited between draining and close; flush directly.
	w.mu.Lock()
	c, err := w.pending, w.lastErr
	w.pending = nil
	w.mu.Unlock()
	if c != nil {
		if serr := Save(w.path, c); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}
