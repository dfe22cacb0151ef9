package link

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
)

// deltaVectors returns a model of n elements and the next one, with about
// share of the coordinates changed, some of them to bit patterns only a
// bitwise compare tells apart (−0 from +0, one NaN payload from another).
func deltaVectors(seed int64, n int, share float64) (prev, next []float32) {
	rng := rand.New(rand.NewSource(seed))
	prev = benchModel(seed, n)
	if n > 2 {
		prev[1] = float32(math.Copysign(0, 1))
		prev[2] = math.Float32frombits(0x7fc00001)
	}
	next = slices.Clone(prev)
	for i := range next {
		if rng.Float64() >= share {
			continue
		}
		switch i {
		case 1:
			next[i] = float32(math.Copysign(0, -1))
		case 2:
			next[i] = math.Float32frombits(0x7fc00002)
		default:
			next[i] += float32(rng.NormFloat64()) * 1e-3
		}
	}
	return prev, next
}

func bitsEqual(a, b []float32) bool {
	return len(a) == len(b) && slices.EqualFunc(a, b, func(x, y float32) bool {
		return math.Float32bits(x) == math.Float32bits(y)
	})
}

// TestDeltaRoundTrip: a kept delta rebuilds the new model bit for bit in
// the old one, at every chunk boundary and on both sides of the two-core
// split, and EncodeDelta leaves its base equal to the new model.
func TestDeltaRoundTrip(t *testing.T) {
	for _, n := range []int{1, 7, 8, 63, 64, 65, 1000, 2*planeBlock + 100, 3*planeBlock + 64} {
		for _, share := range []float64{0, 0.01, 0.18, 0.5} {
			for _, model := range []Codec{FlateCodec{}, DenseCodec{}} {
				prev, next := deltaVectors(int64(n), n, share)
				base := slices.Clone(prev)
				p, ok, err := EncodeDelta(model, base, next, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bitsEqual(base, next) {
					t.Fatalf("n=%d share=%v %s: base is not the new model after encoding", n, share, model.Name())
				}
				if !ok {
					// Only a vector too short for the bitmap to pay may fall back here.
					if n >= 64 && share <= 0.18 {
						t.Fatalf("n=%d share=%v %s: delta not kept", n, share, model.Name())
					}
					continue
				}
				if p.CodecID != CodecDelta || p.Elems != n || p.WireBytes() >= deltaFloor*n {
					t.Fatalf("n=%d share=%v %s: payload id %d elems %d bytes %d", n, share, model.Name(), p.CodecID, p.Elems, p.WireBytes())
				}
				if err := ApplyDelta(prev, p); err != nil {
					t.Fatalf("n=%d share=%v %s: %v", n, share, model.Name(), err)
				}
				if !bitsEqual(prev, next) {
					t.Fatalf("n=%d share=%v %s: rebuilt model differs", n, share, model.Name())
				}
			}
		}
	}
}

// TestDeltaFallsBack: a delta that cannot beat deltaFloor bytes per element
// is not kept — dense values with every coordinate changed, or a lossy model
// codec — and the base still ends equal to the new model.
func TestDeltaFallsBack(t *testing.T) {
	prev, next := deltaVectors(3, 5000, 1)
	for _, model := range []Codec{DenseCodec{}, FlateCodec{}, &Q8Codec{}, &TopKCodec{}} {
		base := slices.Clone(prev)
		if _, ok, err := EncodeDelta(model, base, next, nil); err != nil || ok {
			t.Fatalf("%s: every coordinate changed, yet ok=%v err=%v", model.Name(), ok, err)
		}
		if !bitsEqual(base, next) {
			t.Fatalf("%s: base is not the new model after a fallback", model.Name())
		}
	}
	if _, _, err := EncodeDelta(FlateCodec{}, prev[:10], next, nil); err == nil {
		t.Fatal("a base of the wrong length was accepted")
	}
}

func TestDecodePayloadRefusesDelta(t *testing.T) {
	prev, next := deltaVectors(4, 1000, 0.1)
	p, ok, err := EncodeDelta(FlateCodec{}, slices.Clone(prev), next, nil)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	for _, session := range []Codec{nil, FlateCodec{}, &TopKCodec{}} {
		if _, err := DecodePayload(session, p); !errors.Is(err, ErrDeltaNeedsBase) {
			t.Fatalf("DecodePayload of a delta: %v, want ErrDeltaNeedsBase", err)
		}
	}
}

// TestChecksumIsCRC32COfBytes: the in-place sum is the CRC-32C of the
// little-endian bytes.
func TestChecksumIsCRC32COfBytes(t *testing.T) {
	v := benchModel(6, 3001)
	if got, want := Checksum(v), crc32.Checksum(payloadBytes(v), crc32.MakeTable(crc32.Castagnoli)); got != want {
		t.Fatalf("Checksum %08x, CRC-32C of the bytes %08x", got, want)
	}
}

// hostile is a payload a decoder must refuse, named for its defect; a delta
// is applied to a base of baseLen elements.
type hostile struct {
	name    string
	baseLen int
	p       EncodedPayload
}

// hostileSparse are sparse payloads every decoder of the layout must refuse,
// built from good, a valid one over 100 elements whose values are drawn
// from vals.
func hostileSparse(good EncodedPayload, vals []float32) []hostile {
	const bitmapLen = 8 * ((100 + 63) / 64)
	with := func(edit func(d []byte) []byte) EncodedPayload {
		return EncodedPayload{CodecID: good.CodecID, Elems: 100, Data: edit(slices.Clone(good.Data))}
	}
	inner := func(id uint8, data []byte) EncodedPayload {
		return with(func(d []byte) []byte { return append(append(d[:4+bitmapLen], id), data...) })
	}
	marked := 0
	for _, b := range good.Data[4 : 4+bitmapLen] {
		marked += bits.OnesCount8(b)
	}
	q8, _ := EncodeVector(&Q8Codec{}, vals[:marked])
	return []hostile{
		{"bit past elems", 100, with(func(d []byte) []byte { d[4+bitmapLen-1] |= 0x80; return d })},
		// The same bit with a value to match it, so that only the bitmap
		// check stands between it and a write past the vector.
		{"bit past elems, values to match", 100, with(func(d []byte) []byte {
			d[4+bitmapLen-1] |= 0x80
			return append(append(d[:4+bitmapLen], CodecDense), payloadBytes(vals[:marked+1])...)
		})},
		{"extra bit", 100, with(func(d []byte) []byte { i := firstByte(d, 0xff); d[i] |= d[i] + 1; return d })},
		{"cleared bit", 100, with(func(d []byte) []byte { i := firstByte(d, 0); d[i] &= d[i] - 1; return d })},
		{"inner q8", 100, inner(CodecQ8, q8.Data)},
		{"inner topk", 100, inner(CodecTopK, make([]byte, 8))},
		{"inner delta", 100, inner(CodecDelta, good.Data)},
		{"inner sparse", 100, inner(CodecSparse, good.Data)},
		{"inner unknown", 100, inner(0, nil)},
		{"truncated bitmap", 100, with(func(d []byte) []byte { return d[:4+bitmapLen/2] })},
		{"bitmap length", 100, with(func(d []byte) []byte { binary.LittleEndian.PutUint32(d, bitmapLen+1); return d })},
		{"huge bitmap length", 100, with(func(d []byte) []byte { binary.LittleEndian.PutUint32(d, math.MaxUint32); return d })},
		{"truncated values", 100, with(func(d []byte) []byte { return d[:len(d)-1] })},
	}
}

// hostileDeltas are delta payloads ApplyDelta must refuse, each against a
// base of baseLen elements, built from a valid one over 100 elements.
func hostileDeltas(t testing.TB) []hostile {
	prev, next := deltaVectors(8, 100, 0.2)
	good, ok, err := EncodeDelta(FlateCodec{}, slices.Clone(prev), next, nil)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	return append(hostileSparse(good, next),
		hostile{"short base", 99, good},
		hostile{"long base", 101, good},
		hostile{"not a delta", 100, EncodedPayload{CodecID: CodecFlate, Elems: 100, Data: good.Data}})
}

// sparseTopK is a top-k update over 100 elements in the sparse layout, and
// the vector it was encoded from.
func sparseTopK(t testing.TB) (EncodedPayload, []float32) {
	v := benchPayload(100)
	p, err := EncodeVector(&TopKCodec{Keep: 0.2}, v)
	if err != nil || p.CodecID != CodecSparse {
		t.Fatalf("codec %d, err %v", p.CodecID, err)
	}
	return p, v
}

// TestTopKSparseRefusesHostile: the top-k decoder refuses every sparse
// payload ApplyDelta does, and a topk session does too.
func TestTopKSparseRefusesHostile(t *testing.T) {
	good, v := sparseTopK(t)
	for _, h := range hostileSparse(good, v) {
		if out, err := (&TopKCodec{}).Decode(h.p); err == nil {
			t.Errorf("%s: decoded (%d elements)", h.name, len(out))
		}
		if _, err := DecodePayload(&TopKCodec{}, h.p); err == nil {
			t.Errorf("%s: decoded in a topk session", h.name)
		}
	}
	if _, err := (&TopKCodec{}).Decode(good); err != nil {
		t.Fatalf("control payload refused: %v", err)
	}
}

// TestDecodePayloadRoutesSparseToTopK: a sparse top-k update decodes in a
// topk session and is a codec mismatch in any other, or in none.
func TestDecodePayloadRoutesSparseToTopK(t *testing.T) {
	p, v := sparseTopK(t)
	got, err := DecodePayload(&TopKCodec{}, p)
	if err != nil || len(got) != len(v) {
		t.Fatalf("topk session: %d values, err %v", len(got), err)
	}
	for _, session := range []Codec{nil, DenseCodec{}, FlateCodec{}, &Q8Codec{}, negateCodec{}} {
		if _, err := DecodePayload(session, p); err == nil || !strings.Contains(err.Error(), "mismatch") {
			t.Errorf("session %v: %v, want a codec mismatch", session, err)
		}
	}
}

// firstByte is the index of the first bitmap byte of delta data d that is
// not skip.
func firstByte(d []byte, skip byte) int {
	i := 4
	for d[i] == skip {
		i++
	}
	return i
}

// TestApplyDeltaRefusesHostile: every hostile delta is refused, and the
// base it was applied to is left as it was.
func TestApplyDeltaRefusesHostile(t *testing.T) {
	for _, h := range hostileDeltas(t) {
		base := benchModel(9, h.baseLen)
		before := slices.Clone(base)
		if err := ApplyDelta(base, h.p); err == nil {
			t.Errorf("%s: accepted", h.name)
		} else if !bitsEqual(base, before) {
			t.Errorf("%s: refused, but the base was written", h.name)
		}
	}
}

// TestTopKSparseDecodeAllocs: a warm decode of a sparse top-k update at the
// broadcast shape allocates its output and the kept values, nothing else.
// The collector is off so that its own bookkeeping does not count.
func TestTopKSparseDecodeAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := broadcastElems
	p, err := EncodeVector(&TopKCodec{}, benchModel(1, n))
	if err != nil || p.CodecID != CodecSparse || p.Data[4+8*((n+63)/64)] != CodecFlate {
		t.Fatalf("setup: codec %d, err %v", p.CodecID, err)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := (&TopKCodec{}).Decode(p); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Fatalf("Decode made %v allocations, want 2 (its output and the kept values)", allocs)
	}
}

// FuzzDeltaApply feeds arbitrary (Elems, base length, bytes) to ApplyDelta.
// Whatever the bytes, it must not panic, must either fail — leaving the
// base as it was — or rebuild exactly Elems values in it, and must not
// allocate out of proportion to Elems. Seeds: valid deltas over each inner
// codec and the hostile ones.
func FuzzDeltaApply(f *testing.F) {
	for _, model := range []Codec{FlateCodec{}, DenseCodec{}} {
		for _, n := range []int{1, 64, 300} {
			prev, next := deltaVectors(int64(n), n, 0.2)
			p, ok, err := EncodeDelta(model, slices.Clone(prev), next, nil)
			if err != nil {
				f.Fatal(err)
			}
			if ok {
				f.Add(uint32(n), uint32(n), p.Data)
			}
		}
	}
	for _, h := range hostileDeltas(f) {
		f.Add(uint32(h.p.Elems), uint32(h.baseLen), h.p.Data)
	}
	f.Fuzz(func(t *testing.T, elems, baseLen uint32, data []byte) {
		const maxElems = 1 << 16
		p := EncodedPayload{CodecID: CodecDelta, Elems: int(elems % (maxElems + 1)), Data: data}
		base := make([]float32, baseLen%(maxElems+1))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := ApplyDelta(base, p)
		runtime.ReadMemStats(&after)

		if err == nil && len(base) != p.Elems {
			t.Fatalf("rebuilt %d values for %d elems", len(base), p.Elems)
		}
		if err != nil && slices.ContainsFunc(base, func(x float32) bool { return math.Float32bits(x) != 0 }) {
			t.Fatalf("refused (%v), but the base was written", err)
		}
		// The values, at most Elems of them, with room for an output and a
		// constant to spare.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*p.Elems+(1<<18)); grew > limit {
			t.Fatalf("applying %d bytes declared as %d elems allocated %d bytes (limit %d)", len(data), p.Elems, grew, limit)
		}
	})
}
