package link

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"runtime"
	"unsafe"
)

// deltaFloor is the most bytes per element a kept delta may cost: the floor
// of a full flate frame, whose sign+mantissa remainder travels raw.
const deltaFloor = 3

// ErrDeltaNeedsBase is DecodePayload's refusal of a delta payload: only
// ApplyDelta, given the model it was encoded against, decodes one.
var ErrDeltaNeedsBase = errors.New("link: a delta payload decodes only against its base model (ApplyDelta)")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CanDelta reports whether broadcasts under the model codec c may travel as
// deltas: only a lossless codec leaves the receiver holding the sender's bits.
func CanDelta(c Codec) bool {
	_, dense := c.(DenseCodec)
	_, flate := c.(FlateCodec)
	return dense || flate
}

// EncodeDelta encodes cur as a delta against base, the model its receiver
// holds: a sparse payload (see sparsePayload) marking the elements whose
// bits changed, their values encoded by model. ok is false, and the caller
// sends the full frame, when model is lossy or the delta would cost
// deltaFloor bytes per element or more. Comparing, gathering and copying cur
// into base are one pass: on return base equals cur whatever ok says. vals
// is the gather's scratch, at least as long as cur (nil: EncodeDelta makes
// one); the payload does not keep it.
//
//photon:allocok
func EncodeDelta(model Codec, base, cur, vals []float32) (p EncodedPayload, ok bool, err error) {
	n := len(cur)
	if len(base) != n {
		return p, false, fmt.Errorf("link: delta base has %d elements, model %d", len(base), n)
	}
	if !CanDelta(model) {
		copy(base, cur)
		return p, false, nil
	}
	if len(vals) < n {
		vals = make([]float32, n)
	}
	bitmap := make([]byte, 8*((n+63)/64))
	var k int
	if h := n / 2 &^ 63; h >= planeBlock && runtime.GOMAXPROCS(0) > 1 {
		// Two halves on two cores, as deflatePlane splits its blocks; the
		// second half's values then move up behind the first's.
		var k2 int
		done := make(chan struct{})
		go func() { k2 = diffGather(bitmap[h/8:], vals[h:], base[h:], cur[h:]); close(done) }()
		k = diffGather(bitmap[:h/8], vals[:h], base[:h], cur[:h])
		<-done
		k += copy(vals[k:], vals[h:h+k2])
	} else {
		k = diffGather(bitmap, vals, base, cur)
	}
	return sparsePayload(CodecDelta, model, n, bitmap, vals[:k], deltaFloor*n)
}

// sparsePayload lays out the sparse payload over n elements that deltas and
// top-k updates share: u32 bitmapLen | bitmap (little-endian 64-bit words,
// bit i%64 of word i/64 set when element i is carried) | u8 inner codec ID |
// vals, the marked values in index order, encoded by model. ok is false when
// it would cost limit bytes or more, judged from the value count before they
// are encoded (either lossless codec spends 3 bytes or more on one) and from
// the total after.
//
//photon:allocok
func sparsePayload(id uint8, model Codec, n int, bitmap []byte, vals []float32, limit int) (p EncodedPayload, ok bool, err error) {
	if len(bitmap)+3*len(vals) >= limit {
		return p, false, nil
	}
	inner, err := EncodeVector(model, vals)
	if err != nil || 5+len(bitmap)+len(inner.Data) >= limit {
		return p, false, err
	}
	data := make([]byte, 5+len(bitmap), 5+len(bitmap)+len(inner.Data))
	binary.LittleEndian.PutUint32(data, uint32(len(bitmap)))
	copy(data[4:], bitmap)
	data[4+len(bitmap)] = max(inner.CodecID, CodecDense) // no values: the empty payload, ID 0
	return EncodedPayload{CodecID: id, Elems: n, Data: append(data, inner.Data...)}, true, nil
}

// diffGather marks in bitmap the elements whose bits differ between base and
// cur, gathers cur's values there into vals, copies cur into base, and
// returns how many it marked. Per 64 elements diffWord builds the bitmap
// word while it copies; the marked values are then gathered from cache.
//
//photon:hotpath
func diffGather(bitmap []byte, vals, base, cur []float32) int {
	k := 0
	for lo := 0; lo < len(cur); lo += 64 {
		c := cur[lo:min(lo+64, len(cur))]
		word := diffWord(base[lo:lo+len(c)], c)
		binary.LittleEndian.PutUint64(bitmap[lo/8:], word)
		for ; word != 0; word &= word - 1 {
			vals[k] = c[bits.TrailingZeros64(word)]
			k++
		}
	}
	return k
}

// diffWord returns the bitmap word of up to 64 elements (bit j set when b[j]
// and c[j] differ in any bit) and copies c into b. It is branch-free, and a
// function of its own so that the word stays in a register.
//
//go:noinline
//photon:hotpath
func diffWord(b, c []float32) uint64 {
	b = b[:len(c)]
	var word uint64
	for j, x := range c {
		// Adding 2³²−1 to the XOR carries into bit 32 exactly when the bits
		// differ; that bit enters the word from the top.
		word = word>>1 | (uint64(math.Float32bits(x)^math.Float32bits(b[j]))+math.MaxUint32)>>32<<63
		b[j] = x
	}
	return word >> (64 - len(c))
}

// ApplyDelta rebuilds, in base, the model a delta payload encodes from base,
// the model it was encoded against. Everything is checked and the values
// decoded before the first write, so a refused delta leaves base as it was.
//
//photon:allocok
func ApplyDelta(base []float32, p EncodedPayload) error {
	switch {
	case p.CodecID != CodecDelta:
		return fmt.Errorf("link: payload codec id %d is not a delta", p.CodecID)
	case len(base) != p.Elems:
		return fmt.Errorf("link: delta of %d elems against a %d-element base", p.Elems, len(base))
	}
	_, err := applySparse(base, p)
	return err
}

// applySparse rebuilds the vector a sparse payload (see sparsePayload)
// encodes over base, in place, or over zeros, into a new vector, when base
// is nil; it returns the vector. Every length is checked before anything is
// allocated or written for it: the bitmap must cover exactly Elems elements
// and mark none past them, and the values must be a dense or flate payload
// of exactly as many elements as it marks.
//
//photon:allocok
func applySparse(base []float32, p EncodedPayload) ([]float32, error) {
	n, bitmapLen := p.Elems, 8*((p.Elems+63)/64)
	switch {
	case n < 0 || len(p.Data) < 5+bitmapLen || binary.LittleEndian.Uint32(p.Data) != uint32(bitmapLen):
		return nil, fmt.Errorf("link: sparse payload of %d bytes lacks the %d-byte bitmap of %d elems", len(p.Data), bitmapLen, n)
	case n%64 != 0 && binary.LittleEndian.Uint64(p.Data[4+bitmapLen-8:])>>(n%64) != 0:
		return nil, fmt.Errorf("link: sparse bitmap marks elements past %d", n)
	}
	bitmap := p.Data[4 : 4+bitmapLen]
	inner := EncodedPayload{CodecID: p.Data[4+bitmapLen], Data: p.Data[5+bitmapLen:]}
	for i := 0; i < bitmapLen; i += 8 {
		inner.Elems += bits.OnesCount64(binary.LittleEndian.Uint64(bitmap[i:]))
	}
	// Dense or flate, nothing else; either decodes exactly Elems values.
	vals, err := DecodePayload(nil, inner)
	if err != nil {
		return nil, fmt.Errorf("link: sparse values: %w", err)
	}
	if base == nil {
		base = make([]float32, n)
	}
	scatter(base, bitmap, vals)
	return base, nil
}

// SparseMarks returns the bitmap of the elements a sparse top-k update
// carries — bit i%64 of little-endian word i/64 set when element i is — or
// nil when p is another codec's or has no bitmap.
func SparseMarks(p EncodedPayload) []byte {
	bitmapLen := 8 * ((p.Elems + 63) / 64)
	if p.CodecID != CodecSparse || p.Elems < 0 || len(p.Data) < 4+bitmapLen ||
		binary.LittleEndian.Uint32(p.Data) != uint32(bitmapLen) {
		return nil
	}
	return p.Data[4 : 4+bitmapLen]
}

// scatter writes vals, in order, to the elements of out that bitmap marks.
//
//photon:hotpath
func scatter(out []float32, bitmap []byte, vals []float32) {
	k := 0
	for i := 0; i < len(bitmap); i += 8 {
		for word := binary.LittleEndian.Uint64(bitmap[i:]); word != 0; word &= word - 1 {
			out[8*i+bits.TrailingZeros64(word)] = vals[k]
			k++
		}
	}
}

// Checksum is the CRC-32C of v's little-endian bytes, which a delta frame
// carries so its receiver can verify the model it rebuilt. On a
// little-endian host those bytes are v's own memory, summed in place.
func Checksum(v []float32) uint32 {
	if len(v) > 0 && binary.NativeEndian.Uint16([]byte{1, 0}) == 1 {
		return crc32.Checksum(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v)), castagnoli)
	}
	return crc32.Checksum(payloadBytes(v), castagnoli)
}
