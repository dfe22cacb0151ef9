package link

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// fuzzCodecs are the codecs whose Decode parses attacker-shaped bytes, each
// under the payload IDs it decodes; dense is a length check and rides along
// as flate's fallback. An entry's index is the fuzz input that selects it.
var fuzzCodecs = []struct {
	name string
	id   uint8
}{{"flate", CodecFlate}, {"q8", CodecQ8}, {"topk", CodecTopK}, {"topk", CodecSparse}}

// FuzzCodecDecode feeds arbitrary (codec, Elems, bytes) triples to the codec
// decoders. Whatever the bytes, Decode must not panic, must either fail or
// return exactly Elems values, and must not allocate out of proportion to
// Elems — the one number the fed layer validates before calling it. Seeds:
// valid encodings of each codec, filed under the entry of the ID they
// carry, plus the corpus under testdata/fuzz.
func FuzzCodecDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(21))
	for _, name := range []string{"flate", "q8", "topk", "topk:0.01"} {
		for _, n := range []int{1, 5, 300} {
			v := make([]float32, n)
			for i := range v {
				v[i] = float32(rng.NormFloat64()) * 0.02
			}
			c, err := NewCodec(name)
			if err != nil {
				f.Fatal(err)
			}
			enc, err := EncodeVector(c, v)
			if err != nil {
				f.Fatal(err)
			}
			which := 0 // flate's dense fallback
			for i, e := range fuzzCodecs {
				if e.id == enc.CodecID {
					which = i
				}
			}
			f.Add(uint8(which), uint32(enc.Elems), enc.Data)
			f.Add(uint8(which), uint32(enc.Elems+1), enc.Data)
			f.Add(uint8(which), uint32(enc.Elems), enc.Data[:len(enc.Data)/2])
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, elems uint32, data []byte) {
		const maxElems = 1 << 16
		e := fuzzCodecs[int(which)%len(fuzzCodecs)]
		c, err := NewCodec(e.name)
		if err != nil {
			t.Fatal(err)
		}
		p := EncodedPayload{CodecID: e.id, Elems: int(elems % (maxElems + 1)), Data: data}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := c.Decode(p)
		runtime.ReadMemStats(&after)

		if err == nil && !p.IsZero() && len(out) != p.Elems {
			t.Fatalf("%s/%d: decoded %d values for %d elems", e.name, e.id, len(out), p.Elems)
		}
		// Output plus one same-sized scratch is the most any decoder needs
		// (flate and pair-form topk allocate only their output, sparse topk
		// its output and at most Elems values), with a constant to spare.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*p.Elems+(1<<18)); grew > limit {
			t.Fatalf("%s/%d: decoding %d bytes declared as %d elems allocated %d bytes (limit %d)", e.name, e.id, len(data), p.Elems, grew, limit)
		}
	})
}

// FuzzTopKEncode holds the top-k encoder to refTopKEncode over three rounds
// of one session: each round's payload must carry the reference's (index,
// value) pairs, no larger than them, and leave its residual bit for bit.
// data's little-endian float32s are the first round's update; each later
// round reads them from one byte further on, so the rounds differ and
// error feedback carries. Non-finite inputs become zeros: the reference's
// float compares cannot order a NaN (the codec ranks it first).
func FuzzTopKEncode(f *testing.F) {
	rng := rand.New(rand.NewSource(52))
	for _, n := range []int{1, 7, 64, 300} {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rng.NormFloat64()) * 0.02
		}
		f.Add(uint16(100), payloadBytes(v))
		f.Add(uint16(999), payloadBytes(v))
	}
	f.Add(uint16(500), payloadBytes([]float32{1, 1, 1, 2, -1, 0, 1e-40, -3e38, 3e38}))
	f.Fuzz(func(t *testing.T, keepMille uint16, data []byte) {
		const maxElems = 1 << 12
		n := min(len(data)/4, maxElems)
		if n == 0 {
			return
		}
		keep := float64(keepMille%1000+1) / 1000
		codec := &TopKCodec{Keep: keep}
		residual := make([]float32, n)
		for round := 0; round < 3; round++ {
			v := make([]float32, n)
			for i := range v {
				off := (4*i + round) % len(data)
				var b [4]byte
				for j := range b {
					b[j] = data[(off+j)%len(data)]
				}
				if x := math.Float32frombits(binary.LittleEndian.Uint32(b[:])); !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0) {
					v[i] = x
				}
			}
			want := refTopKEncode(residual, v, keep)
			enc, err := codec.Encode(v)
			if err != nil {
				t.Fatal(err)
			}
			if got := carriedPairs(t, enc); !bytes.Equal(got, want) || len(enc.Data) > len(want) {
				t.Fatalf("n=%d keep=%g round %d: payload (codec %d, %d bytes) carries %d pair bytes, the reference %d",
					n, keep, round, enc.CodecID, len(enc.Data), len(got), len(want))
			}
			for i := range residual {
				if math.Float32bits(codec.residual[i]) != math.Float32bits(residual[i]) {
					t.Fatalf("n=%d keep=%g round %d: residual[%d] = %#x, reference %#x",
						n, keep, round, i, math.Float32bits(codec.residual[i]), math.Float32bits(residual[i]))
				}
			}
		}
	})
}
