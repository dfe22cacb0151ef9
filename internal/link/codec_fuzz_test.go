package link

import (
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
