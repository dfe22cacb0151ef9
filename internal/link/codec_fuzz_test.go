package link

import (
	"math/rand"
	"runtime"
	"testing"
)

// fuzzCodecs are the codecs whose Decode parses attacker-shaped bytes; dense
// is a length check and rides along as flate's fallback.
var fuzzCodecs = []string{"flate", "q8", "topk"}

// FuzzCodecDecode feeds arbitrary (codec, Elems, bytes) triples to the codec
// decoders. Whatever the bytes, Decode must not panic, must either fail or
// return exactly Elems values, and must not allocate out of proportion to
// Elems — the one number the fed layer validates before calling it. Seeds:
// valid encodings of each codec plus the corpus under testdata/fuzz.
func FuzzCodecDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(21))
	for which, name := range fuzzCodecs {
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
			f.Add(uint8(which), uint32(enc.Elems), enc.Data)
			f.Add(uint8(which), uint32(enc.Elems+1), enc.Data)
			f.Add(uint8(which), uint32(enc.Elems), enc.Data[:len(enc.Data)/2])
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, elems uint32, data []byte) {
		const maxElems = 1 << 16
		name := fuzzCodecs[int(which)%len(fuzzCodecs)]
		c, err := NewCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		p := EncodedPayload{CodecID: CodecWireID(name), Elems: int(elems % (maxElems + 1)), Data: data}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := c.Decode(p)
		runtime.ReadMemStats(&after)

		if err == nil && !p.IsZero() && len(out) != p.Elems {
			t.Fatalf("%s: decoded %d values for %d elems", name, len(out), p.Elems)
		}
		// Output plus one same-sized scratch is the most any decoder needs
		// (flate and topk allocate only their output), with a constant to
		// spare.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*p.Elems+(1<<18)); grew > limit {
			t.Fatalf("%s: decoding %d bytes declared as %d elems allocated %d bytes (limit %d)", name, len(data), p.Elems, grew, limit)
		}
	})
}
