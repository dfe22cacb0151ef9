package link

import (
	"math/rand"
	"testing"
)

// benchPayload is a realistic update vector: zero-mean gaussian, the shape
// flate barely compresses and the lossy codecs are designed for.
func benchPayload(n int) []float32 {
	rng := rand.New(rand.NewSource(17))
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64()) * 0.01
	}
	return v
}

var benchCodecs = []string{"dense", "flate", "q8", "topk:0.1"}

// BenchmarkCodecEncode measures per-codec encode throughput and reports the
// achieved wire cost (bytes/elem, ratio vs dense) as benchmark metrics.
func BenchmarkCodecEncode(b *testing.B) {
	const n = 100_000
	for _, name := range benchCodecs {
		b.Run(name, func(b *testing.B) {
			v := benchPayload(n)
			codec, err := NewCodec(name)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n) * 4)
			b.ResetTimer()
			var wireBytes int
			for i := 0; i < b.N; i++ {
				enc, err := EncodeVector(codec, v)
				if err != nil {
					b.Fatal(err)
				}
				wireBytes = enc.WireBytes()
			}
			b.ReportMetric(float64(wireBytes)/float64(n), "wireB/elem")
			b.ReportMetric(float64(wireBytes)/float64(4*n), "ratio")
		})
	}
}

// BenchmarkCodecDecode measures per-codec decode throughput.
func BenchmarkCodecDecode(b *testing.B) {
	const n = 100_000
	for _, name := range benchCodecs {
		b.Run(name, func(b *testing.B) {
			v := benchPayload(n)
			codec, err := NewCodec(name)
			if err != nil {
				b.Fatal(err)
			}
			enc, err := EncodeVector(codec, v)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodePayload(codec, enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
