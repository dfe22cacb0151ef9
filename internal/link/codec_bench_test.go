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

// broadcastElems is the model broadcast of the comm-bound benchmark
// workload: a 1M-parameter model.
const broadcastElems = 1_050_880

// benchModel is a model-shaped vector: gaussian weight matrices at two
// scales, LayerNorm gains at exactly 1 and zero biases, in 4096-element
// tensors.
func benchModel(seed int64, n int) []float32 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, n)
	for i := range v {
		switch seg := (i / 4096) % 8; seg {
		case 6:
			v[i] = 1
		case 7:
		default:
			v[i] = float32(rng.NormFloat64()) * 0.02 * float32(1+seg%2)
		}
	}
	return v
}

var benchCodecs = []string{"dense", "flate", "q8", "topk:0.1"}

// benchShapes are the two payloads a round moves: an update vector and the
// model broadcast.
var benchShapes = []struct {
	name string
	vec  func() []float32
}{
	{"update-100k", func() []float32 { return benchPayload(100_000) }},
	{"model-1M", func() []float32 { return benchModel(1, broadcastElems) }},
}

// BenchmarkCodecEncode measures per-codec encode throughput and reports the
// achieved wire cost (bytes/elem, ratio vs dense) as benchmark metrics.
func BenchmarkCodecEncode(b *testing.B) {
	for _, name := range benchCodecs {
		for _, shape := range benchShapes {
			b.Run(name+"/"+shape.name, func(b *testing.B) {
				v := shape.vec()
				codec, err := NewCodec(name)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(v)) * 4)
				b.ResetTimer()
				var wireBytes int
				for i := 0; i < b.N; i++ {
					enc, err := EncodeVector(codec, v)
					if err != nil {
						b.Fatal(err)
					}
					wireBytes = enc.WireBytes()
				}
				b.ReportMetric(float64(wireBytes)/float64(len(v)), "wireB/elem")
				b.ReportMetric(float64(wireBytes)/float64(4*len(v)), "ratio")
			})
		}
	}
}

// BenchmarkCodecDecode measures per-codec decode throughput.
func BenchmarkCodecDecode(b *testing.B) {
	for _, name := range benchCodecs {
		for _, shape := range benchShapes {
			b.Run(name+"/"+shape.name, func(b *testing.B) {
				v := shape.vec()
				codec, err := NewCodec(name)
				if err != nil {
					b.Fatal(err)
				}
				enc, err := EncodeVector(codec, v)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(v)) * 4)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := DecodePayload(codec, enc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
