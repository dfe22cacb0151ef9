package link

import (
	"math"
	"math/rand"
	"slices"
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

// adamwUpdate is a member's update after one AdamW step from fresh state
// on the model benchModel(1, n), θ − θ′ in float32 as the member computes
// it: a coordinate with gradient g moves by lr·g/(|g|+ε) + lr·wd·θ, so
// almost every magnitude sits within a fraction of a percent of lr. One in
// eight coordinates has no gradient (an unused embedding row) and moves by
// weight decay alone.
func adamwUpdate(seed int64, n int) []float32 {
	const lr, wd = 3e-3, 0.1
	rng := rand.New(rand.NewSource(seed))
	theta := benchModel(1, n)
	v := make([]float32, n)
	for i, th := range theta {
		var step float32
		if g := float32(rng.NormFloat64()); i%8 != 0 {
			step = float32(lr*g)/(float32(math.Abs(float64(g)))+1e-8) + float32(lr*wd*th)
		} else {
			step = float32(lr * wd * th)
		}
		v[i] = th - (th - step)
	}
	return v
}

var benchCodecs = []string{"dense", "flate", "q8", "topk:0.1"}

// benchShapes are the payloads a round moves: update vectors — a gaussian
// one, and the comm-bound workload's AdamW update, which top-k encodes
// with its error feedback growing round on round — and the model broadcast.
var benchShapes = []struct {
	name string
	vec  func() []float32
}{
	{"update-100k", func() []float32 { return benchPayload(100_000) }},
	{"adamw-1M", func() []float32 { return adamwUpdate(3, broadcastElems) }},
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

// deltaPair is the broadcast shape a delta round sees: a model and the next
// one, with deltaChanged of the coordinates moved.
const deltaChanged = 0.18

func deltaPair() (prev, next []float32) {
	prev = benchModel(1, broadcastElems)
	next = slices.Clone(prev)
	rng := rand.New(rand.NewSource(5))
	for i := range next {
		if rng.Float64() < deltaChanged {
			next[i] += float32(rng.NormFloat64()) * 1e-3
		}
	}
	return prev, next
}

// BenchmarkDeltaEncode measures the server's delta encode at the broadcast
// shape under flate: compare, gather into reused scratch and copy into the
// held model, then the values' flate encode. Iterations alternate direction
// so every one sees the same number of changed coordinates.
func BenchmarkDeltaEncode(b *testing.B) {
	prev, next := deltaPair()
	held, vals := slices.Clone(prev), make([]float32, len(next))
	b.SetBytes(int64(len(next)) * 4)
	b.ResetTimer()
	var wireBytes int
	for i := 0; i < b.N; i++ {
		cur := next
		if i%2 == 1 {
			cur = prev
		}
		p, ok, err := EncodeDelta(FlateCodec{}, held, cur, vals)
		if err != nil || !ok {
			b.Fatalf("delta not kept: ok=%v err=%v", ok, err)
		}
		wireBytes = p.WireBytes()
	}
	b.ReportMetric(float64(wireBytes)/float64(len(next)), "wireB/elem")
	b.ReportMetric(float64(wireBytes)/float64(4*len(next)), "ratio")
}

// BenchmarkDeltaApply measures the member's side: rebuild the model in the
// one it holds (after the first iteration, rewriting the same values).
func BenchmarkDeltaApply(b *testing.B) {
	prev, next := deltaPair()
	p, ok, err := EncodeDelta(FlateCodec{}, slices.Clone(prev), next, nil)
	if err != nil || !ok {
		b.Fatalf("delta not kept: ok=%v err=%v", ok, err)
	}
	b.SetBytes(int64(len(next)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ApplyDelta(prev, p); err != nil {
			b.Fatal(err)
		}
	}
}
