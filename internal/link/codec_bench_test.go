package link

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
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

// codecBenchPoint is one measurement of every built-in codec; BENCH_codec.json
// is a trajectory of them, oldest first.
type codecBenchPoint struct {
	Point   string            `json:"point"` // the PR or commit that measured it
	Elems   int               `json:"payload_elems"`
	Codecs  []codecBenchEntry `json:"codecs"`
	Comment string            `json:"comment"`
}

type codecBenchEntry struct {
	Codec        string  `json:"codec"`
	WireBytes    int     `json:"wire_bytes"`
	BytesPerElem float64 `json:"bytes_per_elem"`
	Ratio        float64 `json:"ratio_vs_dense"`
	EncodeMBps   float64 `json:"encode_mb_per_s"`
	DecodeMBps   float64 `json:"decode_mb_per_s"`
}

// TestWriteCodecBenchJSON appends a codec throughput/ratio point to the
// trajectory file BENCH_CODEC_JSON names (created when missing), labelled
// with BENCH_POINT — the CI hook behind BENCH_codec.json. It runs the same
// measurements as the Codec benchmarks through testing.Benchmark, so
// `go test -bench=Codec` and the JSON artifact can never drift apart.
func TestWriteCodecBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_CODEC_JSON")
	if path == "" {
		t.Skip("BENCH_CODEC_JSON not set")
	}
	var trajectory struct {
		Points []codecBenchPoint `json:"points"`
	}
	if prev, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(prev, &trajectory); err != nil {
			t.Fatalf("%s is not a codec trajectory: %v", path, err)
		}
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	const n = 100_000
	report := codecBenchPoint{
		Point:   os.Getenv("BENCH_POINT"),
		Elems:   n,
		Comment: "gaussian update payload; throughput in dense-equivalent MB/s",
	}
	for _, name := range benchCodecs {
		v := benchPayload(n)
		codec, err := NewCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := EncodeVector(codec, v)
		if err != nil {
			t.Fatal(err)
		}
		mbps := func(r testing.BenchmarkResult) float64 {
			nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
			return float64(4*n) / nsPerOp * 1e9 / 1e6
		}
		encRes := testing.Benchmark(func(b *testing.B) {
			c, _ := NewCodec(name)
			for i := 0; i < b.N; i++ {
				if _, err := EncodeVector(c, v); err != nil {
					b.Fatal(err)
				}
			}
		})
		decRes := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := DecodePayload(codec, enc); err != nil {
					b.Fatal(err)
				}
			}
		})
		report.Codecs = append(report.Codecs, codecBenchEntry{
			Codec:        name,
			WireBytes:    enc.WireBytes(),
			BytesPerElem: float64(enc.WireBytes()) / float64(n),
			Ratio:        float64(enc.WireBytes()) / float64(4*n),
			EncodeMBps:   mbps(encRes),
			DecodeMBps:   mbps(decRes),
		})
	}
	trajectory.Points = append(trajectory.Points, report)
	data, err := json.MarshalIndent(trajectory, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("appended point %q to %s (%d codecs, %d points)\n", report.Point, path, len(report.Codecs), len(trajectory.Points))
}
