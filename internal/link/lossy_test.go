package link

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantizeInt8RoundTripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := make([]float32, 1000)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	codes, scales, err := QuantizeInt8(v, 64)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DequantizeInt8(codes, scales, 64)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < len(scales); b++ {
		bound := float64(scales[b]) * 0.5001
		lo, hi := b*64, (b+1)*64
		if hi > len(v) {
			hi = len(v)
		}
		for i := lo; i < hi; i++ {
			if math.Abs(float64(back[i]-v[i])) > bound {
				t.Fatalf("elem %d: error %v exceeds half-step %v", i, back[i]-v[i], bound)
			}
		}
	}
}

func TestQuantizeInt8Degenerate(t *testing.T) {
	// All-zero block has scale 0 and reconstructs exactly.
	codes, scales, err := QuantizeInt8(make([]float32, 10), 4)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DequantizeInt8(codes, scales, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range back {
		if v != 0 {
			t.Fatal("zero vector not preserved")
		}
	}
	if _, _, err := QuantizeInt8([]float32{1}, 0); err == nil {
		t.Fatal("blockSize 0 accepted")
	}
	if _, err := DequantizeInt8(make([]int8, 10), []float32{1}, 4); err == nil {
		t.Fatal("mismatched scales accepted")
	}
}

// Property: quantization error is always within half a step for arbitrary
// inputs and block sizes.
func TestQuantizeErrorBoundProperty(t *testing.T) {
	f := func(seed int64, bsRaw uint8) bool {
		bs := 1 + int(bsRaw)%100
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2)))
		}
		codes, scales, err := QuantizeInt8(v, bs)
		if err != nil {
			return false
		}
		back, err := DequantizeInt8(codes, scales, bs)
		if err != nil {
			return false
		}
		for i := range v {
			if math.Abs(float64(back[i]-v[i])) > float64(scales[i/bs])*0.5001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
