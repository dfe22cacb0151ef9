package link

import (
	"context"
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

func TestECDHSecAggCancellation(t *testing.T) {
	const n, dim = 4, 64
	parties, err := RunSecAggSession(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	plain := make([][]float32, n)
	masked := make([][]float32, n)
	for i := range plain {
		plain[i] = make([]float32, dim)
		masked[i] = make([]float32, dim)
		for k := range plain[i] {
			plain[i][k] = float32(rng.NormFloat64())
			masked[i][k] = plain[i][k]
		}
		if err := parties[i].Mask(masked[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Individual updates are hidden...
	hidden := false
	for k := range plain[0] {
		if plain[0][k] != masked[0][k] {
			hidden = true
			break
		}
	}
	if !hidden {
		t.Fatal("mask left update unchanged")
	}
	// ...but the sums agree.
	wantSum, err := SumMasked(plain)
	if err != nil {
		t.Fatal(err)
	}
	gotSum, err := SumMasked(masked)
	if err != nil {
		t.Fatal(err)
	}
	for k := range wantSum {
		if math.Abs(float64(wantSum[k]-gotSum[k])) > 1e-3 {
			t.Fatalf("masks did not cancel at %d: %v vs %v", k, wantSum[k], gotSum[k])
		}
	}
}

func TestECDHSecAggPairwiseSeedsMatch(t *testing.T) {
	a, err := NewSecAggParty(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSecAggParty(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AgreeWith(1, b.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := b.AgreeWith(0, a.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if a.seeds[1] != b.seeds[0] {
		t.Fatal("ECDH-derived pairwise seeds disagree")
	}
	if err := a.AgreeWith(0, a.PublicKey()); err == nil {
		t.Fatal("self-agreement accepted")
	}
	if err := a.AgreeWith(2, []byte{1, 2}); err == nil {
		t.Fatal("malformed peer key accepted")
	}
}

func TestRunSecAggSessionValidation(t *testing.T) {
	if _, err := RunSecAggSession(context.Background(), 1); err == nil {
		t.Fatal("single-party session accepted")
	}
	if p, err := NewSecAggParty(0); err != nil || p.Mask([]float32{1}) == nil {
		t.Fatal("masking without agreed peers should error")
	}
}
