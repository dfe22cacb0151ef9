package nn

import (
	"math/rand"
	"testing"
)

func TestGenerateLengthAndRange(t *testing.T) {
	cfg := testConfig()
	m := NewModel(cfg, rand.New(rand.NewSource(1)))
	rng := rand.New(rand.NewSource(2))
	out := m.Generate(rng, []int{1, 2, 3}, 10, 0.8)
	if len(out) != 10 {
		t.Fatalf("generated %d tokens, want 10", len(out))
	}
	for _, tok := range out {
		if tok < 0 || tok >= cfg.VocabSize {
			t.Fatalf("token %d out of vocab", tok)
		}
	}
}

func TestGenerateGreedyDeterministic(t *testing.T) {
	cfg := testConfig()
	m := NewModel(cfg, rand.New(rand.NewSource(3)))
	a := m.Generate(rand.New(rand.NewSource(4)), []int{5}, 6, 0)
	b := m.Generate(rand.New(rand.NewSource(99)), []int{5}, 6, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy decoding must ignore the RNG")
		}
	}
}

func TestGenerateEmptyPrompt(t *testing.T) {
	cfg := testConfig()
	m := NewModel(cfg, rand.New(rand.NewSource(5)))
	out := m.Generate(rand.New(rand.NewSource(6)), nil, 3, 1)
	if len(out) != 3 {
		t.Fatalf("empty prompt: got %d tokens", len(out))
	}
}

func TestGenerateContextTruncation(t *testing.T) {
	cfg := testConfig() // SeqLen 6
	m := NewModel(cfg, rand.New(rand.NewSource(7)))
	long := make([]int, 20)
	out := m.Generate(rand.New(rand.NewSource(8)), long, 4, 0.5)
	if len(out) != 4 {
		t.Fatalf("long prompt: got %d tokens", len(out))
	}
}
