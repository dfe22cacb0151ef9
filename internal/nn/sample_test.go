package nn

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"photon/internal/tensor"
)

// TestSamplerGreedy pins that the zero value of SampleOpts is argmax and
// ignores the random source entirely.
func TestSamplerGreedy(t *testing.T) {
	logits := []float32{0.1, 2.5, -1, 2.4}
	var s Sampler
	if got := s.Sample(nil, logits, SampleOpts{}); got != 1 {
		t.Fatalf("greedy picked %d, want 1", got)
	}
	if got := s.Sample(nil, logits, SampleOpts{Temperature: -1}); got != 1 {
		t.Fatalf("negative temperature picked %d, want 1", got)
	}
}

// TestSamplerTopK checks that sampling never escapes the top-K set, and that
// K=1 degenerates to greedy regardless of temperature.
func TestSamplerTopK(t *testing.T) {
	logits := []float32{3, 1, 2.5, -4, 2.8}
	topSet := map[int]bool{0: true, 4: true, 2: true} // three largest
	var s Sampler
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		got := s.Sample(rng, logits, SampleOpts{Temperature: 2, TopK: 3})
		if !topSet[got] {
			t.Fatalf("top-3 sampling escaped the set: token %d", got)
		}
	}
	for i := 0; i < 20; i++ {
		if got := s.Sample(rng, logits, SampleOpts{Temperature: 5, TopK: 1}); got != 0 {
			t.Fatalf("top-1 sampling picked %d, want 0", got)
		}
	}
}

// TestSamplerTopP checks nucleus sampling: with one dominant token holding
// more than P of the mass, the nucleus is exactly that token.
func TestSamplerTopP(t *testing.T) {
	// softmax(10, 0, 0, 0) puts ~0.99986 on token 0.
	logits := []float32{10, 0, 0, 0}
	var s Sampler
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		if got := s.Sample(rng, logits, SampleOpts{Temperature: 1, TopP: 0.9}); got != 0 {
			t.Fatalf("nucleus escaped the dominant token: %d", got)
		}
	}
	// With uniform logits, top-p=0.5 keeps exactly half the tokens: ids 0,1.
	uniform := []float32{1, 1, 1, 1}
	for i := 0; i < 200; i++ {
		got := s.Sample(rng, uniform, SampleOpts{Temperature: 1, TopP: 0.5})
		if got > 1 {
			t.Fatalf("uniform top-p=0.5 should keep tokens {0,1}, got %d", got)
		}
	}
}

// TestSamplerDeterministic pins the determinism contract: the same logits,
// options, and RNG state reproduce the same token stream.
func TestSamplerDeterministic(t *testing.T) {
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(7))
	logits := []float32{0.3, 1.2, -0.5, 0.9, 0.1}
	var sa, sb Sampler
	o := SampleOpts{Temperature: 1.3, TopK: 4, TopP: 0.95}
	for i := 0; i < 50; i++ {
		a := sa.Sample(rngA, logits, o)
		b := sb.Sample(rngB, logits, o)
		if a != b {
			t.Fatalf("step %d: samplers diverged (%d vs %d)", i, a, b)
		}
	}
}

// TestSamplerMatchesDistribution draws many samples at temperature 1 with no
// filters and checks the empirical frequencies against the softmax within a
// loose statistical tolerance.
func TestSamplerMatchesDistribution(t *testing.T) {
	logits := []float32{1, 0, -1}
	want := make([]float64, len(logits))
	var z float64
	for _, v := range logits {
		z += math.Exp(float64(v))
	}
	for i, v := range logits {
		want[i] = math.Exp(float64(v)) / z
	}
	var s Sampler
	rng := rand.New(rand.NewSource(3))
	const trials = 20000
	counts := make([]int, len(logits))
	for i := 0; i < trials; i++ {
		counts[s.Sample(rng, logits, SampleOpts{Temperature: 1})]++
	}
	for i := range counts {
		got := float64(counts[i]) / trials
		if math.Abs(got-want[i]) > 0.02 {
			t.Fatalf("token %d frequency %.3f, want %.3f", i, got, want[i])
		}
	}
}

// TestGenerateOptsMatchesRecompute is the satellite equivalence: greedy
// generation through the KV-cached path must pick the same tokens as a manual
// argmax loop that recomputes the full (growing) context each step.
func TestGenerateOptsMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	m := NewModel(decodeCfg(), rng)
	prompt := []int{4, 9, 2}
	const n = 8

	got := m.Generate(nil, prompt, n, 0)

	ctx := append([]int(nil), prompt...)
	for i := 0; i < n; i++ {
		logits := m.Logits([][]int{ctx})
		next := tensor.ArgMax(logits.Row(len(ctx) - 1))
		if got[i] != next {
			t.Fatalf("token %d: cached path picked %d, recompute picked %d", i, got[i], next)
		}
		ctx = append(ctx, next)
	}
}

// TestGenerateOptsSampledDeterministic checks that sampled generation with the
// same seed reproduces itself, and that top-k constrained generation emits
// valid vocabulary ids.
func TestGenerateOptsSampledDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m := NewModel(decodeCfg(), rng)
	o := SampleOpts{Temperature: 0.9, TopK: 10, TopP: 0.95}

	a := m.GenerateOpts(rand.New(rand.NewSource(5)), []int{1, 2}, 12, o)
	b := m.GenerateOpts(rand.New(rand.NewSource(5)), []int{1, 2}, 12, o)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at token %d: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= m.Cfg.VocabSize {
			t.Fatalf("token %d out of vocabulary: %d", i, a[i])
		}
	}
}

// refSample is Sample as it was before candidate selection: the whole
// vocabulary sorted through sort.Interface whenever a filter applies. Kept
// verbatim as the oracle for TestSamplerSelectMatchesSort.
func refSample(s *Sampler, rng *rand.Rand, logits []float32, o SampleOpts) int {
	if o.Greedy() {
		return tensor.ArgMax(logits)
	}
	n := len(logits)
	inv := 1 / o.Temperature

	// Unnormalized softmax with max subtraction; sum carries the normalizer.
	s.probs = growF32(s.probs, n)
	maxV := logits[0]
	for _, v := range logits[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for j, v := range logits {
		e := math.Exp(float64(v-maxV) * inv)
		s.probs[j] = float32(e)
		sum += e
	}

	// Candidate set: all tokens, optionally cut down by top-k then top-p.
	s.idx = growInt(s.idx, n)
	for j := range s.idx {
		s.idx[j] = j
	}
	m := n
	if (o.TopK > 0 && o.TopK < n) || (o.TopP > 0 && o.TopP < 1) {
		sort.Sort(&byProb{p: s.probs, idx: s.idx})
		if o.TopK > 0 && o.TopK < m {
			m = o.TopK
		}
		if o.TopP > 0 && o.TopP < 1 {
			target := o.TopP * sum
			var acc float64
			for j := 0; j < m; j++ {
				acc += float64(s.probs[s.idx[j]])
				if acc >= target {
					m = j + 1
					break
				}
			}
		}
	}

	// Renormalize over the candidates and invert the CDF.
	var csum float64
	for j := 0; j < m; j++ {
		csum += float64(s.probs[s.idx[j]])
	}
	r := rng.Float64() * csum
	var acc float64
	for j := 0; j < m-1; j++ {
		acc += float64(s.probs[s.idx[j]])
		if r <= acc {
			return s.idx[j]
		}
	}
	return s.idx[m-1]
}

// byProb orders token indices by descending probability, lower id first on
// ties (the determinism contract). A pointer receiver keeps sort.Sort from
// allocating.
type byProb struct {
	p   []float32
	idx []int
}

func (b *byProb) Len() int { return len(b.idx) }
func (b *byProb) Less(i, j int) bool {
	pi, pj := b.p[b.idx[i]], b.p[b.idx[j]]
	if pi != pj {
		return pi > pj
	}
	return b.idx[i] < b.idx[j]
}
func (b *byProb) Swap(i, j int) { b.idx[i], b.idx[j] = b.idx[j], b.idx[i] }

// TestSamplerSelectMatchesSort holds Sample to refSample over every filter
// shape the sampler has — vocabularies of 1 to 2048, top-k from off through
// 1, 2, 20, n−1 and n, top-p off and on, temperatures either side of 1 and
// greedy — on logits with planted probability ties (repeated values, so the
// lower-id rule decides). Each case draws from two generators with the same
// seed; the tokens must agree and so must the generators' next output, so
// Sample consumes exactly the random stream the full sort did. A warm Sample
// allocates nothing.
func TestSamplerSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var got, want Sampler
	draws := 0
	for _, n := range []int{1, 5, 256, 2048} {
		logits := make([]float32, n)
		for _, k := range []int{0, 1, 2, 20, n - 1, n} {
			for _, p := range []float64{0, 0.5, 0.95} {
				for _, temp := range []float64{0, 0.3, 0.7, 1, 1.8} {
					o := SampleOpts{Temperature: temp, TopK: k, TopP: p}
					seed := rng.Int63()
					ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					for trial := 0; trial < 8; trial++ {
						// A few distinct levels, so most tokens tie with
						// others; every second trial uses continuous values.
						levels := 1 + rng.Intn(6)
						for j := range logits {
							if trial%2 == 0 {
								logits[j] = float32(rng.Intn(levels)) / 2
							} else {
								logits[j] = float32(rng.NormFloat64() * 2)
							}
						}
						a, b := got.Sample(ra, logits, o), refSample(&want, rb, logits, o)
						if a != b {
							t.Fatalf("n=%d %+v trial %d: Sample picked %d, the full sort %d", n, o, trial, a, b)
						}
						if x, y := ra.Int63(), rb.Int63(); x != y {
							t.Fatalf("n=%d %+v trial %d: random streams diverged after the draw", n, o, trial)
						}
						draws++
					}
				}
			}
		}
	}
	t.Logf("%d draws identical to the full sort", draws)

	logits := make([]float32, 256)
	for j := range logits {
		logits[j] = float32(rng.NormFloat64())
	}
	for _, o := range []SampleOpts{{Temperature: 0.7, TopK: 20}, {Temperature: 1, TopP: 0.9}, {Temperature: 1, TopK: 40, TopP: 0.9}} {
		got.Sample(rng, logits, o)
		if allocs := testing.AllocsPerRun(50, func() { got.Sample(rng, logits, o) }); allocs != 0 {
			t.Fatalf("%+v: a warm Sample allocates %v times", o, allocs)
		}
	}
}
