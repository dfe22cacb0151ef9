package nn

import (
	"math"
	"math/rand"

	"photon/internal/tensor"
)

// SampleOpts selects the next-token decoding strategy. The zero value is
// greedy argmax decoding. The same options travel with serving requests
// (internal/serve) and local generation (Model.GenerateOpts), so a request
// replayed in-process reproduces the server's tokens bit for bit given the
// same random stream.
type SampleOpts struct {
	// Temperature flattens (>1) or sharpens (<1) the distribution before
	// sampling; <= 0 selects greedy decoding and ignores the random source.
	Temperature float64
	// TopK, when positive, restricts sampling to the K highest-probability
	// tokens.
	TopK int
	// TopP, when in (0, 1), restricts sampling to the smallest set of
	// highest-probability tokens whose cumulative probability reaches P
	// (nucleus sampling). Combined with TopK, both filters apply.
	TopP float64
}

// Greedy reports whether the options select deterministic argmax decoding.
func (o SampleOpts) Greedy() bool { return o.Temperature <= 0 }

// Sampler draws next tokens from logit rows under SampleOpts. It owns
// reusable scratch (cap-grow pattern), so one Sampler per decoding loop keeps
// long generations from allocating per token. Determinism contract: the same
// logits, options, and *rand.Rand state always yield the same token — ties in
// the probability ordering break toward the lower token id.
type Sampler struct {
	probs []float32
	idx   []int
}

// Sample draws one token from logits. It is the sanctioned amortized-
// allocation boundary of the decode loop: scratch follows the cap-grow
// pattern and the candidates are ordered in place, so a warm sampler
// allocates nothing per token (pinned by TestSamplerSelectMatchesSort and the
// serve steady-state allocation tests).
//
// Only the candidates are ordered: under top-k, the k first tokens are
// selected and sorted and the rest of the vocabulary is left as it lies; the
// whole vocabulary is sorted only for top-p without top-k. The order is
// strict (probability descending, lower id first), so the candidates and
// their order — and therefore the token — are those a full sort gives.
//
//photon:allocok
func (s *Sampler) Sample(rng *rand.Rand, logits []float32, o SampleOpts) int {
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
	topP := o.TopP > 0 && o.TopP < 1
	if o.TopK > 0 && o.TopK < n {
		m = o.TopK
	}
	if m < n || topP {
		s.sortFirst(0, n, m)
		if topP {
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

// sortFirst orders s.idx[lo:hi) so that its positions below k (absolute
// positions, lo < k) hold the range's first tokens under the candidate order,
// in that order — the whole range sorted when k ≥ hi — and leaves the rest in
// some order. It is a quicksort that never descends into a part lying wholly
// at or past k: O(n + k log k) comparisons expected.
//
//photon:hotpath
func (s *Sampler) sortFirst(lo, hi, k int) {
	p, idx := s.probs, s.idx
	for hi-lo > 12 {
		q := s.partition(lo, hi)
		if q+1 < k {
			s.sortFirst(q+1, hi, k)
		}
		hi = q
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && precedes(p, idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// partition splits s.idx[lo:hi) (at least three entries) around a
// median-of-three pivot and returns the pivot's final position: the tokens
// before it precede it, the tokens after it follow it.
//
//photon:hotpath
func (s *Sampler) partition(lo, hi int) int {
	p, idx := s.probs, s.idx
	mid, last := lo+(hi-lo)/2, hi-1
	if precedes(p, idx[mid], idx[lo]) {
		idx[lo], idx[mid] = idx[mid], idx[lo]
	}
	if precedes(p, idx[last], idx[mid]) {
		idx[mid], idx[last] = idx[last], idx[mid]
		if precedes(p, idx[mid], idx[lo]) {
			idx[lo], idx[mid] = idx[mid], idx[lo]
		}
	}
	idx[lo], idx[mid] = idx[mid], idx[lo]
	pivot, q := idx[lo], lo
	for i := lo + 1; i < hi; i++ {
		if precedes(p, idx[i], pivot) {
			q++
			idx[q], idx[i] = idx[i], idx[q]
		}
	}
	idx[lo], idx[q] = idx[q], idx[lo]
	return q
}

// precedes is the candidate order: higher probability first, lower token id
// on ties (the determinism contract).
//
//photon:hotpath
func precedes(p []float32, a, b int) bool {
	if p[a] != p[b] {
		return p[a] > p[b]
	}
	return a < b
}
