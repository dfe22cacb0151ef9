// Package data implements Photon's Data Source (DS) substrate with synthetic
// corpora that stand in for C4 and The Pile.
//
// Real pre-training text is unavailable offline, so each source is an
// order-2 Markov process over the model vocabulary whose transition table is
// derived deterministically from a seed via hashing (no large tables are
// materialized). A language model trained on such a stream has a meaningful
// perplexity floor and a real learning curve, which is what the federated
// optimization experiments need. Distinct sources (different seeds, branch
// factors, and skews) produce statistically different streams, reproducing
// the between-client heterogeneity of The Pile's ArXiv / C4 / Wikipedia /
// Gutenberg split.
//
// The package also implements the DS mechanics from the paper: uniform
// sharding of a corpus into 64 shards, IID and by-source partitioning across
// clients, stream mixing with explicit sampling weights, and a caching,
// pre-tokenizing stream wrapper.
package data

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
)

// Source produces an endless token stream with a characteristic
// distribution.
type Source interface {
	// Name identifies the source ("arxiv", "c4", ...).
	Name() string
	// Vocab returns the vocabulary size tokens are drawn from.
	Vocab() int
	// Sample writes a sequence of tokens drawn from the source into out,
	// using rng for all randomness.
	Sample(rng *rand.Rand, out []int)
}

// MarkovSource is a first-order Markov chain over [0, Vocab) with an
// additional skewed "function word" component, mimicking natural-language
// statistics: with probability commonProb the next token is drawn from a
// small Zipf-distributed set of common tokens shared across all contexts;
// otherwise it is one of Branch context-specific candidates (derived from
// Seed by hashing) with probabilities proportional to (rank+1)^-Skew.
// Larger Skew means a more predictable (lower-entropy) source, and distinct
// Seeds give statistically distinct transition structure. The result is
// learnable by a small LM in two phases — unigram statistics first, then
// context-conditional structure — the same shape real LM loss curves have.
type MarkovSource struct {
	SourceName string
	VocabSize  int
	Branch     int     // candidate continuations per context (≥1)
	Skew       float64 // Zipf exponent over candidates (>0)
	Seed       uint64

	cdf       []float64 // cumulative distribution over candidate ranks
	commonCDF []float64 // cumulative distribution over common tokens
}

// commonProb is the probability mass given to the shared common-token
// component, and numCommon the size of that set.
const (
	commonProb = 0.35
	numCommon  = 8
)

// NewMarkovSource constructs a source; it panics on degenerate parameters
// (construction happens at experiment-definition time, not at runtime).
func NewMarkovSource(name string, vocab, branch int, skew float64, seed uint64) *MarkovSource {
	if vocab < 2 || branch < 1 || skew <= 0 {
		panic("data: degenerate MarkovSource parameters")
	}
	if branch > vocab {
		branch = vocab
	}
	s := &MarkovSource{SourceName: name, VocabSize: vocab, Branch: branch, Skew: skew, Seed: seed}
	s.cdf = zipfCDF(branch, skew)
	nc := numCommon
	if nc > vocab {
		nc = vocab
	}
	s.commonCDF = zipfCDF(nc, 1.2)
	return s
}

func zipfCDF(n int, skew float64) []float64 {
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -skew)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

func sampleCDF(rng *rand.Rand, cdf []float64) int {
	r := rng.Float64()
	for i, c := range cdf {
		if r <= c {
			return i
		}
	}
	return len(cdf) - 1
}

// Name implements Source.
func (s *MarkovSource) Name() string { return s.SourceName }

// Vocab implements Source.
func (s *MarkovSource) Vocab() int { return s.VocabSize }

// candidate returns the rank-th context-specific candidate next-token for
// the single-token context a.
func (s *MarkovSource) candidate(a, rank int) int {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], s.Seed)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(a)*1_000_003)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(rank))
	h.Write(buf[:])
	return int(h.Sum64() % uint64(s.VocabSize))
}

// Sample implements Source.
func (s *MarkovSource) Sample(rng *rand.Rand, out []int) {
	if len(out) == 0 {
		return
	}
	a := rng.Intn(s.VocabSize)
	for i := range out {
		var next int
		if rng.Float64() < commonProb {
			next = sampleCDF(rng, s.commonCDF)
		} else {
			next = s.candidate(a, sampleCDF(rng, s.cdf))
		}
		out[i] = next
		a = next
	}
}

// MixtureSource samples each sequence from one of several sources chosen
// uniformly, modeling a blended corpus such as C4's web crawl mix.
type MixtureSource struct {
	MixName string
	Parts   []Source

	cdf []float64
}

// NewMixtureSource builds a uniform mixture of parts.
func NewMixtureSource(name string, parts []Source) *MixtureSource {
	if len(parts) == 0 {
		panic("data: empty mixture")
	}
	// Every data stream is pinned to this CDF's bits: 1/n summed in index
	// order, not i/n.
	total := float64(len(parts))
	m := &MixtureSource{MixName: name, Parts: parts, cdf: make([]float64, len(parts))}
	acc := 0.0
	for i := range m.cdf {
		acc += 1 / total
		m.cdf[i] = acc
	}
	return m
}

// Name implements Source.
func (m *MixtureSource) Name() string { return m.MixName }

// Vocab implements Source.
func (m *MixtureSource) Vocab() int { return m.Parts[0].Vocab() }

// Sample implements Source.
func (m *MixtureSource) Sample(rng *rand.Rand, out []int) {
	r := rng.Float64()
	for i, c := range m.cdf {
		if r <= c || i == len(m.cdf)-1 {
			m.Parts[i].Sample(rng, out)
			return
		}
	}
}

// C4Like builds the single blended corpus standing in for C4: a uniform mix
// of four web-style sub-distributions under one seed family.
func C4Like(vocab int) *MixtureSource {
	parts := []Source{
		NewMarkovSource("c4.news", vocab, 6, 1.3, 0xC401),
		NewMarkovSource("c4.blogs", vocab, 8, 1.1, 0xC402),
		NewMarkovSource("c4.forums", vocab, 10, 1.0, 0xC403),
		NewMarkovSource("c4.docs", vocab, 5, 1.5, 0xC404),
	}
	return NewMixtureSource("c4", parts)
}

// PileLike builds the four statistically distinct sources standing in for
// the paper's Pile subset: ArXiv (academic), C4 (internet), Wikipedia
// (internet), and Gutenberg (prose). They differ in branch factor and skew,
// so clients holding different sources see genuinely different distributions.
func PileLike(vocab int) []Source {
	return []Source{
		NewMarkovSource("arxiv", vocab, 4, 1.8, 0x9117E1),
		NewMarkovSource("c4", vocab, 10, 1.0, 0x9117E2),
		NewMarkovSource("wikipedia", vocab, 7, 1.2, 0x9117E3),
		NewMarkovSource("gutenberg", vocab, 5, 1.5, 0x9117E4),
	}
}
