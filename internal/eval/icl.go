package eval

// This file implements zero-shot ICL via pseudo-demonstrations (Z-ICL
// style): instead of labeled demonstrations, retrieve corpus windows that
// resemble the test prompt and prepend them as in-context examples. The
// retrieved text is real training distribution — each window is a naturally
// occurring "prompt plus its true continuation" — so the model conditions on
// distribution-matched context without any task supervision.

import (
	"math/rand"
	"slices"

	"photon/internal/data"
)

// Retriever indexes a token corpus for nearest-window lookup. Similarity is
// unigram multiset overlap with a bigram bonus: cheap, deterministic, and
// strongly favors windows from the same local distribution as the query.
// Tokens outside [0, vocab) match nothing. A Retriever reuses its scratch
// across calls, so it is not safe for concurrent use.
type Retriever struct {
	corpus []int
	vocab  int

	// Scratch reused across Retrieve calls. A query's distinct in-vocabulary
	// tokens are numbered 1, 2, …: slotOf maps a token to its number (0 for
	// every other token, and for all tokens between calls), need counts each
	// number's occurrences in the query, and used counts them in the current
	// window.
	slotOf         []int32
	need, used     []int32
	biKey          []int   // the query's distinct bigrams as slot pairs, sorted
	biNeed, biUsed []int32 // per bigram, from index 1, like need and used
	slots, bigrams []int32 // per corpus position: its token's slot, its bigram's index
	scores, order  []int32 // per candidate window; order is best first
	hist           []int32 // windows per score
	taken          []int   // offsets of the windows chosen so far
}

// NewRetriever samples a corpusLen-token corpus from src (the training
// distribution) and indexes it. The corpus is drawn in source-native chunks
// so local structure — what retrieval keys on — is preserved.
func NewRetriever(src data.Source, corpusLen int, seed int64) *Retriever {
	rng := rand.New(rand.NewSource(seed))
	corpus := make([]int, corpusLen)
	const chunk = 256
	for off := 0; off < corpusLen; off += chunk {
		end := off + chunk
		if end > corpusLen {
			end = corpusLen
		}
		src.Sample(rng, corpus[off:end])
	}
	return NewRetrieverFromCorpus(corpus, src.Vocab())
}

// NewRetrieverFromCorpus indexes an existing token stream (e.g. actual
// training shards) instead of sampling a fresh one. The corpus must not be
// modified afterwards.
func NewRetrieverFromCorpus(corpus []int, vocab int) *Retriever {
	vocab = max(vocab, 0)
	return &Retriever{
		corpus:  corpus,
		vocab:   vocab,
		slotOf:  make([]int32, vocab),
		slots:   make([]int32, len(corpus)),
		bigrams: make([]int32, len(corpus)),
	}
}

// Retrieve returns up to k non-overlapping wlen-token windows of the corpus
// ranked by similarity to query, best first. Ties break toward earlier
// corpus positions, so retrieval is deterministic. Candidate windows start
// every wlen/2 tokens. The returned slices alias the corpus; the outer slice
// is the only allocation once the scratch has grown to the call's shape.
func (r *Retriever) Retrieve(query []int, k, wlen int) [][]int {
	if k <= 0 || wlen <= 0 || wlen > len(r.corpus) {
		return nil
	}
	r.setQuery(query)
	r.mark()
	for _, t := range query {
		if uint(t) < uint(r.vocab) {
			r.slotOf[t] = 0
		}
	}
	stride := max(wlen/2, 1)
	n := (len(r.corpus)-wlen)/stride + 1
	r.scores = grow(r.scores, n)
	r.order = grow(r.order, n)
	r.hist = grow(r.hist, 3*wlen-1) // scores run from 0 to wlen + 2(wlen-1)
	r.scoreWindows(wlen, stride)
	r.rank()

	// Greedily take the best windows that don't overlap already-taken ones,
	// so k demonstrations are k distinct corpus regions.
	r.taken = r.taken[:0]
	for _, c := range r.order {
		if len(r.taken) == k {
			break
		}
		off := int(c) * stride
		overlaps := false
		for _, t := range r.taken {
			if off < t+wlen && t < off+wlen {
				overlaps = true
				break
			}
		}
		if !overlaps {
			r.taken = append(r.taken, off)
		}
	}
	out := make([][]int, len(r.taken))
	for i, off := range r.taken {
		out[i] = r.corpus[off : off+wlen]
	}
	return out
}

// grow returns buf resized to n, reallocating only when it is too small.
func grow(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// setQuery numbers the query's distinct in-vocabulary tokens into slotOf,
// counts them into need, and collects its bigrams into the sorted set
// biKey/biNeed. A bigram with a foreign token is no bigram.
func (r *Retriever) setQuery(query []int) {
	r.need = append(r.need[:0], 0)
	for _, t := range query {
		if uint(t) >= uint(r.vocab) {
			continue
		}
		if r.slotOf[t] == 0 {
			r.slotOf[t] = int32(len(r.need))
			r.need = append(r.need, 0)
		}
		r.need[r.slotOf[t]]++
	}
	r.used = grow(r.used, len(r.need))
	clear(r.used)

	r.biKey = r.biKey[:0]
	for i := 0; i+1 < len(query); i++ {
		a, b := query[i], query[i+1]
		if uint(a) < uint(r.vocab) && uint(b) < uint(r.vocab) {
			r.biKey = append(r.biKey, r.bigramKey(r.slotOf[a], r.slotOf[b]))
		}
	}
	slices.Sort(r.biKey)
	r.biNeed = append(r.biNeed[:0], 0)
	keys := r.biKey[:0]
	for i, b := range r.biKey {
		if i == 0 || b != keys[len(keys)-1] {
			keys = append(keys, b)
			r.biNeed = append(r.biNeed, 0)
		}
		r.biNeed[len(r.biNeed)-1]++
	}
	r.biKey = keys
	r.biUsed = grow(r.biUsed, len(r.biNeed))
	clear(r.biUsed)
}

// bigramKey numbers the slot pair (a, b).
//
//photon:hotpath
func (r *Retriever) bigramKey(a, b int32) int { return int(a)*len(r.need) + int(b) }

// mark writes every corpus position's slot, and the index into biNeed of
// the bigram starting there (0 when it is not a query bigram). A bigram is
// looked up only when both of its tokens occur in the query.
//
//photon:hotpath
func (r *Retriever) mark() {
	prev := int32(0)
	for i, t := range r.corpus {
		s := int32(0)
		if uint(t) < uint(len(r.slotOf)) {
			s = r.slotOf[t]
		}
		r.slots[i] = s
		r.bigrams[i] = 0
		if prev != 0 && s != 0 {
			r.bigrams[i-1] = r.findBigram(prev, s)
		}
		prev = s
	}
}

// findBigram returns 1 + the index of the slot pair (a, b) in biKey, or 0.
//
//photon:hotpath
func (r *Retriever) findBigram(a, b int32) int32 {
	key := r.bigramKey(a, b)
	lo, hi := 0, len(r.biKey)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.biKey[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.biKey) && r.biKey[lo] == key {
		return int32(lo + 1)
	}
	return 0
}

// scoreWindows scores the candidate window at each stride: the query
// unigrams it matches (multiset intersection) plus twice the query bigrams
// it matches. The counts slide with the window: each step takes out the
// positions the last window held and this one does not, then adds the ones
// new to this window, so every corpus position is counted in and out once.
// Slot and bigram 0 have need 0, so they never score.
//
//photon:hotpath
func (r *Retriever) scoreWindows(wlen, stride int) {
	need, used := r.need, r.used
	biNeed, biUsed := r.biNeed, r.biUsed
	score := int32(0)
	for i := range r.scores {
		off, end := i*stride, i*stride+wlen
		in, inBi := 0, 0 // where the unigrams and bigrams new to this window start
		if i > 0 {
			last, lastEnd := off-stride, end-stride
			in, inBi = lastEnd, max(off, lastEnd-1)
			for _, s := range r.slots[last:off] {
				used[s]--
				if used[s] < need[s] {
					score--
				}
			}
			for _, b := range r.bigrams[last:min(off, lastEnd-1)] {
				biUsed[b]--
				if biUsed[b] < biNeed[b] {
					score -= 2
				}
			}
		}
		for _, s := range r.slots[in:end] {
			if used[s] < need[s] {
				score++
			}
			used[s]++
		}
		for _, b := range r.bigrams[inBi : end-1] {
			if biUsed[b] < biNeed[b] {
				score += 2
			}
			biUsed[b]++
		}
		r.scores[i] = score
	}
}

// rank orders the candidates best first — score descending, then earlier
// corpus position — with one counting sort over the scores: stable, and
// the candidates are numbered in corpus order.
//
//photon:hotpath
func (r *Retriever) rank() {
	hist := r.hist
	clear(hist)
	for _, s := range r.scores {
		hist[s]++
	}
	above := int32(0)
	for s := len(hist) - 1; s >= 0; s-- {
		n := hist[s]
		hist[s] = above // first place of a score-s window
		above += n
	}
	for i, s := range r.scores {
		r.order[hist[s]] = int32(i)
		hist[s]++
	}
}

// ICLScorer wraps a Scorer with retrieved pseudo-demonstrations: each Score
// call conditions on demos‖prompt instead of the bare prompt, where demos are
// Shots windows of DemoLen tokens similar to the prompt. The continuation
// and the accuracy statistic are untouched, so ICL and bare evaluation are
// directly comparable. Evaluation scores every candidate of an instance
// against the same prompt, so the context of the last call is kept and
// retrieval runs only when the prompt's contents, R, Shots or DemoLen
// differ from that call's.
type ICLScorer struct {
	Inner   Scorer
	R       *Retriever
	Shots   int
	DemoLen int

	// ctx is demos‖prompt as the last call built it from ctxR, ctxShots and
	// ctxDemoLen; the prompt starts at ctx[demoEnd].
	ctx                  []int
	demoEnd              int
	ctxR                 *Retriever
	ctxShots, ctxDemoLen int
}

// Score implements Scorer with the pseudo-demonstration context prepended.
func (s *ICLScorer) Score(prompt, cont []int) (float64, error) {
	if !s.built(prompt) {
		demos := s.R.Retrieve(prompt, s.Shots, s.DemoLen)
		s.ctx = s.ctx[:0]
		for _, d := range demos {
			s.ctx = append(s.ctx, d...)
		}
		s.demoEnd = len(s.ctx)
		s.ctx = append(s.ctx, prompt...)
		s.ctxR, s.ctxShots, s.ctxDemoLen = s.R, s.Shots, s.DemoLen
	}
	return s.Inner.Score(s.ctx, cont)
}

// built reports whether ctx already holds the context for prompt.
func (s *ICLScorer) built(prompt []int) bool {
	return s.ctxR != nil && s.ctxR == s.R && s.ctxShots == s.Shots && s.ctxDemoLen == s.DemoLen &&
		slices.Equal(prompt, s.ctx[s.demoEnd:])
}
