// Package eval implements the downstream in-context evaluation standing in
// for the paper's Table 7/8 benchmark suite (ARC, HellaSwag, PIQA, ...).
//
// Real benchmark datasets are unavailable offline, so each task is a
// synthetic likelihood-scored multiple-choice problem over the training
// distribution: the model sees a prompt sampled from the corpus and must
// assign a higher continuation log-likelihood to the true continuation than
// to distractors. Task difficulty is controlled by the number of choices,
// the distractor generator, and the continuation length — giving the same
// *monotonicity* property the paper reports (bigger/better-trained Photon
// models win more comparisons) without pretending to measure commonsense.
package eval

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"

	"photon/internal/data"
	"photon/internal/nn"
	"photon/internal/tensor"
)

// Distractor selects how wrong answers are generated, ordered by how hard
// they are to reject.
type Distractor int

// Distractor kinds.
const (
	// RandomTokens draws distractors uniformly over the vocabulary (easy).
	RandomTokens Distractor = iota
	// OtherSource draws distractors from a different Markov source (medium).
	OtherSource
	// ShuffledTruth permutes the true continuation's tokens (hard: same
	// unigram content, broken structure).
	ShuffledTruth
)

// Task is one synthetic in-context benchmark.
type Task struct {
	Name       string
	Choices    int // answer options per instance (≥2)
	PromptLen  int
	ContLen    int
	Distractor Distractor
	Instances  int
}

// Suite returns the 13 tasks mirroring the paper's Table 7/8 columns. Names
// follow the original benchmarks; difficulty varies across tasks so model
// rankings have room to show.
func Suite() []Task {
	return []Task{
		// Table 7 group.
		{Name: "arc-challenge", Choices: 4, PromptLen: 24, ContLen: 6, Distractor: ShuffledTruth, Instances: 120},
		{Name: "bigbench-qa-wikidata", Choices: 4, PromptLen: 16, ContLen: 4, Distractor: OtherSource, Instances: 120},
		{Name: "hellaswag", Choices: 4, PromptLen: 20, ContLen: 8, Distractor: OtherSource, Instances: 120},
		{Name: "piqa", Choices: 2, PromptLen: 16, ContLen: 6, Distractor: OtherSource, Instances: 120},
		{Name: "winogrande", Choices: 2, PromptLen: 20, ContLen: 4, Distractor: ShuffledTruth, Instances: 120},
		{Name: "arc-easy", Choices: 4, PromptLen: 16, ContLen: 4, Distractor: RandomTokens, Instances: 120},
		{Name: "boolq", Choices: 2, PromptLen: 24, ContLen: 2, Distractor: ShuffledTruth, Instances: 120},
		// Table 8 group.
		{Name: "openbook-qa", Choices: 4, PromptLen: 12, ContLen: 4, Distractor: OtherSource, Instances: 120},
		{Name: "winograd", Choices: 2, PromptLen: 16, ContLen: 4, Distractor: ShuffledTruth, Instances: 120},
		{Name: "lambada", Choices: 4, PromptLen: 28, ContLen: 2, Distractor: OtherSource, Instances: 120},
		{Name: "bigbench-strategy-qa", Choices: 2, PromptLen: 20, ContLen: 6, Distractor: ShuffledTruth, Instances: 120},
		{Name: "copa", Choices: 2, PromptLen: 8, ContLen: 6, Distractor: OtherSource, Instances: 120},
		{Name: "mmlu", Choices: 4, PromptLen: 24, ContLen: 4, Distractor: ShuffledTruth, Instances: 120},
	}
}

// Chance returns the accuracy of random guessing on the task.
func (t Task) Chance() float64 { return 1 / float64(t.Choices) }

// distractorSeed derives the OtherSource distractor generator's seed from
// the task name and the caller's evaluation seed. Every task used to share
// the fixed seed 0xD157, which correlated the "independent" benchmarks:
// two OtherSource tasks with the same continuation length drew identical
// distractors. Hashing (name, seed) gives each task its own stream while
// keeping evaluation deterministic for a fixed seed.
func distractorSeed(name string, seed int64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	return h.Sum64()
}

// Scorer computes log p(cont | prompt) in nats. It is the seam between
// evaluation and the model: ModelScorer runs in process, serve.Engine and
// serve.Client satisfy it over the serving stack, and ICLScorer wraps any of
// them with retrieved pseudo-demonstrations.
//
// An implementation must not modify prompt or cont, nor retain them after
// Score returns: callers reuse both buffers (ICLScorer passes the same context
// buffer for every candidate of an instance and keeps it for the next call).
type Scorer interface {
	Score(prompt, cont []int) (float64, error)
}

// ModelScorer adapts an in-process model to the Scorer seam.
type ModelScorer struct{ M *nn.Model }

// Score implements Scorer via ContinuationLogProb's full forward.
func (s ModelScorer) Score(prompt, cont []int) (float64, error) {
	return ContinuationLogProb(s.M, prompt, cont), nil
}

// Evaluate scores the model on the task using src as the truth distribution
// and a deterministic instance stream from seed. It returns accuracy in
// [0, 1]: the fraction of instances where the true continuation has the
// highest length-normalized log-likelihood. The distractor source is seeded
// per (task, seed), so no two tasks share a distractor stream.
func (t Task) Evaluate(m *nn.Model, src data.Source, seed int64) float64 {
	acc, _ := t.EvaluateWith(ModelScorer{m}, src, seed)
	return acc
}

// EvaluateWith is Evaluate over an arbitrary Scorer — the same instance
// stream, candidates, and accuracy statistic, but the likelihoods may come
// from a serving stack or an ICL wrapper instead of a direct model call. It
// stops at the first scoring error (a lost connection fails the evaluation
// rather than skewing it).
func (t Task) EvaluateWith(sc Scorer, src data.Source, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	distractorSrc := data.NewMarkovSource("distractor", src.Vocab(), 9, 0.9, distractorSeed(t.Name, seed))
	correct := 0
	full := make([]int, t.PromptLen+t.ContLen)
	for inst := 0; inst < t.Instances; inst++ {
		src.Sample(rng, full)
		prompt := append([]int(nil), full[:t.PromptLen]...)
		truth := append([]int(nil), full[t.PromptLen:]...)

		candidates := make([][]int, t.Choices)
		truthIdx := rng.Intn(t.Choices)
		for c := range candidates {
			if c == truthIdx {
				candidates[c] = truth
				continue
			}
			candidates[c] = t.makeDistractor(rng, distractorSrc, truth)
		}

		best, bestScore := -1, math.Inf(-1)
		for c, cand := range candidates {
			lp, err := sc.Score(prompt, cand)
			if err != nil {
				return 0, err
			}
			score := lp / float64(len(cand))
			if score > bestScore {
				best, bestScore = c, score
			}
		}
		if best == truthIdx {
			correct++
		}
	}
	return float64(correct) / float64(t.Instances), nil
}

func (t Task) makeDistractor(rng *rand.Rand, other data.Source, truth []int) []int {
	out := make([]int, len(truth))
	switch t.Distractor {
	case RandomTokens:
		for i := range out {
			out[i] = rng.Intn(other.Vocab())
		}
	case OtherSource:
		other.Sample(rng, out)
	default: // ShuffledTruth
		copy(out, truth)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// ContinuationLogProb returns the sum of log p(cont_t | prompt, cont_<t)
// under the model, in nats.
func ContinuationLogProb(m *nn.Model, prompt, cont []int) float64 {
	seq := make([]int, 0, len(prompt)+len(cont))
	seq = append(seq, prompt...)
	seq = append(seq, cont...)
	logits := m.Logits([][]int{seq})
	var lp float64
	for i := range cont {
		pos := len(prompt) + i - 1 // logits at pos predict token pos+1
		row := logits.Row(pos)
		lse := tensor.LogSumExpRow(row)
		lp += float64(row[seq[pos+1]]) - lse
	}
	return lp
}

// Report is one model's accuracy per task.
type Report struct {
	Model string
	Acc   map[string]float64
}

// Wins counts the pairwise comparisons a wins against b across tasks (ties
// are half a win each), the statistic behind the paper's "wins 10 of 14
// comparisons" claim.
func Wins(a, b Report) (wins float64, total int) {
	for task, av := range a.Acc {
		bv, ok := b.Acc[task]
		if !ok {
			continue
		}
		total++
		switch {
		case av > bv:
			wins++
		case av == bv:
			wins += 0.5
		}
	}
	return wins, total
}
