package eval

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"photon/internal/data"
	"photon/internal/nn"
)

func iclTestModel() *nn.Model {
	cfg := nn.Config{
		VocabSize: 61,
		Dim:       24,
		Heads:     3,
		Blocks:    2,
		ExpRatio:  2,
		SeqLen:    16,
	}
	return nn.NewModel(cfg, rand.New(rand.NewSource(41)))
}

// TestEvaluateWithMatchesEvaluate pins the Scorer refactor: evaluating
// through ModelScorer must reproduce the direct path instance for instance.
func TestEvaluateWithMatchesEvaluate(t *testing.T) {
	m := iclTestModel()
	src := data.NewMarkovSource("truth", 61, 9, 0.9, 7)
	task := Task{Name: "refactor-pin", Choices: 4, PromptLen: 10, ContLen: 4, Distractor: OtherSource, Instances: 30}

	want := task.Evaluate(m, src, 3)
	got, err := task.EvaluateWith(ModelScorer{m}, src, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("EvaluateWith %g, Evaluate %g", got, want)
	}
}

// TestRetrieverFindsPlantedWindow checks retrieval keys on content: a query
// copied verbatim from the corpus must retrieve exactly its source window.
func TestRetrieverFindsPlantedWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	corpus := make([]int, 1024)
	for i := range corpus {
		corpus[i] = rng.Intn(30) // tokens 0..29 only
	}
	// Plant a window of out-of-band tokens the rest of the corpus never uses.
	planted := []int{55, 42, 57, 41, 59, 44, 53, 40}
	copy(corpus[512:], planted)

	r := NewRetrieverFromCorpus(corpus, 61)
	got := r.Retrieve(planted, 1, len(planted))
	if len(got) != 1 {
		t.Fatalf("retrieved %d windows, want 1", len(got))
	}
	for i := range planted {
		if got[0][i] != planted[i] {
			t.Fatalf("retrieved window %v, want planted %v", got[0], planted)
		}
	}
}

// TestRetrieverWindowsDisjoint checks the k demonstrations are k distinct
// corpus regions and retrieval is deterministic.
func TestRetrieverWindowsDisjoint(t *testing.T) {
	src := data.NewMarkovSource("truth", 61, 9, 0.9, 13)
	r := NewRetriever(src, 2048, 5)
	query := make([]int, 12)
	for i := range query {
		query[i] = (i * 5) % 61
	}
	a := r.Retrieve(query, 3, 16)
	b := r.Retrieve(query, 3, 16)
	if len(a) != 3 {
		t.Fatalf("retrieved %d windows, want 3", len(a))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("retrieval not deterministic")
			}
		}
	}
	// Windows share no backing array region (Retrieve returns corpus slices).
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			ai, aj := &a[i][0], &a[j][0]
			if ai == aj {
				t.Fatal("windows overlap")
			}
		}
	}
}

// recordingScorer captures the conditioning context ICLScorer builds.
type recordingScorer struct {
	prompt []int
	cont   []int
}

func (s *recordingScorer) Score(prompt, cont []int) (float64, error) {
	s.prompt = append([]int(nil), prompt...)
	s.cont = append([]int(nil), cont...)
	return 0, nil
}

// TestICLScorerContext pins the demonstration layout: the inner scorer must
// see demo_1‖…‖demo_k‖prompt as its prompt and the untouched continuation.
func TestICLScorerContext(t *testing.T) {
	src := data.NewMarkovSource("truth", 61, 9, 0.9, 17)
	r := NewRetriever(src, 1024, 3)
	rec := &recordingScorer{}
	icl := &ICLScorer{Inner: rec, R: r, Shots: 2, DemoLen: 8}

	prompt := []int{1, 2, 3, 4, 5}
	cont := []int{6, 7}
	if _, err := icl.Score(prompt, cont); err != nil {
		t.Fatal(err)
	}
	demos := r.Retrieve(prompt, 2, 8)
	want := append(append(append([]int(nil), demos[0]...), demos[1]...), prompt...)
	if len(rec.prompt) != len(want) {
		t.Fatalf("inner prompt %d tokens, want %d", len(rec.prompt), len(want))
	}
	for i := range want {
		if rec.prompt[i] != want[i] {
			t.Fatalf("inner prompt diverges at %d", i)
		}
	}
	for i := range cont {
		if rec.cont[i] != cont[i] {
			t.Fatal("continuation was modified")
		}
	}
}

// TestICLEvaluate runs a task end to end with pseudo-demonstrations over a
// real model: accuracy must be a valid deterministic statistic, and the ICL
// context must stay within what ALiBi extrapolation handles.
func TestICLEvaluate(t *testing.T) {
	m := iclTestModel()
	src := data.NewMarkovSource("truth", 61, 9, 0.9, 23)
	r := NewRetriever(src, 2048, 11)
	task := Task{Name: "icl-smoke", Choices: 2, PromptLen: 8, ContLen: 4, Distractor: RandomTokens, Instances: 30}

	icl := &ICLScorer{Inner: ModelScorer{m}, R: r, Shots: 2, DemoLen: 8}
	acc1, err := task.EvaluateWith(icl, src, 29)
	if err != nil {
		t.Fatal(err)
	}
	acc2, err := task.EvaluateWith(icl, src, 29)
	if err != nil {
		t.Fatal(err)
	}
	if acc1 != acc2 {
		t.Fatalf("ICL evaluation not deterministic: %g vs %g", acc1, acc2)
	}
	if math.IsNaN(acc1) || acc1 < 0 || acc1 > 1 {
		t.Fatalf("accuracy %g out of range", acc1)
	}
}

// refRetriever is the map-based Retriever that NewRetrieverFromCorpus's
// indexed one replaced, kept verbatim as the oracle for which windows
// retrieval returns.
type refRetriever struct {
	corpus []int
	vocab  int
	uni    map[int]int
	bi     map[int]int
}

// window is a candidate demonstration during reference retrieval.
type window struct {
	off   int
	score int
}

func refRetrieve(corpus []int, vocab int, query []int, k, wlen int) [][]int {
	r := &refRetriever{corpus: corpus, vocab: vocab, uni: map[int]int{}, bi: map[int]int{}}
	return r.Retrieve(query, k, wlen)
}

func (r *refRetriever) Retrieve(query []int, k, wlen int) [][]int {
	if k <= 0 || wlen <= 0 || wlen > len(r.corpus) {
		return nil
	}
	for t := range r.uni {
		delete(r.uni, t)
	}
	for b := range r.bi {
		delete(r.bi, b)
	}
	for _, t := range query {
		r.uni[t]++
	}
	for i := 0; i+1 < len(query); i++ {
		r.bi[query[i]*r.vocab+query[i+1]]++
	}

	stride := wlen / 2
	if stride < 1 {
		stride = 1
	}
	var cands []window
	for off := 0; off+wlen <= len(r.corpus); off += stride {
		cands = append(cands, window{off: off, score: r.windowScore(off, wlen)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].off < cands[j].off
	})

	var taken []window
	for _, c := range cands {
		if len(taken) == k {
			break
		}
		overlaps := false
		for _, t := range taken {
			if c.off < t.off+wlen && t.off < c.off+wlen {
				overlaps = true
				break
			}
		}
		if !overlaps {
			taken = append(taken, c)
		}
	}
	out := make([][]int, len(taken))
	for i, t := range taken {
		out[i] = r.corpus[t.off : t.off+wlen]
	}
	return out
}

func (r *refRetriever) windowScore(off, wlen int) int {
	score := 0
	used := make(map[int]int, wlen)
	for _, t := range r.corpus[off : off+wlen] {
		if used[t] < r.uni[t] {
			used[t]++
			score++
		}
	}
	usedBi := make(map[int]int, wlen)
	for i := off; i+1 < off+wlen; i++ {
		b := r.corpus[i]*r.vocab + r.corpus[i+1]
		if usedBi[b] < r.bi[b] {
			usedBi[b]++
			score += 2
		}
	}
	return score
}

// sameWindows reports whether got and want are the same corpus windows in
// the same order, compared by where they point into the corpus.
func sameWindows(got, want [][]int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) || &got[i][0] != &want[i][0] {
			return false
		}
	}
	return true
}

// TestRetrieveMatchesReference holds the indexed Retriever to the map-based
// one it replaced over seeded corpora: vocabularies 2…2048, corpora 1…4096
// tokens, window lengths 1…len(corpus), k from 0 past the number of
// windows, and corpora built for score ties (a few distinct tokens, periodic
// text, a planted copy of the span queries are drawn from). One Retriever
// serves every query of a corpus, so scratch left over from one call would
// show in the next.
func TestRetrieveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vocabs := []int{2, 3, 5, 61, 256, 2048}
	lens := []int{1, 2, 3, 17, 64, 500, 2048, 4096}
	calls := 0
	for trial := 0; trial < 120; trial++ {
		vocab := vocabs[trial%len(vocabs)]
		if trial%4 == 3 {
			vocab = 2 + rng.Intn(2047)
		}
		n := lens[rng.Intn(len(lens))]
		corpus := make([]int, n)
		switch trial % 3 {
		case 0: // uniform over the vocabulary
			for i := range corpus {
				corpus[i] = rng.Intn(vocab)
			}
		case 1: // a few distinct tokens: repeats and ties everywhere
			alpha := 1 + rng.Intn(min(vocab, 4))
			for i := range corpus {
				corpus[i] = rng.Intn(alpha)
			}
		default: // periodic text: many windows score exactly alike
			period := 1 + rng.Intn(9)
			base := rng.Intn(vocab)
			for i := range corpus {
				corpus[i] = (base + i%period) % vocab
			}
		}
		// Plant a copy of one span elsewhere: queries drawn from it tie at
		// the top score.
		span := rng.Intn(n)
		if n > 1 {
			copy(corpus[rng.Intn(n):], slices.Clone(corpus[span:min(span+40, n)]))
		}
		r := NewRetrieverFromCorpus(corpus, vocab)
		for q := 0; q < 8; q++ {
			wlen := 1 + rng.Intn(min(n, 24))
			if q == 7 {
				wlen = 1 + rng.Intn(n)
			}
			stride := max(wlen/2, 1)
			windows := (n-wlen)/stride + 1
			k := rng.Intn(min(windows, 6) + 1)
			if q%4 == 3 {
				k = windows + 1 + rng.Intn(3)
			}
			query := make([]int, rng.Intn(40))
			for i := range query {
				query[i] = rng.Intn(vocab)
			}
			if q%2 == 1 {
				query = query[:copy(query, corpus[span:])]
			}
			got := r.Retrieve(query, k, wlen)
			want := refRetrieve(corpus, vocab, query, k, wlen)
			if !sameWindows(got, want) {
				t.Fatalf("trial %d query %d (vocab %d, corpus %d, wlen %d, k %d): retrieved %d windows, reference %d, or they differ",
					trial, q, vocab, n, wlen, k, len(got), len(want))
			}
			calls++
		}
		// Degenerate shapes return nothing, as before.
		for _, c := range [][2]int{{0, 1}, {-1, 1}, {1, 0}, {1, n + 1}} {
			if got := r.Retrieve([]int{0}, c[0], c[1]); got != nil {
				t.Fatalf("Retrieve(k=%d, wlen=%d) = %d windows, want nil", c[0], c[1], len(got))
			}
		}
	}
	t.Logf("%d retrievals identical to the reference", calls)
}

// TestRetrieverIgnoresOutOfVocabTokens: a query or corpus token outside
// [0, vocab) matches nothing. Bigrams used to be keyed a*vocab+b, so the
// query bigram (3, 300) at vocab 256 matched the corpus bigram (4, 44).
func TestRetrieverIgnoresOutOfVocabTokens(t *testing.T) {
	const vocab = 256
	corpus := make([]int, 64)
	for i := range corpus {
		corpus[i] = 7
	}
	copy(corpus[10:], []int{4, 44}) // 4*256+44 == 3*256+300
	copy(corpus[40:], []int{3, 9})
	r := NewRetrieverFromCorpus(corpus, vocab)
	got := r.Retrieve([]int{3, 300}, 1, 2)
	if len(got) != 1 || !slices.Contains(got[0], 3) {
		t.Fatalf("query (3, 300) retrieved %v; want a window holding its one in-vocabulary token 3", got)
	}

	// A query of nothing but foreign tokens scores every window 0, so the
	// earliest disjoint windows come back (and nothing panics on a negative).
	got = r.Retrieve([]int{-1, -300, 1 << 40, vocab, 300, -1}, 2, 4)
	if !sameWindows(got, [][]int{corpus[0:4], corpus[4:8]}) {
		t.Fatalf("foreign-token query retrieved %v, want the windows at 0 and 4", got)
	}

	// Foreign corpus tokens match nothing either, even the same foreign id.
	odd := []int{1, 2, -5, 999, -5, 999, 1, 2}
	r = NewRetrieverFromCorpus(odd, 8)
	got = r.Retrieve([]int{-5, 999, 1, 2}, 1, 2)
	if !sameWindows(got, [][]int{odd[0:2]}) {
		t.Fatalf("retrieved %v, want the (1, 2) window at 0", got)
	}
}

// iclContext is the conditioning ICLScorer must build for prompt.
func iclContext(r *Retriever, prompt []int, shots, demoLen int) []int {
	var ctx []int
	for _, d := range r.Retrieve(prompt, shots, demoLen) {
		ctx = append(ctx, d...)
	}
	return append(ctx, prompt...)
}

// TestICLScorerMemoKeysOnContent: ICLScorer reuses its last context only
// for the same prompt contents under the same R, Shots and DemoLen. A prompt
// mutated in place, a suffix of the last prompt, and a changed Shots,
// DemoLen or R each retrieve afresh.
func TestICLScorerMemoKeysOnContent(t *testing.T) {
	src := data.NewMarkovSource("truth", 61, 9, 0.9, 17)
	r1 := NewRetriever(src, 1024, 3)
	r2 := NewRetriever(src, 1024, 4)
	rec := &recordingScorer{}
	icl := &ICLScorer{Inner: rec, R: r1, Shots: 2, DemoLen: 8}

	prompt := make([]int, 12)
	src.Sample(rand.New(rand.NewSource(5)), prompt)
	cont := []int{6, 7}
	score := func(step string, p []int) {
		t.Helper()
		prev := rec.prompt
		if _, err := icl.Score(p, cont); err != nil {
			t.Fatal(err)
		}
		want := iclContext(icl.R, p, icl.Shots, icl.DemoLen)
		if !slices.Equal(rec.prompt, want) {
			t.Fatalf("%s: inner prompt %v, want %v", step, rec.prompt, want)
		}
		if prev != nil && slices.Equal(prev, want) {
			t.Fatalf("%s: the fresh context equals the last one, so the step proves nothing", step)
		}
	}
	score("first call", prompt)
	if _, err := icl.Score(slices.Clone(prompt), cont); err != nil {
		t.Fatal(err)
	}
	if want := iclContext(r1, prompt, 2, 8); !slices.Equal(rec.prompt, want) {
		t.Fatal("same prompt contents in a new array: context changed")
	}

	for i := range prompt { // mutate the caller's array in place
		prompt[i] = (prompt[i] + 30) % 61
	}
	score("prompt mutated in place", prompt)
	score("suffix of the last prompt", prompt[3:])
	icl.Shots = 1
	score("Shots changed", prompt[3:])
	icl.DemoLen = 6
	score("DemoLen changed", prompt[3:])
	icl.R = r2
	score("R changed", prompt[3:])
}

// sinkScorer is an inner Scorer that allocates nothing.
type sinkScorer struct{ n int }

func (s *sinkScorer) Score(prompt, cont []int) (float64, error) {
	s.n += len(prompt) + len(cont)
	return 0, nil
}

// benchRetriever is the retriever at the serve-icl-score shapes: a Markov
// truth source over a 256-token vocabulary, a 2048-token corpus, and one
// prompt per suite task at that task's PromptLen.
func benchRetriever() (*Retriever, data.Source, [][]int) {
	src := data.NewMarkovSource("truth", 256, 9, 0.9, 1)
	r := NewRetriever(src, 2048, 2)
	rng := rand.New(rand.NewSource(3))
	var prompts [][]int
	for _, task := range Suite() {
		p := make([]int, task.PromptLen)
		src.Sample(rng, p)
		prompts = append(prompts, p)
	}
	return r, src, prompts
}

// TestRetrieveAllocs: a warm Retrieve allocates only the slice it returns,
// and a repeated-prompt ICLScorer.Score over a non-allocating inner scorer
// allocates nothing.
func TestRetrieveAllocs(t *testing.T) {
	r, _, prompts := benchRetriever()
	for _, p := range prompts {
		r.Retrieve(p, 2, 8)
	}
	i := 0
	if a := testing.AllocsPerRun(100, func() {
		r.Retrieve(prompts[i%len(prompts)], 2, 8)
		i++
	}); a > 1 {
		t.Fatalf("warm Retrieve: %v allocs, want ≤1", a)
	}

	icl := &ICLScorer{Inner: &sinkScorer{}, R: r, Shots: 2, DemoLen: 8}
	cont := []int{1, 2, 3, 4}
	if _, err := icl.Score(prompts[0], cont); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { icl.Score(prompts[0], cont) }); a != 0 {
		t.Fatalf("repeated-prompt Score: %v allocs, want 0", a)
	}
}

// BenchmarkRetrieve is one retrieval at the serve-icl-score shapes (2 shots
// of 8 tokens), cycling through the suite tasks' prompt lengths.
func BenchmarkRetrieve(b *testing.B) {
	r, _, prompts := benchRetriever()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		r.Retrieve(prompts[i%len(prompts)], 2, 8)
	}
}

// BenchmarkICLSuitePass is one serve-icl-score suite pass — 4 instances of
// every task, 2 shots of 8 tokens — over a recording scorer, so it measures
// the evaluation client alone.
func BenchmarkICLSuitePass(b *testing.B) {
	r, src, _ := benchRetriever()
	icl := &ICLScorer{Inner: &recordingScorer{}, R: r, Shots: 2, DemoLen: 8}
	b.ReportAllocs()
	for pass := int64(0); b.Loop(); pass++ {
		for _, task := range Suite() {
			task.Instances = 4
			if _, err := task.EvaluateWith(icl, src, pass); err != nil {
				b.Fatal(err)
			}
		}
	}
}
