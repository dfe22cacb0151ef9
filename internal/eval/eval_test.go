package eval

import (
	"math"
	"math/rand"
	"testing"

	"photon/internal/data"
	"photon/internal/nn"
	"photon/internal/opt"
)

func tinyCfg() nn.Config {
	c := nn.ConfigTiny
	c.SeqLen = 40 // long enough for the longest prompt+continuation
	return c
}

// trainedModel fits a tiny model on the corpus for a few hundred steps.
func trainedModel(t *testing.T, steps int) *nn.Model {
	t.Helper()
	cfg := tinyCfg()
	m := nn.NewModel(cfg, rand.New(rand.NewSource(1)))
	src := data.C4Like(cfg.VocabSize)
	st := data.NewShard(src, 0, 3)
	o := opt.NewAdamW(0.9, 0.95, 0.01)
	for s := 0; s < steps; s++ {
		b := st.NextBatch(8, 24)
		m.Params().ZeroGrads()
		m.ForwardBackward(b)
		m.Params().ClipGradNorm(1)
		o.Step(m.Params(), 3e-3)
	}
	return m
}

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) != 13 {
		t.Fatalf("want 13 tasks (Tables 7+8), got %d", len(suite))
	}
	seen := map[string]bool{}
	for _, task := range suite {
		if task.Choices < 2 || task.PromptLen < 1 || task.ContLen < 1 || task.Instances < 1 {
			t.Errorf("task %s has degenerate parameters: %+v", task.Name, task)
		}
		if seen[task.Name] {
			t.Errorf("duplicate task name %s", task.Name)
		}
		seen[task.Name] = true
		if c := task.Chance(); c != 1/float64(task.Choices) {
			t.Errorf("task %s chance: got %v", task.Name, c)
		}
	}
}

func TestContinuationLogProbNegativeAndAdditive(t *testing.T) {
	m := nn.NewModel(tinyCfg(), rand.New(rand.NewSource(2)))
	prompt := []int{1, 2, 3, 4}
	cont := []int{5, 6}
	lp := ContinuationLogProb(m, prompt, cont)
	if lp >= 0 {
		t.Fatalf("log-prob must be negative: %v", lp)
	}
	// Splitting the continuation must give the same total (chain rule).
	lp1 := ContinuationLogProb(m, prompt, cont[:1])
	lp2 := ContinuationLogProb(m, append(append([]int{}, prompt...), cont[0]), cont[1:])
	if math.Abs(lp-(lp1+lp2)) > 1e-4 {
		t.Fatalf("chain rule violated: %v vs %v + %v", lp, lp1, lp2)
	}
}

func TestUntrainedModelNearChance(t *testing.T) {
	m := nn.NewModel(tinyCfg(), rand.New(rand.NewSource(3)))
	src := data.C4Like(tinyCfg().VocabSize)
	task := Task{Name: "probe", Choices: 4, PromptLen: 8, ContLen: 4,
		Distractor: OtherSource, Instances: 150}
	acc := task.Evaluate(m, src, 42)
	// An untrained model should sit near chance (0.25); allow a wide band
	// because length-normalized likelihood has mild biases.
	if acc < 0.05 || acc > 0.55 {
		t.Fatalf("untrained accuracy implausible: %v", acc)
	}
}

func TestTrainedModelBeatsUntrained(t *testing.T) {
	trained := trainedModel(t, 250)
	untrained := nn.NewModel(tinyCfg(), rand.New(rand.NewSource(4)))
	src := data.C4Like(tinyCfg().VocabSize)

	rTrained := runSuite("trained", trained, src, 7)
	rUntrained := runSuite("untrained", untrained, src, 7)
	wins, total := Wins(rTrained, rUntrained)
	if total != 13 {
		t.Fatalf("total comparisons: got %d", total)
	}
	// The paper's claim shape: the better model wins most comparisons.
	if wins < 8 {
		t.Fatalf("trained model won only %.1f of %d comparisons", wins, total)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	m := nn.NewModel(tinyCfg(), rand.New(rand.NewSource(5)))
	src := data.C4Like(tinyCfg().VocabSize)
	task := Suite()[0]
	task.Instances = 30
	a := task.Evaluate(m, src, 9)
	b := task.Evaluate(m, src, 9)
	if a != b {
		t.Fatalf("same seed gave different accuracy: %v vs %v", a, b)
	}
}

// TestTasksDoNotShareDistractorStreams is the regression for the fixed
// 0xD157 distractor seed: two different tasks evaluated under the same
// caller seed must draw from distinct distractor sources. With the shared
// seed, equal-length draws from two tasks' sources were byte-identical.
func TestTasksDoNotShareDistractorStreams(t *testing.T) {
	const vocab, seed = 64, 9
	sample := func(task string) []int {
		src := data.NewMarkovSource("distractor", vocab, 9, 0.9, distractorSeed(task, seed))
		rng := rand.New(rand.NewSource(1)) // same consumer randomness both times
		out := make([]int, 256)
		src.Sample(rng, out)
		return out
	}
	a := sample("hellaswag")
	b := sample("piqa")
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two tasks drew an identical distractor stream; seeds are still correlated")
	}
	// Determinism must survive the fix: the same (task, seed) pair always
	// yields the same stream.
	c := sample("hellaswag")
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("distractor stream is no longer deterministic per (task, seed)")
		}
	}
	// And distinct caller seeds must decorrelate even the same task.
	if distractorSeed("mmlu", 1) == distractorSeed("mmlu", 2) {
		t.Fatal("caller seed does not reach the distractor seed")
	}
}

func TestDistractorKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	other := data.NewMarkovSource("o", 64, 9, 0.9, 0xD157)
	truth := []int{1, 2, 3, 4, 5, 6}
	for _, kind := range []Distractor{RandomTokens, OtherSource, ShuffledTruth} {
		task := Task{Distractor: kind}
		d := task.makeDistractor(rng, other, truth)
		if len(d) != len(truth) {
			t.Fatalf("kind %d: distractor length %d", kind, len(d))
		}
	}
	// ShuffledTruth preserves the multiset of tokens.
	task := Task{Distractor: ShuffledTruth}
	d := task.makeDistractor(rng, other, truth)
	counts := map[int]int{}
	for _, v := range truth {
		counts[v]++
	}
	for _, v := range d {
		counts[v]--
	}
	for _, c := range counts {
		if c != 0 {
			t.Fatal("shuffled distractor changed token content")
		}
	}
}

func TestWinsCounting(t *testing.T) {
	a := Report{Acc: map[string]float64{"x": 0.6, "y": 0.5, "z": 0.4}}
	b := Report{Acc: map[string]float64{"x": 0.5, "y": 0.5, "z": 0.5}}
	wins, total := Wins(a, b)
	if total != 3 || wins != 1.5 { // win, tie (0.5), loss
		t.Fatalf("wins=%v total=%d", wins, total)
	}
	// Missing tasks are skipped.
	c := Report{Acc: map[string]float64{"x": 0.1}}
	if _, total := Wins(a, c); total != 1 {
		t.Fatalf("mismatched task sets: total %d", total)
	}
}

// runSuite evaluates m on every task in the suite.
func runSuite(name string, m *nn.Model, src data.Source, seed int64) Report {
	r := Report{Model: name, Acc: map[string]float64{}}
	for _, task := range Suite() {
		r.Acc[task.Name] = task.Evaluate(m, src, seed)
	}
	return r
}
