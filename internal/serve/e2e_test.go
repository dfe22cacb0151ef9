package serve

import (
	"context"
	"math"
	"sync"
	"testing"

	"photon/internal/data"
	"photon/internal/eval"
	"photon/internal/link"
	"photon/internal/nn"
	"photon/internal/testutil"
)

// TestSuiteEndToEnd runs the full evaluation suite against a live
// photon-serve over TCP — the acceptance path for serving-backed evaluation.
// Served accuracies must match the in-process suite almost exactly; the only
// admissible slack is the decode-vs-training float tolerance flipping an
// instance whose candidates are near-tied.
// runSuite scores every task in the evaluation suite through sc, keyed by
// task name.
func runSuite(sc eval.Scorer, src data.Source, seed int64) (map[string]float64, error) {
	acc := map[string]float64{}
	for _, task := range eval.Suite() {
		a, err := task.EvaluateWith(sc, src, seed)
		if err != nil {
			return nil, err
		}
		acc[task.Name] = a
	}
	return acc, nil
}

func TestSuiteEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite e2e is long")
	}
	m := testModel(31)
	src := data.NewMarkovSource("truth", m.Cfg.VocabSize, 9, 0.9, 77)
	want, err := runSuite(eval.ModelScorer{M: m}, src, 5)
	if err != nil {
		t.Fatal(err)
	}

	client, shutdown := startServer(t, m, Config{MaxBatch: 4, MaxSeq: 128, Queue: 32})
	defer shutdown()

	got, err := runSuite(client, src, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("served suite covered %d tasks, in-process %d", len(got), len(want))
	}
	for task, wantAcc := range want {
		gotAcc, ok := got[task]
		if !ok {
			t.Fatalf("task %s missing from served report", task)
		}
		// Allow at most 2 of 120 instances to flip on near-ties.
		if math.Abs(gotAcc-wantAcc) > 2.0/120+1e-9 {
			t.Errorf("task %s: served accuracy %g, in-process %g", task, gotAcc, wantAcc)
		}
	}
}

// TestSuiteICLEndToEnd runs ICL-mode evaluation — pseudo-demonstrations
// retrieved from the training corpus, scored through the live server — and
// pins it against the identical ICL pipeline over an in-process scorer.
func TestSuiteICLEndToEnd(t *testing.T) {
	m := testModel(32)
	src := data.NewMarkovSource("truth", m.Cfg.VocabSize, 9, 0.9, 78)
	r := eval.NewRetriever(src, 2048, 9)
	task := eval.Task{Name: "icl-e2e", Choices: 4, PromptLen: 12, ContLen: 4, Distractor: eval.OtherSource, Instances: 40}

	wantAcc, err := task.EvaluateWith(&eval.ICLScorer{Inner: eval.ModelScorer{M: m}, R: r, Shots: 2, DemoLen: 8}, src, 3)
	if err != nil {
		t.Fatal(err)
	}

	client, shutdown := startServer(t, m, Config{MaxBatch: 4, MaxSeq: 128, Queue: 32})
	defer shutdown()

	gotAcc, err := task.EvaluateWith(&eval.ICLScorer{Inner: client, R: r, Shots: 2, DemoLen: 8}, src, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotAcc-wantAcc) > 1.0/40+1e-9 {
		t.Fatalf("ICL served accuracy %g, in-process %g", gotAcc, wantAcc)
	}
}

// startEngine is startServer for tests that read the engine's counters or
// dial more than one connection: it returns the engine and the address.
func startEngine(t *testing.T, m *nn.Model, cfg Config) (*Engine, string, func()) {
	t.Helper()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(m, cfg)
	srv := NewServer(eng, l)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Run(ctx)
	}()
	return eng, srv.Addr(), func() {
		cancel()
		<-done
		eng.Close()
	}
}

// iclReuseRun evaluates the suite's four-choice tasks in the benchmark's ICL
// shape (2 retrieved demonstrations of 8 tokens, a few instances a task, an
// 8-slot engine) through a live server, the tasks dealt round-robin to conns
// clients on a connection each, and returns the engine's prefix-reuse share.
// Every task's accuracy is held to the same pipeline over an in-process twin
// of the served model.
func iclReuseRun(t *testing.T, seed int64, conns int) float64 {
	t.Helper()
	twin := testModel(seed)
	src := data.NewMarkovSource("truth", twin.Cfg.VocabSize, 9, 0.9, 79)
	newScorer := func(inner eval.Scorer) *eval.ICLScorer {
		// A Retriever keeps query scratch, so each scorer indexes its own
		// copy of the same corpus.
		return &eval.ICLScorer{Inner: inner, R: eval.NewRetriever(src, 2048, 9), Shots: 2, DemoLen: 8}
	}
	var tasks []eval.Task
	for _, task := range eval.Suite() {
		if task.Choices == 4 {
			task.Instances = 4
			tasks = append(tasks, task)
		}
	}
	want := make([]float64, len(tasks))
	inProcess := newScorer(eval.ModelScorer{M: twin})
	for i, task := range tasks {
		want[i], _ = task.EvaluateWith(inProcess, src, 3)
	}

	eng, addr, shutdown := startEngine(t, testModel(seed), Config{MaxBatch: 8, MaxSeq: 128, Queue: 32})
	defer shutdown()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		client, err := DialServer(context.Background(), addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			served := newScorer(client)
			for i := c; i < len(tasks); i += conns {
				got, err := tasks[i].EvaluateWith(served, src, 3)
				if err != nil {
					t.Errorf("task %s: %v", tasks[i].Name, err)
				} else if math.Abs(got-want[i]) > 1.0/4+1e-9 {
					t.Errorf("task %s: served accuracy %g, in-process %g", tasks[i].Name, got, want[i])
				}
			}
		}(c)
	}
	wg.Wait()
	st := eng.Stats()
	return float64(st.ReusedTokens) / float64(st.ReusedTokens+st.PrefillTokens)
}

// TestICLReuseShareEndToEnd asserts what the benchmark cannot read: on
// evaluation traffic over one connection the engine serves at least half of
// all context tokens from retained prefixes. The ceiling is the share of
// tokens a request repeats from the one before it (three candidates in four
// repeat the whole context) less the one context token every request feeds.
func TestICLReuseShareEndToEnd(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	if share := iclReuseRun(t, 33, 1); share < 0.5 {
		t.Fatalf("prefix-reuse share %.3f on single-connection ICL traffic, want ≥ 0.5", share)
	} else {
		t.Logf("prefix-reuse share, one connection: %.3f", share)
	}
}

// TestICLReuseShareTwoConnections interleaves two evaluations on two
// connections. The share is reported, not gated: it is the evidence for
// whether interleaving costs enough reuse to justify a batched scoring frame
// (ROADMAP item 4's follow-up). The longest-prefix pick should keep it near
// the single-connection figure as long as there are slots to spare.
func TestICLReuseShareTwoConnections(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	t.Logf("prefix-reuse share, two connections on different tasks: %.3f", iclReuseRun(t, 34, 2))
}
