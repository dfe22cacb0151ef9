package serve

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"photon/internal/eval"
	"photon/internal/nn"
)

func testModel(seed int64) *nn.Model {
	cfg := nn.Config{
		VocabSize: 61,
		Dim:       24,
		Heads:     3,
		Blocks:    2,
		ExpRatio:  2,
		SeqLen:    16,
	}
	return nn.NewModel(cfg, rand.New(rand.NewSource(seed)))
}

// TestEngineGenerateMatchesInProcess pins the serving path against the local
// generation path: a request served alone must reproduce Model.GenerateOpts
// token for token, both greedy and sampled (same seed).
func TestEngineGenerateMatchesInProcess(t *testing.T) {
	m := testModel(1)
	prompt := []int{3, 7, 11}
	opts := nn.SampleOpts{Temperature: 0.8, TopK: 12}
	// In-process references first: the engine owns the model once started.
	wantGreedy := m.Generate(nil, prompt, 10, 0)
	wantSampled := m.GenerateOpts(rand.New(rand.NewSource(99)), prompt, 10, opts)

	e := NewEngine(m, Config{MaxBatch: 1, MaxSeq: 64})
	defer e.Close()

	res := e.Do(Request{Prompt: prompt, MaxNew: 10})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Tokens) != len(wantGreedy) {
		t.Fatalf("greedy: got %d tokens, want %d", len(res.Tokens), len(wantGreedy))
	}
	for i := range res.Tokens {
		if res.Tokens[i] != wantGreedy[i] {
			t.Fatalf("greedy token %d: served %d, in-process %d", i, res.Tokens[i], wantGreedy[i])
		}
	}

	res = e.Do(Request{Prompt: prompt, MaxNew: 10, Opts: opts, Seed: 99})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for i := range res.Tokens {
		if res.Tokens[i] != wantSampled[i] {
			t.Fatalf("sampled token %d: served %d, in-process %d", i, res.Tokens[i], wantSampled[i])
		}
	}
}

// TestEngineScoreMatchesEval is the scoring half of the serving contract:
// log p(cont | prompt) through the engine must match eval.ContinuationLogProb
// (which recomputes the full sequence through the training forward) within
// the decode-vs-training float tolerance.
func TestEngineScoreMatchesEval(t *testing.T) {
	m := testModel(2)
	rng := rand.New(rand.NewSource(5))
	prompt := make([]int, 9)
	cont := make([]int, 5)
	for i := range prompt {
		prompt[i] = rng.Intn(m.Cfg.VocabSize)
	}
	for i := range cont {
		cont[i] = rng.Intn(m.Cfg.VocabSize)
	}
	want := eval.ContinuationLogProb(m, prompt, cont)

	e := NewEngine(m, Config{MaxBatch: 2, MaxSeq: 64})
	defer e.Close()
	got, err := e.Score(prompt, cont)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-4 {
		t.Fatalf("served score %g, in-process %g", got, want)
	}
}

// TestEngineContinuousBatching is the mid-batch scheduling pin: with a
// 2-slot batch occupied by one long request, short requests must rotate
// through the second slot and complete while the long one is still decoding.
//
// Nothing here depends on wall time. Admission is FIFO, so submitting the long
// request first binds it to one slot before any short is looked at, and the
// shorts then contend for the other; completion order is read from the
// engine's own retirement events (emitted by the scheduler goroutine in the
// order it retires sequences), not from which observer goroutine wakes first.
func TestEngineContinuousBatching(t *testing.T) {
	m := testModel(3)
	e := NewEngine(m, Config{MaxBatch: 2, MaxSeq: 128, Queue: 8})
	defer e.Close()

	const longNew, shortNew, nShort = 90, 3, 3
	results := make([]<-chan Result, 0, 1+nShort)
	submit := func(req Request) {
		t.Helper()
		ch, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, ch)
	}
	submit(Request{Prompt: []int{1, 2}, MaxNew: longNew})
	for i := 0; i < nShort; i++ {
		submit(Request{Prompt: []int{5}, MaxNew: shortNew})
	}

	// The shorts need nShort*shortNew decode steps through one slot; the long
	// request needs longNew. Batched, the shorts retire first; served one
	// request at a time (no mid-batch admission) the long one would.
	var order []int
	for range results {
		ev := <-e.Events()
		if ev.Kind != EventCompleted {
			t.Fatalf("event kind %v, want completed", ev.Kind)
		}
		order = append(order, ev.Tokens)
	}
	want := []int{shortNew, shortNew, shortNew, longNew}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("retirement order (tokens per request) %v, want %v: short requests should finish mid-batch before the long one", order, want)
		}
	}
	for i, ch := range results {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("request %d failed: %v", i, r.Err)
		}
		wantTok := shortNew
		if i == 0 {
			wantTok = longNew
		}
		if len(r.Tokens) != wantTok {
			t.Fatalf("request %d returned %d tokens, want %d", i, len(r.Tokens), wantTok)
		}
	}
	st := e.Stats()
	if st.Completed != 4 {
		t.Fatalf("stats report %d completed, want 4", st.Completed)
	}
	if st.TokensOut != longNew+nShort*shortNew {
		t.Fatalf("stats report %d tokens out, want %d", st.TokensOut, longNew+nShort*shortNew)
	}
}

// TestEngineQueueFull pins admission backpressure: with the single batch
// slot busy and the queue at capacity, the next Submit fails fast.
func TestEngineQueueFull(t *testing.T) {
	m := testModel(4)
	e := NewEngine(m, Config{MaxBatch: 1, MaxSeq: 4096, Queue: 1})
	defer e.Close()

	// Long enough (thousands of decode steps) to still be running while the
	// assertions below execute; Close reaps it at test end.
	busy, err := e.Submit(Request{Prompt: []int{1}, MaxNew: 4000})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the busy request to be admitted (leaving the queue).
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Active == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Submit(Request{Prompt: []int{2}, MaxNew: 5}); err != nil {
		t.Fatalf("queueing one request should succeed: %v", err)
	}
	if _, err := e.Submit(Request{Prompt: []int{3}, MaxNew: 5}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	_ = busy
}

// TestEngineDeadline pins both deadline paths: a request expired before
// admission fails outright, and one expiring mid-generation retires with its
// partial output and ErrDeadline.
func TestEngineDeadline(t *testing.T) {
	m := testModel(5)
	e := NewEngine(m, Config{MaxBatch: 2, MaxSeq: 4096})
	defer e.Close()

	res := e.Do(Request{Prompt: []int{1}, MaxNew: 5, Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(res.Err, ErrDeadline) {
		t.Fatalf("pre-expired request returned %v, want ErrDeadline", res.Err)
	}
	if len(res.Tokens) != 0 {
		t.Fatalf("pre-expired request produced %d tokens", len(res.Tokens))
	}

	res = e.Do(Request{Prompt: []int{1}, MaxNew: 4000, Deadline: time.Now().Add(5 * time.Millisecond)})
	if !errors.Is(res.Err, ErrDeadline) {
		t.Fatalf("mid-flight expiry returned %v, want ErrDeadline", res.Err)
	}
	if len(res.Tokens) == 0 || len(res.Tokens) >= 4000 {
		t.Fatalf("expired generation returned %d tokens, want partial output", len(res.Tokens))
	}
	if e.Stats().Expired == 0 {
		t.Fatal("stats never counted an expired request")
	}
}

// TestEngineRejects pins the validation errors.
func TestEngineRejects(t *testing.T) {
	m := testModel(6)
	e := NewEngine(m, Config{MaxBatch: 1, MaxSeq: 8})
	defer e.Close()

	if res := e.Do(Request{Prompt: []int{1}, MaxNew: 0}); res.Err == nil {
		t.Fatal("MaxNew=0 accepted")
	}
	if res := e.Do(Request{Prompt: []int{1}, MaxNew: 8}); !errors.Is(res.Err, ErrTooLong) {
		t.Fatalf("MaxNew=MaxSeq returned %v, want ErrTooLong", res.Err)
	}
	long := make([]int, 12)
	if res := e.Do(Request{Prompt: long, Cont: long}); !errors.Is(res.Err, ErrTooLong) {
		t.Fatalf("oversized scoring request returned %v, want ErrTooLong", res.Err)
	}
}

// TestEngineClose pins shutdown: queued work fails with ErrClosed and later
// submissions are rejected without blocking.
func TestEngineClose(t *testing.T) {
	m := testModel(7)
	e := NewEngine(m, Config{MaxBatch: 1, MaxSeq: 256, Queue: 4})
	ch, err := e.Submit(Request{Prompt: []int{1}, MaxNew: 200})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if res := <-ch; !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("in-flight request got %v, want ErrClosed", res.Err)
	}
	if _, err := e.Submit(Request{Prompt: []int{1}, MaxNew: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit got %v, want ErrClosed", err)
	}
}

// TestEngineEvents checks the telemetry stream carries completions with a
// coherent snapshot.
func TestEngineEvents(t *testing.T) {
	m := testModel(8)
	e := NewEngine(m, Config{MaxBatch: 2, MaxSeq: 64})
	defer e.Close()

	if res := e.Do(Request{Prompt: []int{2, 3}, MaxNew: 4}); res.Err != nil {
		t.Fatal(res.Err)
	}
	select {
	case ev := <-e.Events():
		if ev.Kind != EventCompleted {
			t.Fatalf("event kind %v, want EventCompleted", ev.Kind)
		}
		if ev.Tokens != 4 {
			t.Fatalf("event reports %d tokens, want 4", ev.Tokens)
		}
		if ev.Duration <= 0 || ev.Stats.Completed < 1 || ev.Stats.P50 <= 0 {
			t.Fatalf("incoherent event snapshot: %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no event delivered")
	}
}
