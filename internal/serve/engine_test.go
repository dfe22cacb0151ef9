package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photon/internal/eval"
	"photon/internal/nn"
	"photon/internal/testutil"
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
// buffered result channels, which the scheduler goroutine fills in the order
// it retires sequences, not from which observer goroutine wakes first.
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
	// request at a time (no mid-batch admission) the long one would. The
	// scheduler sends each result as it retires the sequence, so once the
	// long one's result is here every short one must already be buffered.
	got := []Result{<-results[0]}
	for i, ch := range results[1:] {
		select {
		case r := <-ch:
			got = append(got, r)
		default:
			t.Fatalf("short request %d unfinished when the long one retired: short requests should finish mid-batch before the long one", i+1)
		}
	}
	for i, r := range got {
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
	// A clock that moves one second forward at each read, so the outcome
	// does not depend on how fast this machine decodes. The engine reads it
	// at the first request's admission (base), the second's (base+1s) and
	// after each decode step (base+2s, …).
	base := time.Now()
	reads := 0
	clock := func() time.Time {
		reads++
		return base.Add(time.Duration(reads-1) * time.Second)
	}
	m := testModel(5)
	e := newEngine(m, Config{MaxBatch: 2, MaxSeq: 4096}, clock)
	defer e.Close()

	res := e.Do(Request{Prompt: []int{1}, MaxNew: 5, Deadline: base.Add(-time.Second)})
	if !errors.Is(res.Err, ErrDeadline) {
		t.Fatalf("pre-expired request returned %v, want ErrDeadline", res.Err)
	}
	if len(res.Tokens) != 0 {
		t.Fatalf("pre-expired request produced %d tokens", len(res.Tokens))
	}

	// Unexpired when admitted at base+1s, expired at the first post-step
	// check at base+2s.
	res = e.Do(Request{Prompt: []int{1}, MaxNew: 4000, Deadline: base.Add(1500 * time.Millisecond)})
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

// The retention tests below run the engine next to a twin of its model (same
// seed, same weights): the engine owns its model, the twin computes the
// in-process references while requests are in flight.

func randTokens(rng *rand.Rand, n, vocab int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(vocab)
	}
	return out
}

// twinLogProb is the in-process reference for a served score, with the
// engine's convention that an empty prompt is scored after seed token 0.
func twinLogProb(twin *nn.Model, prompt, cont []int) float64 {
	if len(prompt) == 0 {
		prompt = []int{0}
	}
	return eval.ContinuationLogProb(twin, prompt, cont)
}

// scoreChecked scores prompt‖cont through the engine, holds it to the 1e-4
// scoring contract against the twin, and returns how many tokens the request
// reused and fed.
func scoreChecked(t *testing.T, e *Engine, twin *nn.Model, prompt, cont []int) (reused, fed int64) {
	t.Helper()
	before := e.Stats()
	got, err := e.Score(prompt, cont)
	if err != nil {
		t.Fatal(err)
	}
	if want := twinLogProb(twin, prompt, cont); math.Abs(got-want) > 1e-4 {
		t.Fatalf("score(%v | %v) = %g through the engine, %g in-process", cont, prompt, got, want)
	}
	after := e.Stats()
	return after.ReusedTokens - before.ReusedTokens, after.PrefillTokens - before.PrefillTokens
}

// TestEngineRetentionSharedContext is the evaluation shape: one context, one
// request per candidate. Every request after the first feeds only the last
// context token and its candidate.
func TestEngineRetentionSharedContext(t *testing.T) {
	e, twin := NewEngine(testModel(40), Config{MaxBatch: 2, MaxSeq: 64}), testModel(40)
	defer e.Close()
	rng := rand.New(rand.NewSource(40))
	ctx := randTokens(rng, 11, twin.Cfg.VocabSize)
	total := 0
	for i := 0; i < 3; i++ {
		cont := randTokens(rng, 3, twin.Cfg.VocabSize)
		scoreChecked(t, e, twin, ctx, cont)
		total += len(ctx) + len(cont) - 1
	}
	st := e.Stats()
	if want := int64(2 * (len(ctx) - 1)); st.ReusedTokens != want {
		t.Fatalf("reused %d tokens over three candidates, want %d", st.ReusedTokens, want)
	}
	if want := int64(total) - st.ReusedTokens; st.PrefillTokens != want {
		t.Fatalf("prefilled %d tokens, want %d", st.PrefillTokens, want)
	}
}

// TestEngineRetentionInterleaved pins the longest-prefix pick: two contexts
// taking turns on two slots each keep their own slot. A LIFO pool would hand
// every request the slot the other context just left.
func TestEngineRetentionInterleaved(t *testing.T) {
	e, twin := NewEngine(testModel(41), Config{MaxBatch: 2, MaxSeq: 64}), testModel(41)
	defer e.Close()
	rng := rand.New(rand.NewSource(41))
	ctxs := [][]int{randTokens(rng, 9, twin.Cfg.VocabSize), randTokens(rng, 13, twin.Cfg.VocabSize)}
	ctxs[1][0] = (ctxs[0][0] + 1) % twin.Cfg.VocabSize // nothing in common
	for round := 0; round < 4; round++ {
		for _, ctx := range ctxs {
			reused, _ := scoreChecked(t, e, twin, ctx, randTokens(rng, 2, twin.Cfg.VocabSize))
			want := int64(len(ctx) - 1)
			if round == 0 {
				want = 0
			}
			if reused != want {
				t.Fatalf("round %d, context of %d tokens: reused %d, want %d", round, len(ctx), reused, want)
			}
		}
	}
}

// TestEngineRetentionEvictsColdest: three unrelated contexts on two slots. A
// miss takes the least recently retired slot, so the context used last
// survives and the one before it does not.
func TestEngineRetentionEvictsColdest(t *testing.T) {
	e, twin := NewEngine(testModel(42), Config{MaxBatch: 2, MaxSeq: 64}), testModel(42)
	defer e.Close()
	rng := rand.New(rand.NewSource(42))
	var ctxs [3][]int
	for i := range ctxs {
		ctxs[i] = randTokens(rng, 10, twin.Cfg.VocabSize)
		ctxs[i][0] = i // pairwise distinct from the first token on
	}
	for step, c := range []struct {
		ctx int
		hit bool
	}{
		{0, false}, {1, false}, // fill both slots
		{2, false}, // evicts 0, the colder one
		{1, true},  // 1 survived
		{0, false}, // 0 did not; evicts 2
		{1, true},
		{2, false}, // evicts 0
		{2, true},
	} {
		reused, _ := scoreChecked(t, e, twin, ctxs[c.ctx], randTokens(rng, 2, twin.Cfg.VocabSize))
		want := int64(0)
		if c.hit {
			want = int64(len(ctxs[c.ctx]) - 1)
		}
		if reused != want {
			t.Fatalf("step %d (context %d): reused %d, want %d", step, c.ctx, reused, want)
		}
	}
}

// TestEngineRetentionPartialPrefix: reuse stops where the request diverges
// from what the slot holds, and never reaches the row that predicts the first
// continuation token (only K/V are cached, so that row must be fed).
func TestEngineRetentionPartialPrefix(t *testing.T) {
	e, twin := NewEngine(testModel(43), Config{MaxBatch: 1, MaxSeq: 64}), testModel(43)
	defer e.Close()
	rng := rand.New(rand.NewSource(43))
	vocab := twin.Cfg.VocabSize
	ctx := randTokens(rng, 14, vocab)
	scoreChecked(t, e, twin, ctx, randTokens(rng, 3, vocab))

	const k = 6
	fork := slices.Concat(ctx[:k], []int{(ctx[k] + 1) % vocab}, randTokens(rng, 4, vocab))
	if reused, fed := scoreChecked(t, e, twin, fork, randTokens(rng, 2, vocab)); reused != k || fed != int64(len(fork)+2-1-k) {
		t.Fatalf("diverging at %d: reused %d, fed %d", k, reused, fed)
	}
	// The slot now holds fork‖…; a request that is a strict prefix of it
	// could match all of itself and is capped at promptLen-1.
	if reused, _ := scoreChecked(t, e, twin, fork[:5], fork[5:8]); reused != 4 {
		t.Fatalf("strict prefix of the held tokens: reused %d, want promptLen-1 = 4", reused)
	}
}

// TestEngineRetentionShortPrompts: an empty prompt (scored after seed token 0)
// and a one-token prompt have no reusable prefix, however often they repeat.
func TestEngineRetentionShortPrompts(t *testing.T) {
	e, twin := NewEngine(testModel(44), Config{MaxBatch: 1, MaxSeq: 64}), testModel(44)
	defer e.Close()
	cont := []int{5, 9, 2}
	for _, prompt := range [][]int{nil, nil, {0}, {7}, {7}} {
		if reused, fed := scoreChecked(t, e, twin, prompt, cont); reused != 0 || fed != int64(len(cont)) {
			t.Fatalf("prompt %v: reused %d, fed %d, want 0 and %d", prompt, reused, fed, len(cont))
		}
	}
}

// TestEngineRetentionGenerationExcluded: generation keeps its token-exact
// contract on a slot that just served a score over the same tokens, and
// leaves the slot holding nothing for the score that follows.
func TestEngineRetentionGenerationExcluded(t *testing.T) {
	e, twin := NewEngine(testModel(45), Config{MaxBatch: 1, MaxSeq: 64}), testModel(45)
	defer e.Close()
	rng := rand.New(rand.NewSource(45))
	ctx, cont := randTokens(rng, 10, twin.Cfg.VocabSize), randTokens(rng, 3, twin.Cfg.VocabSize)
	opts := nn.SampleOpts{Temperature: 0.8, TopK: 12}

	scoreChecked(t, e, twin, ctx, cont)
	before := e.Stats()
	res := e.Do(Request{Prompt: ctx, MaxNew: 8, Opts: opts, Seed: 7})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want := twin.GenerateOpts(rand.New(rand.NewSource(7)), ctx, 8, opts)
	if !slices.Equal(res.Tokens, want) {
		t.Fatalf("generation after a score: served %v, in-process %v", res.Tokens, want)
	}
	after := e.Stats()
	if after.ReusedTokens != before.ReusedTokens || after.PrefillTokens-before.PrefillTokens != int64(len(ctx)) {
		t.Fatalf("generation reused %d and prefilled %d tokens, want 0 and %d",
			after.ReusedTokens-before.ReusedTokens, after.PrefillTokens-before.PrefillTokens, len(ctx))
	}
	if reused, _ := scoreChecked(t, e, twin, ctx, cont); reused != 0 {
		t.Fatalf("score after a generation reused %d tokens of a slot that holds nothing", reused)
	}
}

// TestEngineRetentionRandomStream holds both contracts over a seeded stream
// of mixed traffic: scores and generations over a handful of contexts, cut and
// perturbed at random so prefixes share anything from nothing to everything,
// at 1–4 requests in flight on three slots. A failure names its seed; rerun
// with -run 'TestEngineRetentionRandomStream/seed=N'.
func TestEngineRetentionRandomStream(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { randomStream(t, seed) })
	}
}

func randomStream(t *testing.T, seed int64) {
	const requests = 320
	type item struct {
		req        Request
		wantScore  float64
		wantTokens []int
	}
	twin := testModel(seed)
	vocab := twin.Cfg.VocabSize
	rng := rand.New(rand.NewSource(seed))
	var ctxs [5][]int
	for i := range ctxs {
		ctxs[i] = randTokens(rng, 4+rng.Intn(20), vocab)
	}
	items := make([]item, requests)
	for i := range items {
		ctx := ctxs[rng.Intn(len(ctxs))]
		prompt := slices.Clone(ctx[:rng.Intn(len(ctx)+1)])
		if rng.Intn(3) == 0 {
			prompt = append(prompt, randTokens(rng, 1+rng.Intn(3), vocab)...)
		}
		it := &items[i]
		if rng.Intn(4) == 0 {
			it.req = Request{Prompt: prompt, MaxNew: 1 + rng.Intn(6), Seed: rng.Int63(),
				Opts: nn.SampleOpts{Temperature: 0.8 * float64(rng.Intn(2)), TopK: 12}}
			it.wantTokens = twin.GenerateOpts(rand.New(rand.NewSource(it.req.Seed)), prompt, it.req.MaxNew, it.req.Opts)
			continue
		}
		it.req = Request{Prompt: prompt, Cont: randTokens(rng, 1+rng.Intn(4), vocab)}
		it.wantScore = twinLogProb(twin, prompt, it.req.Cont)
	}

	e := NewEngine(testModel(seed), Config{MaxBatch: 3, MaxSeq: 64})
	defer e.Close()
	for conc := 1; conc <= 4; conc++ {
		phase := items[(conc-1)*requests/4 : conc*requests/4]
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(phase) {
						return
					}
					it, res := &phase[i], e.Do(phase[i].req)
					switch {
					case res.Err != nil:
						t.Errorf("conc %d request %d: %v", conc, i, res.Err)
					case len(it.req.Cont) == 0 && !slices.Equal(res.Tokens, it.wantTokens):
						t.Errorf("conc %d request %d: generated %v, in-process %v", conc, i, res.Tokens, it.wantTokens)
					case len(it.req.Cont) > 0 && math.Abs(res.LogProb-it.wantScore) > 1e-4:
						t.Errorf("conc %d request %d: score %g, in-process %g", conc, i, res.LogProb, it.wantScore)
					}
				}
			}()
		}
		wg.Wait()
	}
	if st := e.Stats(); st.Completed != requests || st.ReusedTokens == 0 {
		t.Fatalf("stream completed %d of %d requests and reused %d tokens", st.Completed, requests, st.ReusedTokens)
	}
}

// TestEngineStepZeroAllocOnHits drives admit and step by hand (the engine's
// own scheduler stays parked on its empty queue, touching nothing) and pins
// the hot path: a step over a request that reuses a retained prefix allocates
// nothing, like a step over one that does not.
func TestEngineStepZeroAllocOnHits(t *testing.T) {
	m := testModel(46)
	e := NewEngine(m, Config{MaxBatch: 1, MaxSeq: 64})
	defer e.Close()
	rng := rand.New(rand.NewSource(46))
	ctx := randTokens(rng, 12, m.Cfg.VocabSize)

	const runs = 32
	fail := func(_ *pending, err error) { t.Fatal(err) }
	// One slot per measured step. Binding every free slot before stepping any
	// spreads the context over all of them (a lone request would keep hitting
	// the same one); the passes also fill the latency ring and show the decode
	// workspace the hit shape.
	free := make([]*kvSlot, runs+1)
	for i := range free {
		free[i] = &kvSlot{st: m.NewDecodeState(64), held: make([]int, 0, 64)}
	}
	admitAll := func() (batches [][]*seqSlot) {
		for len(free) > 0 {
			p := &pending{req: Request{Prompt: ctx, Cont: randTokens(rng, 2, m.Cfg.VocabSize)}, res: make(chan Result, 1), enqueued: time.Now()}
			batches = append(batches, []*seqSlot{e.admit(p, &free, fail)})
		}
		return batches
	}
	for done := 0; done < latWindow+runs; done += runs + 1 {
		for _, a := range admitAll() {
			e.step(a, &free)
		}
	}
	admitted := admitAll()
	for _, a := range admitted {
		if a[0].reused != len(ctx)-1 {
			t.Fatalf("warm slot reused %d tokens, want %d", a[0].reused, len(ctx)-1)
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		e.step(admitted[i], &free)
		i++
	}); allocs != 0 {
		t.Fatalf("step over a prefix hit allocated %v times per run, want 0", allocs)
	}
}

// TestEngineRejectsBadTokens: a token id outside the vocabulary, in a prompt
// or in a continuation, fails that request with ErrBadToken, and the engine
// goes on serving the next one.
func TestEngineRejectsBadTokens(t *testing.T) {
	m := testModel(9)
	vocab := m.Cfg.VocabSize
	e := NewEngine(m, Config{MaxBatch: 2, MaxSeq: 64})
	defer e.Close()
	for _, bad := range []Request{
		{Prompt: []int{1, vocab}, MaxNew: 3},
		{Prompt: []int{-1}, MaxNew: 3},
		{Prompt: []int{1, 2}, Cont: []int{3, vocab + 5}},
		{Prompt: []int{1, 2}, Cont: []int{-3}},
	} {
		if res := e.Do(bad); !errors.Is(res.Err, ErrBadToken) {
			t.Fatalf("request %+v returned %v, want ErrBadToken", bad, res.Err)
		}
		if res := e.Do(Request{Prompt: []int{1, 2}, MaxNew: 3}); res.Err != nil || len(res.Tokens) != 3 {
			t.Fatalf("engine after a bad request: %d tokens, err %v", len(res.Tokens), res.Err)
		}
	}
}

// withProcs runs the rest of the test at GOMAXPROCS n. The engine sizes its
// shards when it is built, so build it after this.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestEngineOneCoreHasNoHelpers: at GOMAXPROCS 1 the engine starts no helper
// and every step is one shard on the scheduler goroutine, the engine as it
// was before it sharded.
func TestEngineOneCoreHasNoHelpers(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	withProcs(t, 1)
	m := testModel(51)
	want := m.GenerateOpts(rand.New(rand.NewSource(3)), []int{4, 5}, 6, nn.SampleOpts{Temperature: 0.7, TopK: 20})
	e := NewEngine(m, Config{MaxBatch: 8, MaxSeq: 64})
	defer e.Close()
	if len(e.shards) != 1 {
		t.Fatalf("engine at GOMAXPROCS 1 built %d shards, want 1", len(e.shards))
	}
	res := e.Do(Request{Prompt: []int{4, 5}, MaxNew: 6, Seed: 3, Opts: nn.SampleOpts{Temperature: 0.7, TopK: 20}})
	if res.Err != nil || !slices.Equal(res.Tokens, want) {
		t.Fatalf("served %v (err %v), in-process %v", res.Tokens, res.Err, want)
	}
}

// TestEngineShardedStepMatchesAlone holds a two-core engine to the serving
// contract with eight mixed requests in flight, so the steps run as two
// shards on two goroutines: every generation reproduces the request served
// alone token for token and every score matches eval.ContinuationLogProb
// within 1e-4.
func TestEngineShardedStepMatchesAlone(t *testing.T) {
	withProcs(t, 2)
	const seed = 47
	twin := testModel(seed)
	vocab := twin.Cfg.VocabSize
	rng := rand.New(rand.NewSource(seed))
	type item struct {
		req        Request
		wantTokens []int
		wantScore  float64
	}
	items := make([]item, 24)
	for i := range items {
		prompt := randTokens(rng, 1+rng.Intn(14), vocab)
		if i%2 == 0 {
			req := Request{Prompt: prompt, MaxNew: 4 + rng.Intn(20), Seed: rng.Int63(),
				Opts: nn.SampleOpts{Temperature: 0.7, TopK: 20}}
			items[i] = item{req: req, wantTokens: twin.GenerateOpts(rand.New(rand.NewSource(req.Seed)), prompt, req.MaxNew, req.Opts)}
			continue
		}
		cont := randTokens(rng, 1+rng.Intn(5), vocab)
		items[i] = item{req: Request{Prompt: prompt, Cont: cont}, wantScore: twinLogProb(twin, prompt, cont)}
	}

	e := NewEngine(testModel(seed), Config{MaxBatch: 8, MaxSeq: 64, Queue: 32})
	defer e.Close()
	if len(e.shards) != 2 {
		t.Fatalf("engine at GOMAXPROCS 2 built %d shards, want 2", len(e.shards))
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(items); i = int(next.Add(1) - 1) {
				it := &items[i]
				res := e.Do(it.req)
				switch {
				case res.Err != nil:
					t.Errorf("request %d: %v", i, res.Err)
				case len(it.req.Cont) > 0:
					if math.Abs(res.LogProb-it.wantScore) > 1e-4 {
						t.Errorf("request %d: score %g, in-process %g", i, res.LogProb, it.wantScore)
					}
				case len(res.Tokens) != it.req.MaxNew || !slices.Equal(res.Tokens, it.wantTokens):
					t.Errorf("request %d: generated %v, served alone %v", i, res.Tokens, it.wantTokens)
				}
			}
		}()
	}
	wg.Wait()
}

// TestEngineShardedStepZeroAlloc drives admit and step by hand on a two-core
// engine, eight generations in the batch, and pins a warm two-shard step at
// zero allocations. testing.AllocsPerRun would pin GOMAXPROCS to 1 (one
// shard), so this reads the process's malloc count around the steps instead.
func TestEngineShardedStepZeroAlloc(t *testing.T) {
	withProcs(t, 2)
	m := testModel(48)
	e := NewEngine(m, Config{MaxBatch: 8, MaxSeq: 64})
	defer e.Close()
	rng := rand.New(rand.NewSource(48))
	prompts := make([][]int, 8)
	for i := range prompts {
		prompts[i] = randTokens(rng, 3+i, m.Cfg.VocabSize)
	}
	free := make([]*kvSlot, 8)
	for i := range free {
		free[i] = &kvSlot{st: m.NewDecodeState(64), held: make([]int, 0, 64)}
	}
	fail := func(_ *pending, err error) { t.Fatal(err) }
	const maxNew = 24
	// Each pass admits the same eight requests and steps them until they
	// retire. The first pass warms the decoders' workspaces for every shape
	// the second will see; the second's first step warms the new samplers,
	// and its last retires everything, so the steps between are measured.
	for pass := 0; pass < 2; pass++ {
		var active []*seqSlot
		for i, prompt := range prompts {
			p := &pending{req: Request{Prompt: prompt, MaxNew: maxNew, Seed: int64(i),
				Opts: nn.SampleOpts{Temperature: 0.7, TopK: 20}}, res: make(chan Result, 1), enqueued: time.Now()}
			active = append(active, e.admit(p, &free, fail))
		}
		active = e.step(active, &free)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for step := 1; step < maxNew-1; step++ {
			active = e.step(active, &free)
		}
		runtime.ReadMemStats(&after)
		if steps := uint64(maxNew - 2); pass == 1 && (after.Mallocs-before.Mallocs)/steps != 0 {
			t.Fatalf("a warm two-shard step allocates: %d mallocs over %d steps", after.Mallocs-before.Mallocs, steps)
		}
		if active = e.step(active, &free); len(active) != 0 {
			t.Fatalf("%d sequences still active after %d steps", len(active), maxNew)
		}
	}
}

// helpersParked reports whether every helper is parked waiting for work.
func (e *Engine) helpersParked() bool {
	for _, sh := range e.shards[1:] {
		if !sh.work.parked.Load() {
			return false
		}
	}
	return true
}

// TestEngineParksIdleHelpers: once the engine has nothing to do, its helpers
// stop spinning and park, so an idle server costs no CPU.
func TestEngineParksIdleHelpers(t *testing.T) {
	withProcs(t, 2)
	e := NewEngine(testModel(49), Config{MaxBatch: 4, MaxSeq: 64})
	defer e.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := e.Do(Request{Prompt: []int{1 + i}, MaxNew: 16, Seed: int64(i)}); res.Err != nil {
				t.Error(res.Err)
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for !e.helpersParked() {
		if time.Now().After(deadline) {
			t.Fatal("helpers still spinning 5s after the engine went idle")
		}
		runtime.Gosched()
	}
}

// TestEngineCloseStopsHelpers: Close leaves no engine goroutine behind,
// helpers included, whether they were parked or had just been busy.
func TestEngineCloseStopsHelpers(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	withProcs(t, 2)
	e := NewEngine(testModel(50), Config{MaxBatch: 4, MaxSeq: 64})
	chs := make([]<-chan Result, 4)
	for i := range chs {
		ch, err := e.Submit(Request{Prompt: []int{2 + i}, MaxNew: 8, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		chs[i] = ch
	}
	for _, ch := range chs {
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	e.Close()
}
