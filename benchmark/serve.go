package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/data"
	"photon/internal/eval"
	"photon/internal/link"
	"photon/internal/nn"
	"photon/internal/serve"
)

// serveWorkload is one serving workload: the system under test is a
// serve.Engine behind a serve.Server; the load is a closed loop of
// serve.Clients over link TCP loopback, because the callers photon-serve
// has (the eval harness, offline generation) wait for each reply.
type serveWorkload struct {
	name     string
	conns    int
	inflight int  // closed-loop requests in flight per connection
	icl      bool // score the eval suite with pseudo-demonstrations instead of generating
}

var serveWorkloads = []serveWorkload{
	{name: "serve-gen-2", conns: 2, inflight: 1},
	{name: "serve-gen-8", conns: 2, inflight: 4},
	{name: "serve-icl-score", conns: 1, inflight: 1, icl: true},
}

var (
	serveModel  = nn.Config{Name: "bench-serve", Blocks: 4, Dim: 64, Heads: 4, ExpRatio: 4, VocabSize: 256, SeqLen: 64, Beta1: 0.9, Beta2: 0.95}
	serveEngine = serve.Config{MaxBatch: 8, MaxSeq: 256, Queue: 64}
	genSample   = nn.SampleOpts{Temperature: 0.7, TopK: 20}
)

const (
	genMaxNew     = 48
	genPromptMin  = 8
	genPromptMax  = 16
	genPool       = 8192 // distinct generation requests; a faster machine wraps around
	genChecked    = 16   // requests compared token for token with Model.GenerateOpts
	iclShots      = 2
	iclDemoLen    = 8
	iclCorpus     = 2048
	iclInstances  = 4  // instances of each suite task per pass (160 requests a pass)
	iclChecked    = 64 // scores compared with eval.ContinuationLogProb
	iclTolerance  = 1e-4
	maxFloatSeed  = 1 << 40 // request seeds cross the wire as float64
	truthBranch   = 9
	truthSkew     = 0.9
	warmupPrompts = 4
)

// genRequest is one generated generation request.
type genRequest struct {
	prompt []int
	seed   int64
}

// serveInputs is everything a serving workload is fed, all of it derived
// from the benchmark seed.
type serveInputs struct {
	modelSeed  int64
	reqs       []genRequest // serve-gen-*
	truth      data.Source  // serve-icl-score: the distribution the suite samples
	corpusSeed int64        // serve-icl-score: the retriever's corpus
	suiteSeed  int64
}

func makeServeInputs(w serveWorkload, seed int64) serveInputs {
	in := serveInputs{modelSeed: subSeed(seed, "serve-model")}
	if w.icl {
		in.truth = data.NewMarkovSource("truth", serveModel.VocabSize, truthBranch, truthSkew, uint64(subSeed(seed, "icl-truth")))
		in.corpusSeed = subSeed(seed, "icl-retriever")
		in.suiteSeed = subSeed(seed, "icl-suite")
		return in
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "gen-requests")))
	in.reqs = make([]genRequest, genPool)
	for i := range in.reqs {
		p := make([]int, genPromptMin+rng.Intn(genPromptMax-genPromptMin+1))
		for j := range p {
			p[j] = rng.Intn(serveModel.VocabSize)
		}
		in.reqs[i] = genRequest{prompt: p, seed: rng.Int63n(maxFloatSeed)}
	}
	return in
}

func (in serveInputs) newModel() *nn.Model {
	return nn.NewModel(serveModel, rand.New(rand.NewSource(in.modelSeed)))
}

// serveStack is one running server with its connected clients.
type serveStack struct {
	eng     *serve.Engine
	conns   []*link.Conn
	clients []*serve.Client
	setup   time.Duration // start → first reply on every connection
	stop    func()
}

// startServe brings up engine, server and clients and sends one warm-up
// request per in-flight slot; the warm-ups belong to set-up, not to the
// timed samples.
func startServe(ctx context.Context, w serveWorkload, in serveInputs) (*serveStack, error) {
	start := time.Now()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	eng := serve.NewEngine(in.newModel(), serveEngine)
	srv := serve.NewServer(eng, l)
	runCtx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Run(runCtx) // returns runCtx's error once cancelled
	}()
	st := &serveStack{eng: eng}
	st.stop = func() {
		for _, c := range st.clients {
			c.Close()
		}
		cancel()
		<-done
		eng.Close()
		l.Close()
	}
	for i := 0; i < w.conns; i++ {
		conn, err := link.DialContext(ctx, srv.Addr())
		if err != nil {
			st.stop()
			return nil, err
		}
		st.conns = append(st.conns, conn)
		st.clients = append(st.clients, serve.NewClient(conn))
	}
	warm := make([]int, warmupPrompts)
	errs := make(chan error, w.conns*w.inflight)
	for _, c := range st.clients {
		for s := 0; s < w.inflight; s++ {
			go func(c *serve.Client) {
				var err error
				if w.icl {
					_, err = c.Score(warm, warm[:1])
				} else {
					_, err = c.Generate(warm, genMaxNew, serve.GenOpts{Sample: genSample})
				}
				errs <- err
			}(c)
		}
	}
	for i := 0; i < w.conns*w.inflight; i++ {
		if err := <-errs; err != nil {
			st.stop()
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
	}
	st.setup = time.Since(start)
	return st, nil
}

// wireBytes sums what the stack's client connections sent and received.
func (st *serveStack) wireBytes() int64 {
	var n int64
	for _, c := range st.conns {
		s := c.Stats()
		n += s.SentBytes + s.RecvBytes
	}
	return n
}

// serveRun is what the timed closed loop observed.
type serveRun struct {
	latMs    []float64
	done     []completion
	failed   int
	span     time.Duration
	wire     int64
	genReply map[int][]int // first genChecked timed replies by request index
	icl      *iclScorer
}

// completion is one successful request: when it finished, in seconds since
// the loop started, and how many tokens it generated or scored.
type completion struct {
	at     float64
	tokens int
}

// tokensPerSecond is the median, over the window's whole seconds, of the
// tokens completed in that second. The machines this runs on stall for a
// second or two now and then; the mean rate moves with every stall, the
// median second does not (a stall still shows in the tail percentile of
// request_ms). Windows shorter than three seconds report the mean.
func tokensPerSecond(done []completion, span time.Duration) float64 {
	total := 0
	perSecond := make([]float64, int(span.Seconds()))
	for _, c := range done {
		total += c.tokens
		if i := int(c.at); i < len(perSecond) {
			perSecond[i] += float64(c.tokens)
		}
	}
	if len(perSecond) < 3 {
		return float64(total) / span.Seconds()
	}
	return median(perSecond)
}

// runGenLoop drives conns×inflight closed loops for window.
func runGenLoop(st *serveStack, w serveWorkload, in serveInputs, window time.Duration) *serveRun {
	run := &serveRun{genReply: map[int][]int{}}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	wire0 := st.wireBytes()
	start := time.Now()
	deadline := start.Add(window)
	var last time.Time
	for _, c := range st.clients {
		for s := 0; s < w.inflight; s++ {
			wg.Add(1)
			go func(c *serve.Client) {
				defer wg.Done()
				var lat []float64
				var done []completion
				failed := 0
				for time.Now().Before(deadline) {
					i := int(next.Add(1) - 1)
					req := in.reqs[i%len(in.reqs)]
					t0 := time.Now()
					out, err := c.Generate(req.prompt, genMaxNew, serve.GenOpts{Sample: genSample, Seed: req.seed})
					lat = append(lat, ms(time.Since(t0)))
					if err != nil || len(out) != genMaxNew {
						failed++
						continue
					}
					done = append(done, completion{time.Since(start).Seconds(), len(out)})
					if i < genChecked {
						mu.Lock()
						run.genReply[i] = out
						mu.Unlock()
					}
				}
				end := time.Now()
				mu.Lock()
				run.latMs = append(run.latMs, lat...)
				run.done = append(run.done, done...)
				run.failed += failed
				if end.After(last) {
					last = end
				}
				mu.Unlock()
			}(c)
		}
	}
	wg.Wait()
	run.span = last.Sub(start)
	run.wire = st.wireBytes() - wire0
	return run
}

var errWindowOver = errors.New("benchmark: measuring window is over")

// scored is one score request as the server saw it, kept for the output
// check and the replay.
type scored struct {
	ctx, cont []int
	lp        float64
}

// iclScorer decorates the serve.Client the ICL scorer talks to: it times
// each request, counts tokens, measures how much of each request repeats
// the one before it, and ends the suite when the window is over.
type iclScorer struct {
	inner    eval.Scorer
	start    time.Time
	deadline time.Time

	latMs      []float64
	done       []completion
	ctxTokens  int
	contTokens int
	shared     int // tokens that repeat the previous request's leading tokens
	failed     int
	requests   []scored
}

func (s *iclScorer) Score(ctx, cont []int) (float64, error) {
	if !time.Now().Before(s.deadline) {
		return 0, errWindowOver
	}
	t0 := time.Now()
	lp, err := s.inner.Score(ctx, cont)
	s.latMs = append(s.latMs, ms(time.Since(t0)))
	if err != nil {
		s.failed++
		return 0, err
	}
	s.done = append(s.done, completion{time.Since(s.start).Seconds(), len(ctx) + len(cont)})
	s.ctxTokens += len(ctx)
	s.contTokens += len(cont)
	// ICLScorer reuses its context buffer, so keep a copy.
	seq := append(append(make([]int, 0, len(ctx)+len(cont)), ctx...), cont...)
	if len(s.requests) > 0 {
		prev := s.requests[len(s.requests)-1]
		prevSeq := prev.ctx[:len(prev.ctx)+len(prev.cont)] // ctx and cont share one backing array
		n := 0
		for n < len(seq) && n < len(prevSeq) && seq[n] == prevSeq[n] {
			n++
		}
		s.shared += n
	}
	s.requests = append(s.requests, scored{ctx: seq[:len(ctx)], cont: seq[len(ctx):], lp: lp})
	return lp, nil
}

// runICLLoop runs the eval suite through the server until the window is
// over. A whole suite (4800 requests) does not fit the window and its tasks
// differ in cost, so a faster system would otherwise be measured on a
// different mix of tasks; each pass therefore takes iclInstances instances of
// every task (eval.RunSuiteWith's own loop, with shorter tasks), on its own
// suite seed, and the mix stays the same however many passes fit.
func runICLLoop(st *serveStack, in serveInputs, r *eval.Retriever, window time.Duration) (*serveRun, error) {
	sc := &iclScorer{inner: st.clients[0]}
	icl := &eval.ICLScorer{Inner: sc, R: r, Shots: iclShots, DemoLen: iclDemoLen}
	wire0 := st.wireBytes()
	start := time.Now()
	sc.start, sc.deadline = start, start.Add(window)
suite:
	for pass := int64(0); ; pass++ {
		for _, task := range eval.Suite() {
			task.Instances = iclInstances
			_, err := task.EvaluateWith(icl, in.truth, in.suiteSeed+pass)
			if errors.Is(err, errWindowOver) {
				break suite
			}
			if err != nil {
				return nil, fmt.Errorf("serve-icl-score: task %s: %w", task.Name, err)
			}
		}
	}
	return &serveRun{
		latMs:  sc.latMs,
		done:   sc.done,
		failed: sc.failed,
		span:   time.Since(start),
		wire:   st.wireBytes() - wire0,
		icl:    sc,
	}, nil
}

// measureServe measures one serving workload end to end and, on a traced
// run, replays it layer by layer.
func measureServe(ctx context.Context, w serveWorkload, e env) (*result, error) {
	in := makeServeInputs(w, e.seed)
	res := newResult(w.name)

	// Set-up is sampled several times: the extra stacks are stopped once
	// they have answered, the last one goes on to be measured.
	var setups []float64
	var retriever *eval.Retriever
	setUp := func() (*serveStack, error) {
		t0 := time.Now()
		if w.icl {
			retriever = eval.NewRetriever(in.truth, iclCorpus, in.corpusSeed)
		}
		inputs := time.Since(t0)
		st, err := startServe(ctx, w, in)
		if err == nil {
			setups = append(setups, (inputs + st.setup).Seconds())
		}
		return st, err
	}
	for e.moreSetups(setups) {
		st, err := setUp()
		if err != nil {
			return nil, err
		}
		st.stop()
	}
	st, err := setUp()
	if err != nil {
		return nil, err
	}
	defer st.stop()

	var run *serveRun
	if w.icl {
		if run, err = runICLLoop(st, in, retriever, e.window()); err != nil {
			return nil, err
		}
	} else {
		run = runGenLoop(st, w, in, e.window())
	}
	if len(run.latMs) == run.failed || run.span <= 0 {
		res.fail("no request completed inside the measured window")
		return res, nil
	}
	lat := summarize(run.latMs)
	res.attempted, res.failed = len(run.latMs), run.failed
	res.e2e["setup_s"] = median(setups)
	res.e2e["op_ms"] = lat.Median
	res.e2e["tokens_per_s"] = tokensPerSecond(run.done, run.span)
	res.e2e["wire_bytes_per_op"] = float64(run.wire) / float64(len(run.latMs))

	// Output checks, against a model built from the same seed.
	ref := in.newModel()
	if w.icl {
		for i, s := range run.icl.requests[:min(iclChecked, len(run.icl.requests))] {
			want := eval.ContinuationLogProb(ref, s.ctx, s.cont)
			if math.Abs(s.lp-want) > iclTolerance {
				res.fail(fmt.Sprintf("score %d: served %.6f, eval.ContinuationLogProb %.6f", i, s.lp, want))
				break
			}
		}
		res.note("scores_per_s", float64(len(run.latMs)-run.failed)/run.span.Seconds(), "1/s")
	} else {
		// A request served alone reproduces Model.GenerateOpts token for
		// token; that is the engine's contract and the check. Inside a batch
		// the kernels may sum in another order, and a near-tie in the
		// sampler then flips a token now and then (about one reply in 600
		// here), so the timed replies are held to their length only and
		// their exact share is printed.
		batchedExact, batchedSeen := 0, 0
		for i, req := range in.reqs[:genChecked] {
			want := ref.GenerateOpts(rand.New(rand.NewSource(req.seed)), req.prompt, genMaxNew, genSample)
			got, err := st.clients[0].Generate(req.prompt, genMaxNew, serve.GenOpts{Sample: genSample, Seed: req.seed})
			if err != nil || !slices.Equal(got, want) {
				res.fail(fmt.Sprintf("request %d served alone: tokens differ from Model.GenerateOpts (err %v)", i, err))
				break
			}
			if batched, ok := run.genReply[i]; ok {
				batchedSeen++
				if slices.Equal(batched, want) {
					batchedExact++
				}
			}
		}
		if batchedSeen > 0 {
			res.note("batched_exact_share", float64(batchedExact)/float64(batchedSeen), "ratio of the first 16 timed replies")
		}
		res.note("gen_tokens_per_s", res.e2e["tokens_per_s"], "tokens/s")
	}
	if run.failed > 0 {
		res.fail(fmt.Sprintf("%d of %d requests failed", run.failed, len(run.latMs)))
	}
	total := 0
	for _, c := range run.done {
		total += c.tokens
	}
	res.note("tokens_per_s.mean", float64(total)/run.span.Seconds(), "tokens/s (stalls included)")
	res.note("request_ms", lat.Median, "ms")
	if lat.TailPct > 0 {
		res.note(fmt.Sprintf("request_ms.p%.1f", lat.TailPct), lat.Tail, "ms")
	}
	res.note("request_ms.samples", float64(lat.N), "count")
	if w.icl {
		sc := run.icl
		scores := float64(len(sc.latMs) - sc.failed)
		res.layer["eval.context_tokens"] = float64(sc.ctxTokens) / scores // per request
		res.layer["eval.cont_tokens"] = float64(sc.contTokens) / scores
		res.layer["eval.shared_prefix_token_share"] = float64(sc.shared) / float64(sc.ctxTokens+sc.contTokens)
	}
	if e.trace && len(res.problems) == 0 {
		replayServe(w, e, in, res, st, run, retriever)
	}
	return res, nil
}
