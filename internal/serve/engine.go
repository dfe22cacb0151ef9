// Package serve is photon's inference side: a KV-cached continuous-batching
// engine over nn.Model's incremental decode path, plus a link-protocol
// server and client so evaluation can run against the real serving stack
// instead of in-process model calls.
//
// The engine owns the model exclusively. One scheduler goroutine runs a
// decode loop that admits queued requests into free batch slots, prefills
// their prompts in the same forward that decodes the running sequences
// (mixed ragged batches are what nn.Decoder.Decode is built for), samples one
// token per running sequence per step, and retires sequences the moment they
// finish — a new request takes over the freed slot on the very next step
// rather than waiting for the whole batch to drain. That is the continuous
// batching of Orca/vLLM, scaled down to this codebase's single-process
// model.
//
// A step uses every core: the scheduler deals the running sequences into
// contiguous shards, one per core, and each shard runs the whole step body —
// forward, logit rows, sample or score — on its own nn.Decoder over the one
// set of weights. The scheduler goroutine runs the first shard; engine-owned
// helper goroutines, one per further core, run the others. A helper spins
// briefly between steps before it parks (see latch), so back-to-back steps
// hand off without a futex wake. Admission, counters, retirement and result
// delivery stay on the scheduler goroutine, in batch order. On one core there
// are no helpers and a step is one shard.
//
// A retired slot keeps its prefix: the free pool remembers which tokens each
// KV cache holds, and a scoring request is bound to the free slot sharing the
// longest leading run with it, truncates the cache to that run and prefills
// only the rest. Evaluation traffic (one request per candidate over the same
// demos‖prompt) mostly repeats the previous request, so most of its prefill
// is already in a slot. Generation never consumes a prefix — see admit.
package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/nn"
	"photon/internal/obsv"
	"photon/internal/tensor"
)

// Engine errors.
var (
	// ErrQueueFull reports a Submit rejected because the admission queue is
	// at capacity (backpressure; the caller should retry or shed load).
	ErrQueueFull = errors.New("serve: queue full")
	// ErrClosed reports a request submitted to (or stranded in) a closed
	// engine.
	ErrClosed = errors.New("serve: engine closed")
	// ErrDeadline reports a request whose deadline expired before it
	// finished; generation results carry the tokens produced so far.
	ErrDeadline = errors.New("serve: deadline exceeded")
	// ErrTooLong reports a request that cannot fit the per-sequence cache.
	ErrTooLong = errors.New("serve: request exceeds max sequence length")
	// ErrBadToken reports a request carrying a token id outside the model's
	// vocabulary.
	ErrBadToken = errors.New("serve: token id outside the vocabulary")
)

// Config sizes the engine.
type Config struct {
	// MaxBatch is the maximum number of sequences decoded concurrently
	// (default 8). Also the size of the preallocated KV-cache slot pool.
	MaxBatch int
	// MaxSeq is the per-sequence cache capacity in tokens: prompt plus
	// generated tokens, or the full scored sequence (default 4× the
	// model's trained SeqLen — ALiBi extrapolates past training length).
	MaxSeq int
	// Queue is the admission queue depth (default 64). Submissions beyond
	// it fail fast with ErrQueueFull.
	Queue int
}

func (c Config) withDefaults(m *nn.Model) Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxSeq <= 0 {
		c.MaxSeq = 4 * m.Cfg.SeqLen
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	return c
}

// Request is one unit of serving work. Leaving Cont empty makes it a
// generation request (continue Prompt by MaxNew sampled tokens); a non-empty
// Cont makes it a scoring request for log p(Cont | Prompt), and the sampling
// fields are ignored.
type Request struct {
	Prompt []int
	MaxNew int
	Opts   nn.SampleOpts
	// Seed seeds the request's private sampling stream, so a request
	// replayed with the same seed reproduces its tokens regardless of what
	// else is in the batch.
	Seed int64
	// Cont, when non-empty, switches the request to scoring mode.
	Cont []int
	// Deadline, when non-zero, bounds the request's total time in the
	// engine. An expired generation retires with its partial output and
	// ErrDeadline.
	Deadline time.Time
}

// Result is a finished request.
type Result struct {
	// Tokens holds the sampled continuation for generation requests.
	Tokens []int
	// LogProb holds Σ log p(cont_t | prompt, cont_<t) for scoring requests.
	LogProb float64
	Err     error
	// Queued is the time spent waiting for a batch slot; Duration the total
	// submit-to-completion time.
	Queued   time.Duration
	Duration time.Duration
}

// Stats is a point-in-time engine snapshot.
type Stats struct {
	// QueueDepth is the number of requests waiting for a slot; Active the
	// number of sequences in the current decode batch.
	QueueDepth int
	Active     int
	// Completed and Expired count retired requests.
	Completed int64
	Expired   int64
	// TokensOut counts sampled tokens across all generation requests.
	TokensOut int64
	// TokensPerSec is TokensOut over the engine's uptime.
	TokensPerSec float64
	// PrefillTokens counts prompt and scored-sequence tokens fed through the
	// model; ReusedTokens those a retained KV prefix made unnecessary. Their
	// sum is the tokens retired requests brought in, and
	// ReusedTokens/(PrefillTokens+ReusedTokens) the prefix-reuse share.
	PrefillTokens int64
	ReusedTokens  int64
	// P50 and P99 are request-latency percentiles over a sliding window of
	// recent completions.
	P50, P99 time.Duration
}

// latWindow bounds the latency ring the percentiles are computed over.
const latWindow = obsv.RingSize

type pending struct {
	req      Request
	res      chan Result
	enqueued time.Time
}

// kvSlot is one preallocated KV cache of the pool, with what it remembers
// while free: held[i] is the token whose K/V rows sit at position i of st
// (empty when the slot holds nothing reusable), retired orders slots by when
// they came back (0 = never used).
type kvSlot struct {
	st      *nn.DecodeState
	held    []int // capacity MaxSeq, never grows
	retired uint64
}

// seqSlot is one active sequence in the batch.
type seqSlot struct {
	p       *pending
	kv      *kvSlot
	rng     *rand.Rand
	sampler nn.Sampler
	out     []int
	tok     [1]int // next token to feed in steady-state decode
	started time.Time

	score     bool
	seq       []int   // scoring: prompt‖cont
	promptLen int     // scoring
	reused    int     // scoring: leading tokens of seq already in kv
	lp        float64 // scoring: the result, set by the step that feeds seq
	prompt    []int   // generation: truncated prompt (or the seed token)
}

// shard is one core's part of a step: a contiguous run of the batch and the
// decoder and scratch it is stepped with (reset to [:0] every step). Shard 0
// runs on the scheduler goroutine; each other shard has a helper goroutine,
// handed its run by work and reporting back on done.
type shard struct {
	seqs   []*seqSlot // this step's sequences; nil tells a helper to exit
	dec    *nn.Decoder
	states []*nn.DecodeState
	toks   [][]int
	rows   []int

	work, done latch
}

// spinFor is how long a waiting latch keeps checking before it parks: longer
// than the scheduler's work between two steps plus a client's round trip for
// the next request, so a busy engine seldom parks a helper, and short enough
// that an idle one costs next to nothing.
const spinFor = 400 * time.Microsecond

// latch passes a signal from one goroutine to another. The waiter re-checks
// for spinFor, yielding the processor on every check so the connection
// goroutines keep running, and only then parks on a channel: between busy
// cores a hand-off is a cache-line transfer, not a futex wake. Parking at
// once gave up about a third of what sharding gains, at two sequences in
// flight and at eight. One goroutine signals and one waits, alternately.
type latch struct {
	set, parked atomic.Bool
	wake        chan struct{} // capacity 1
}

// signal wakes the waiter, or lets its next wait return at once.
//
//photon:hotpath
func (l *latch) signal() {
	l.set.Store(true)
	if l.parked.CompareAndSwap(true, false) {
		l.wake <- struct{}{}
	}
}

// wait returns once the signal is set and clears it.
//
//photon:hotpath
func (l *latch) wait() {
	for start := time.Now(); time.Since(start) < spinFor; runtime.Gosched() {
		if l.set.Load() {
			l.set.Store(false)
			return
		}
	}
	l.parked.Store(true)
	// Reclaiming parked means signal has not seen it and will not send;
	// losing it means signal has, and a wake is on its way.
	if !l.set.Load() || !l.parked.CompareAndSwap(true, false) {
		<-l.wake
	}
	l.set.Store(false)
}

// Engine is the continuous-batching scheduler. Construct with NewEngine,
// submit with Submit/Do, stop with Close. The model passed to NewEngine must
// not be used elsewhere until Close returns: the scheduler goroutine owns it.
type Engine struct {
	m   *nn.Model
	cfg Config
	now func() time.Time // the clock of the deadline checks

	reqs chan *pending
	quit chan struct{}
	done chan struct{}

	mu        sync.Mutex
	started   time.Time
	completed int64
	expired   int64
	tokensOut int64
	prefill   int64
	reused    int64
	active    int
	lat       obsv.Ring // request latencies
	closed    bool

	// owned by the scheduler goroutine: the retire stamp and the step's
	// per-core shards (shards[1:] each run on a helper goroutine)
	retireSeq uint64 // source of kvSlot.retired
	shards    []*shard

	// process-wide scrape instruments (obsv.Default), cached at construction
	// so the hot path never touches the registry lock. All updates are
	// single atomic ops — the decode loop stays allocation-free.
	insQueue     *obsv.Gauge
	insInflight  *obsv.Gauge
	insLatency   *obsv.Histogram
	insCompleted *obsv.Counter
	insExpired   *obsv.Counter
	insTokens    *obsv.Counter
	insPrefill   *obsv.Counter
	insReused    *obsv.Counter
}

// NewEngine starts an engine over m, with one helper goroutine per core
// beyond the first (at most MaxBatch-1). The engine takes exclusive ownership
// of the model until Close.
func NewEngine(m *nn.Model, cfg Config) *Engine {
	return newEngine(m, cfg, time.Now)
}

// newEngine is NewEngine with the clock its deadline checks read.
func newEngine(m *nn.Model, cfg Config, now func() time.Time) *Engine {
	cfg = cfg.withDefaults(m)
	e := &Engine{
		m:       m,
		cfg:     cfg,
		now:     now,
		reqs:    make(chan *pending, cfg.Queue),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		started: time.Now(),

		insQueue:     obsv.Default.Gauge("photon_serve_queue_depth", "Requests waiting in the admission queue."),
		insInflight:  obsv.Default.Gauge("photon_serve_inflight_sequences", "Sequences currently decoding in the batch."),
		insLatency:   obsv.Default.Histogram("photon_serve_request_seconds", "End-to-end request latency (queue + decode).", nil),
		insCompleted: obsv.Default.Counter("photon_serve_completed_total", "Requests completed successfully."),
		insExpired:   obsv.Default.Counter("photon_serve_expired_total", "Requests expired at their deadline."),
		insTokens:    obsv.Default.Counter("photon_serve_tokens_total", "Tokens sampled across all requests."),
		insPrefill:   obsv.Default.Counter("photon_serve_prefill_tokens_total", "Prompt and scored-sequence tokens fed through the model."),
		insReused:    obsv.Default.Counter("photon_serve_prefix_reused_tokens_total", "Leading tokens served from a retained KV prefix instead of being fed."),
	}
	for i := 0; i < min(runtime.GOMAXPROCS(0), cfg.MaxBatch); i++ {
		sh := &shard{dec: m.NewDecoder()}
		sh.work.wake, sh.done.wake = make(chan struct{}, 1), make(chan struct{}, 1)
		e.shards = append(e.shards, sh)
		if i > 0 {
			go helper(sh)
		}
	}
	go e.loop()
	return e
}

// ResolvedConfig returns the engine's configuration with defaults applied.
func (e *Engine) ResolvedConfig() Config { return e.cfg }

// Submit enqueues a request and returns the channel its Result will arrive
// on. It fails fast with ErrQueueFull or ErrClosed instead of blocking the
// caller.
func (e *Engine) Submit(req Request) (<-chan Result, error) {
	p := &pending{req: req, res: make(chan Result, 1), enqueued: time.Now()}
	// The closed check and the enqueue share the mutex with Close, so a
	// request either observes the closed flag or lands in the queue before
	// Close's shutdown drain — never in between, where it would strand.
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	select {
	case e.reqs <- p:
		e.insQueue.Set(float64(len(e.reqs)))
		return p.res, nil
	default:
		return nil, ErrQueueFull
	}
}

// Do submits and blocks for the result.
func (e *Engine) Do(req Request) Result {
	ch, err := e.Submit(req)
	if err != nil {
		return Result{Err: err}
	}
	return <-ch
}

// Score returns log p(cont | prompt) in nats through the serving path. It
// satisfies eval's Scorer shape, so a local engine can stand in for a remote
// client when wiring evaluation through the server stack.
func (e *Engine) Score(prompt, cont []int) (float64, error) {
	res := e.Do(Request{Prompt: prompt, Cont: cont})
	return res.LogProb, res.Err
}

// Close stops the scheduler, failing queued and in-flight requests with
// ErrClosed, and blocks until the loop exits (after which the model may be
// used directly again).
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.done
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.quit)
	<-e.done
}

// Stats returns a snapshot of the engine counters and latency percentiles.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Stats{
		QueueDepth:    len(e.reqs),
		Active:        e.active,
		Completed:     e.completed,
		Expired:       e.expired,
		TokensOut:     e.tokensOut,
		PrefillTokens: e.prefill,
		ReusedTokens:  e.reused,
	}
	if up := time.Since(e.started).Seconds(); up > 0 {
		s.TokensPerSec = float64(e.tokensOut) / up
	}
	s.P50, s.P99 = e.lat.Percentile(50), e.lat.Percentile(99)
	return s
}

// loop is the scheduler: admit → step → retire, forever. On the way out it
// stops the helpers, so when Close returns no engine goroutine is left.
func (e *Engine) loop() {
	defer close(e.done)
	defer func() {
		for _, sh := range e.shards[1:] {
			sh.seqs = nil
			sh.work.signal()
			sh.done.wait()
		}
	}()

	free := make([]*kvSlot, e.cfg.MaxBatch)
	for i := range free {
		free[i] = &kvSlot{st: e.m.NewDecodeState(e.cfg.MaxSeq), held: make([]int, 0, e.cfg.MaxSeq)}
	}
	var active []*seqSlot

	fail := func(p *pending, err error) {
		now := time.Now()
		p.res <- Result{Err: err, Queued: now.Sub(p.enqueued), Duration: now.Sub(p.enqueued)}
	}

	for {
		// Admit until the batch is full. Block only when idle; a running
		// batch polls so decoding never stalls on an empty queue.
		for len(active) < e.cfg.MaxBatch {
			var p *pending
			if len(active) == 0 {
				select {
				case <-e.quit:
					e.drainAndFail(active, fail)
					return
				case p = <-e.reqs:
				}
			} else {
				select {
				case p = <-e.reqs:
				default:
				}
				if p == nil {
					break
				}
			}
			if s := e.admit(p, &free, fail); s != nil {
				active = append(active, s)
			}
		}
		select {
		case <-e.quit:
			e.drainAndFail(active, fail)
			return
		default:
		}

		active = e.step(active, &free)

		e.mu.Lock()
		e.active = len(active)
		e.mu.Unlock()
		e.insInflight.Set(float64(len(active)))
		e.insQueue.Set(float64(len(e.reqs)))
	}
}

// drainAndFail rejects everything queued or in flight on shutdown.
func (e *Engine) drainAndFail(active []*seqSlot, fail func(*pending, error)) {
	for _, s := range active {
		fail(s.p, ErrClosed)
	}
	for {
		select {
		case p := <-e.reqs:
			fail(p, ErrClosed)
		default:
			return
		}
	}
}

// admit validates a request and binds it to the free KV slot whose held
// tokens share the longest prefix with it, truncating the cache to that prefix
// so only the rest is fed. Ties go to the least recently retired slot: an
// unrelated request evicts the coldest prefix, and never-used slots go first.
//
// Only K/V rows are cached, not hidden states, so the row predicting cont[0]
// must be computed in this request's forward: a scoring request reuses at most
// promptLen-1 tokens. A generation request reuses none and leaves the slot
// holding nothing, because continuing a truncated cache matches a fresh
// prefill to float tolerance (the kernels pair rows differently), which is
// inside scoring's 1e-4 contract but not generation's token-exact one.
//
// Returns nil when the request was rejected (its result is already delivered).
func (e *Engine) admit(p *pending, free *[]*kvSlot, fail func(*pending, error)) *seqSlot {
	req := &p.req
	if !req.Deadline.IsZero() && e.now().After(req.Deadline) {
		e.retireCounters(0, true, 0, 0)
		fail(p, ErrDeadline)
		return nil
	}
	for _, toks := range [2][]int{req.Prompt, req.Cont} {
		for _, t := range toks {
			if t < 0 || t >= e.m.Cfg.VocabSize {
				fail(p, fmt.Errorf("%w: id %d, vocabulary %d", ErrBadToken, t, e.m.Cfg.VocabSize))
				return nil
			}
		}
	}
	s := &seqSlot{p: p, started: time.Now()}
	if len(req.Cont) > 0 {
		s.score = true
		s.promptLen = len(req.Prompt)
		if s.promptLen == 0 {
			// Scoring needs at least one conditioning token; reuse the
			// empty-prompt convention of Generate and seed token 0.
			s.seq = append(s.seq, 0)
			s.promptLen = 1
		} else {
			s.seq = append(s.seq, req.Prompt...)
		}
		s.seq = append(s.seq, req.Cont...)
		// The last token is never fed: its logits would predict beyond the
		// continuation.
		if len(s.seq)-1 > e.cfg.MaxSeq {
			fail(p, fmt.Errorf("%w: %d tokens > %d", ErrTooLong, len(s.seq), e.cfg.MaxSeq))
			return nil
		}
	} else {
		if req.MaxNew <= 0 {
			fail(p, fmt.Errorf("serve: MaxNew must be positive, got %d", req.MaxNew))
			return nil
		}
		if req.MaxNew >= e.cfg.MaxSeq {
			fail(p, fmt.Errorf("%w: MaxNew %d with MaxSeq %d leaves no prompt room", ErrTooLong, req.MaxNew, e.cfg.MaxSeq))
			return nil
		}
		prompt := req.Prompt
		// Mirror Model.GenerateOpts: truncate to the trained context, then
		// clip to the cache budget left after MaxNew tokens.
		if len(prompt) > e.m.Cfg.SeqLen {
			prompt = prompt[len(prompt)-e.m.Cfg.SeqLen:]
		}
		if keep := e.cfg.MaxSeq - req.MaxNew; len(prompt) > keep {
			prompt = prompt[len(prompt)-keep:]
		}
		if len(prompt) == 0 {
			s.prompt = []int{0} // seed token, not part of the output
		} else {
			s.prompt = append(s.prompt, prompt...)
		}
		s.rng = rand.New(rand.NewSource(req.Seed))
		s.out = make([]int, 0, req.MaxNew)
	}
	limit := 0
	if s.score {
		limit = s.promptLen - 1
	}
	best := 0
	for i, kv := range *free {
		n := commonPrefix(kv.held, s.seq, limit)
		if n > s.reused || n == s.reused && kv.retired < (*free)[best].retired {
			best, s.reused = i, n
		}
	}
	kv := (*free)[best]
	last := len(*free) - 1
	(*free)[best] = (*free)[last]
	*free = (*free)[:last]
	kv.st.Truncate(s.reused)
	// A score is fed whole in one step, so what the slot will hold at retire
	// is known now; len(seq)-1 ≤ MaxSeq was checked above, held never grows.
	kv.held = kv.held[:s.reused]
	if s.score {
		kv.held = append(kv.held, s.seq[s.reused:len(s.seq)-1]...)
	}
	s.kv = kv
	return s
}

// commonPrefix returns how many leading tokens a and b share, up to limit.
//
//photon:hotpath
func commonPrefix(a, b []int, limit int) int {
	limit = min(limit, len(a), len(b))
	n := 0
	for n < limit && a[n] == b[n] {
		n++
	}
	return n
}

// step runs one mixed prefill/decode forward over the active batch, samples
// or scores, and retires finished sequences (returning their slots to free).
// The batch is split into shards (see split) that step at the same time, one
// per core; then the counters, retirements and results go out on this
// goroutine in batch order. This is the serving hot path: per-token work
// reuses shard-owned scratch, so a steady-state decode step allocates
// nothing.
//
//photon:hotpath
func (e *Engine) step(active []*seqSlot, free *[]*kvSlot) []*seqSlot {
	if len(active) == 0 {
		return active
	}
	n := e.split(active)
	for _, sh := range e.shards[1:n] {
		sh.work.signal()
	}
	e.shards[0].run()
	for _, sh := range e.shards[1:n] {
		sh.done.wait()
	}

	// Counted before any result goes out, like retire's counters.
	sampled := int64(0)
	for _, s := range active {
		if !s.score {
			sampled++
		}
	}
	e.mu.Lock()
	e.tokensOut += sampled
	e.mu.Unlock()
	e.insTokens.Add(sampled)

	now := e.now() //photon:nolint hotpath-alloc -- time.Now, or a test clock that does not allocate
	out := active[:0]
	for _, s := range active {
		switch {
		case s.score:
			e.retire(s, free, Result{LogProb: s.lp}, false, now)
		case len(s.out) >= s.p.req.MaxNew:
			e.retire(s, free, Result{Tokens: s.out}, false, now)
		case !s.p.req.Deadline.IsZero() && now.After(s.p.req.Deadline):
			e.retire(s, free, Result{Tokens: s.out, Err: ErrDeadline}, true, now)
		default:
			out = append(out, s) //photon:nolint hotpath-alloc -- filters in place over active's backing array
		}
	}
	return out
}

// split deals active into contiguous shards — one per core, at most one per
// sequence — balanced by the tokens each sequence feeds this step, and
// returns how many shards it used. The live GOMAXPROCS caps the count, so a
// step under GOMAXPROCS 1 is one shard on this goroutine.
//
//photon:hotpath
func (e *Engine) split(active []*seqSlot) int {
	n := min(len(e.shards), len(active), runtime.GOMAXPROCS(0))
	total := 0
	for _, s := range active {
		total += len(s.feed())
	}
	lo, acc := 0, 0
	for k := 0; k < n; k++ {
		hi := len(active)
		if k < n-1 {
			// At least one sequence, then more while under the shard's share
			// of the total and while the shards after it can still get one.
			hi = lo + 1
			acc += len(active[lo].feed())
			for hi < len(active)-(n-1-k) && acc < total*(k+1)/n {
				acc += len(active[hi].feed())
				hi++
			}
		}
		e.shards[k].seqs = active[lo:hi]
		lo = hi
	}
	return n
}

// helper runs sh's part of every step it is handed, until the scheduler
// hands it no sequences.
//
//photon:hotpath
func helper(sh *shard) {
	for {
		sh.work.wait()
		if sh.seqs == nil {
			sh.done.signal()
			return
		}
		sh.run()
		sh.done.signal()
	}
}

// run is the step body over the shard's sequences, on its own decoder: one
// mixed forward, exactly the logit rows each sequence needs, then a token
// sampled onto each generation and each score's log-probability summed.
//
//photon:hotpath
func (sh *shard) run() {
	sh.states = sh.states[:0]
	sh.toks = sh.toks[:0]
	for _, s := range sh.seqs {
		sh.states = append(sh.states, s.kv.st) //photon:nolint hotpath-alloc -- shard scratch, reset to [:0] per step
		sh.toks = append(sh.toks, s.feed())    //photon:nolint hotpath-alloc -- shard scratch, reset to [:0] per step
	}
	h := sh.dec.Decode(sh.states, sh.toks)

	sh.rows = sh.rows[:0]
	off := 0
	for i, s := range sh.seqs {
		n := len(sh.toks[i])
		if s.score {
			// Rows for positions promptLen-1 … len(seq)-2: each predicts
			// the next continuation token. The fed rows start at position
			// reused.
			for r := s.promptLen - 1 - s.reused; r < n; r++ {
				sh.rows = append(sh.rows, off+r) //photon:nolint hotpath-alloc -- shard scratch, reset to [:0] per step
			}
		} else {
			sh.rows = append(sh.rows, off+n-1) //photon:nolint hotpath-alloc -- shard scratch, reset to [:0] per step
		}
		off += n
	}
	logits := sh.dec.DecodeLogits(h, sh.rows)

	row := 0
	for _, s := range sh.seqs {
		if s.score {
			var lp float64
			for j := 0; j < len(s.seq)-s.promptLen; j++ {
				r := logits.Row(row)
				lp += float64(r[s.seq[s.promptLen+j]]) - tensor.LogSumExpRow(r)
				row++
			}
			s.lp = lp
			continue
		}
		next := s.sampler.Sample(s.rng, logits.Row(row), s.p.req.Opts)
		row++
		s.out = append(s.out, next) //photon:nolint hotpath-alloc -- capacity preallocated to MaxNew at admit
		s.tok[0] = next
	}
}

// feed returns the tokens this sequence contributes to the next forward: the
// scored sequence past its reused prefix (a score takes one step), or the
// whole prompt on a generation's first step and the last sampled token
// afterwards.
//
//photon:hotpath
func (s *seqSlot) feed() []int {
	switch {
	case s.score:
		return s.seq[s.reused : len(s.seq)-1]
	case s.kv.st.Len() == 0:
		return s.prompt
	}
	return s.tok[:]
}

// retire completes a sequence: slot back in the pool, counters, result out —
// in that order, so a caller holding a result finds it counted in Stats. Runs once per sequence, not per token, so it may allocate (the
// latency ring growth before the window fills).
//
//photon:allocok
func (e *Engine) retire(s *seqSlot, free *[]*kvSlot, res Result, expired bool, now time.Time) {
	res.Queued = s.started.Sub(s.p.enqueued)
	res.Duration = now.Sub(s.p.enqueued)
	e.retireSeq++
	s.kv.retired = e.retireSeq
	*free = append(*free, s.kv)

	fed := len(s.prompt)
	if s.score {
		fed = len(s.seq) - 1 - s.reused
	}
	e.retireCounters(res.Duration, expired, fed, s.reused)
	s.p.res <- res
}

// retireCounters updates completion and token counters and the latency ring.
func (e *Engine) retireCounters(d time.Duration, expired bool, fed, reused int) {
	if expired {
		e.insExpired.Inc()
	} else {
		e.insCompleted.Inc()
	}
	if d > 0 {
		e.insLatency.Observe(d.Seconds())
	}
	e.insPrefill.Add(int64(fed))
	e.insReused.Add(int64(reused))
	e.mu.Lock()
	e.prefill += int64(fed)
	e.reused += int64(reused)
	if expired {
		e.expired++
	} else {
		e.completed++
	}
	if d > 0 {
		e.lat.Add(d)
	}
	e.mu.Unlock()
}
