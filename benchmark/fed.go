package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"photon/internal/data"
	"photon/internal/fed"
	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/nn"
	"photon/internal/opt"
)

// fedWorkload is one federated workload: the system under test is the
// aggregator (fed.Serve) plus its members (fed.ServeClient), all in this
// process and all talking over link TCP loopback.
type fedWorkload struct {
	name      string
	model     nn.Config
	steps     []int // τ per member; its length is the member count
	batch     int
	codec     string
	wal       bool
	evalEvery int
	async     *fed.AsyncConfig
	// pplShare is the output check: the final validation perplexity must be
	// below this share of the freshly initialised model's.
	pplShare float64
}

const (
	fedLR       = 3e-3
	fedClip     = 1
	fedWD       = 0.01
	fedValSeqs  = 16
	fedDeadline = 60 * time.Second // round deadline; never reached in a healthy run
)

var fedWorkloads = []fedWorkload{
	{
		name:  "fed-sync-compute",
		model: nn.Config{Name: "bench-compute", Blocks: 2, Dim: 64, Heads: 4, ExpRatio: 4, VocabSize: 256, SeqLen: 128, Beta1: 0.9, Beta2: 0.95},
		steps: []int{16, 16}, batch: 2, codec: "dense", evalEvery: 8, pplShare: 0.6,
	},
	{
		name:  "fed-sync-comm",
		model: nn.Config{Name: "bench-comm", Blocks: 4, Dim: 128, Heads: 4, ExpRatio: 4, VocabSize: 2048, SeqLen: 32, Beta1: 0.9, Beta2: 0.95},
		steps: []int{1, 1}, batch: 1, codec: "topk:0.1", wal: true, evalEvery: 25, pplShare: 0.9,
	},
	{
		name:  "fed-async",
		model: nn.Config{Name: "bench-async", Blocks: 2, Dim: 64, Heads: 4, ExpRatio: 4, VocabSize: 256, SeqLen: 64, Beta1: 0.9, Beta2: 0.95},
		steps: []int{4, 4, 16}, batch: 2, codec: "q8", wal: true, evalEvery: 50, pplShare: 0.6,
		async: &fed.AsyncConfig{K: 2, Alpha: 0.5},
	},
}

// fedInputs is everything a federated workload is fed, all of it derived
// from the benchmark seed.
type fedInputs struct {
	src        data.Source
	shardBase  int64
	serverSeed int64
	val        *data.ValidationSet
}

func makeFedInputs(w fedWorkload, seed int64) fedInputs {
	src := data.C4Like(w.model.VocabSize)
	return fedInputs{
		src:        src,
		shardBase:  subSeed(seed, "fed-shards"),
		serverSeed: subSeed(seed, "fed-server"),
		val:        data.NewValidationSet(src, fedValSeqs, w.model.SeqLen, subSeed(seed, "fed-validation")),
	}
}

func (w fedWorkload) spec(member int) fed.LocalSpec {
	return fed.LocalSpec{
		Steps:     w.steps[member],
		BatchSize: w.batch,
		SeqLen:    w.model.SeqLen,
		Schedule:  opt.Constant(fedLR),
		ClipNorm:  fedClip,
	}
}

func (w fedWorkload) newMember(in fedInputs, member int, stream data.Stream, optimizer opt.Optimizer) *fed.Client {
	if stream == nil {
		stream = data.NewShard(in.src, member, in.shardBase)
	}
	if optimizer == nil {
		optimizer = opt.NewAdamW(w.model.Beta1, w.model.Beta2, fedWD)
	}
	return fed.NewClient(fmt.Sprintf("member-%d", member), w.model, stream, optimizer)
}

// tokensPerMemberRound is how many tokens one local round of a member trains.
func (w fedWorkload) tokensPerMemberRound(member int) int {
	return w.steps[member] * w.batch * w.model.SeqLen
}

// fleetRun is what one live fleet run produced, observed from outside: the
// aggregator's OnRound callbacks and the members' onRound callbacks.
type fleetRun struct {
	setup      time.Duration // fleet start → first commit
	commits    []metrics.Round
	commitAt   []time.Time
	memberAt   [][]time.Time // per member, completion time of each local round
	result     *fed.Result
	memberErrs []error
}

// runFleet starts the aggregator and its members, lets them run until
// window has passed since the first commit (window 0: stop at the first
// commit), shuts everything down and waits for every goroutine.
func runFleet(ctx context.Context, w fedWorkload, in fedInputs, walDir string, window time.Duration) (*fleetRun, error) {
	start := time.Now()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := len(w.steps)
	run := &fleetRun{memberAt: make([][]time.Time, n), memberErrs: make([]error, n)}
	var mu sync.Mutex // guards run's slices: callbacks arrive from n+1 goroutines

	var members sync.WaitGroup
	for i := 0; i < n; i++ {
		members.Add(1)
		go func(i int) {
			defer members.Done()
			client := w.newMember(in, i, nil, nil)
			conn, err := link.DialContext(ctx, l.Addr())
			if err != nil {
				run.memberErrs[i] = err
				return
			}
			defer conn.Close()
			err = fed.ServeClient(ctx, conn, client, w.spec(i), func(metrics.Round) {
				now := time.Now()
				mu.Lock()
				run.memberAt[i] = append(run.memberAt[i], now)
				mu.Unlock()
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				run.memberErrs[i] = err
			}
		}(i)
	}

	cfg := fed.ServerConfig{
		ModelConfig:   w.model,
		Seed:          in.serverSeed,
		Rounds:        math.MaxInt32, // the window ends the run, not a round count
		ExpectClients: n,
		MinClients:    n,
		RoundDeadline: fedDeadline,
		Codec:         w.codec,
		Outer:         fed.FedAvg{},
		Validation:    in.val,
		EvalEvery:     w.evalEvery,
		WALDir:        walDir,
		Async:         w.async,
		OnRound: func(r metrics.Round) {
			now := time.Now()
			mu.Lock()
			run.commits = append(run.commits, r)
			run.commitAt = append(run.commitAt, now)
			first := run.commitAt[0]
			mu.Unlock()
			if now.Sub(first) >= window {
				cancel()
			}
		},
	}
	res, err := fed.Serve(ctx, l, cfg)
	cancel()
	members.Wait()
	if err != nil && !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("%s: aggregator: %w", w.name, err)
	}
	if len(run.commitAt) == 0 {
		return nil, fmt.Errorf("%s: no commit", w.name)
	}
	run.result = res
	run.setup = run.commitAt[0].Sub(start)
	return run, nil
}

// measureFed measures one federated workload end to end and, on a traced
// run, replays it layer by layer.
func measureFed(ctx context.Context, w fedWorkload, e env) (*result, error) {
	in := makeFedInputs(w, e.seed)
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(e.outDir, "wal-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	walDir := func(name string) string {
		if !w.wal {
			return ""
		}
		return filepath.Join(scratch, name)
	}

	// Set-up is sampled several times: the extra fleets stop at their first
	// commit, the last one goes on to be measured.
	var setups []float64
	for e.moreSetups(setups) {
		run, err := runFleet(ctx, w, in, walDir(fmt.Sprintf("setup-%d", len(setups))), 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, run.setup.Seconds())
	}
	run, err := runFleet(ctx, w, in, walDir("live"), e.window())
	if err != nil {
		return nil, err
	}
	setups = append(setups, run.setup.Seconds())

	res := fedResult(w, e, in, run)
	res.e2e["setup_s"] = median(setups)
	if e.trace && len(res.problems) == 0 {
		if err := replayFed(ctx, w, e, in, res, run, walDir("live"), walDir("replay")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// fedResult turns what a live fleet run observed into metrics and checks.
func fedResult(w fedWorkload, e env, in fedInputs, run *fleetRun) *result {
	res := newResult(w.name)

	// Timed samples start after the first commit, which belongs to set-up.
	first, last := run.commitAt[0], run.commitAt[len(run.commitAt)-1]
	span := last.Sub(first).Seconds()
	timed := run.commits[1:]
	var gaps []float64
	for i := 1; i < len(run.commitAt); i++ {
		gaps = append(gaps, ms(run.commitAt[i].Sub(run.commitAt[i-1])))
	}
	var tokens, memberRounds int
	for m, at := range run.memberAt {
		for _, t := range at {
			if t.After(first) && !t.After(last) {
				tokens += w.tokensPerMemberRound(m)
				memberRounds++
			}
		}
	}
	var wire int64
	var stragglers, evictions, joins, missing int
	var staleness float64
	for _, r := range timed {
		wire += r.WireSentBytes + r.WireRecvBytes
		stragglers += r.Stragglers
		evictions += r.Evictions
		joins += r.Joins
		staleness += r.MeanStaleness
		if w.async == nil {
			missing += len(w.steps) - r.Clients
		}
	}

	if len(timed) == 0 || span <= 0 {
		res.fail("no commit after the first one inside the measured window")
		return res
	}
	rt := summarize(gaps)
	res.e2e["op_ms"] = rt.Median
	res.e2e["tokens_per_s"] = float64(tokens) / span
	res.e2e["wire_bytes_per_op"] = float64(wire) / float64(len(timed))

	// Member contributions are the operations counted: in sync mode every
	// round expects one from every member.
	res.attempted = memberRounds
	if w.async == nil {
		res.attempted = len(timed) * len(w.steps)
	}
	res.failed = stragglers + evictions + missing
	for m, err := range run.memberErrs {
		if err != nil {
			res.failed++
			res.fail(fmt.Sprintf("member %d: %v", m, err))
		}
	}

	// Output checks.
	initPPL := in.val.Evaluate(nn.NewModel(w.model, rand.New(rand.NewSource(in.serverSeed))))
	finalPPL := in.val.Evaluate(run.result.FinalModel)
	if w.async == nil {
		for _, r := range run.commits {
			if r.Clients != len(w.steps) {
				res.fail(fmt.Sprintf("round %d aggregated %d of %d members", r.Round, r.Clients, len(w.steps)))
				break
			}
		}
	} else {
		for i, r := range run.commits {
			if r.ModelVersion != i+1 {
				res.fail(fmt.Sprintf("commit %d carries version %d: versions are not monotone", i+1, r.ModelVersion))
				break
			}
		}
	}
	if math.IsNaN(finalPPL) || math.IsInf(finalPPL, 0) {
		res.fail(fmt.Sprintf("final perplexity is %v", finalPPL))
	} else if !e.quick && finalPPL >= w.pplShare*initPPL {
		res.fail(fmt.Sprintf("final perplexity %.1f is not below %.2f of the initial %.1f", finalPPL, w.pplShare, initPPL))
	}

	kind := "round_ms"
	if w.async != nil {
		kind = "commit_ms"
	}
	res.note(kind, rt.Median, "ms")
	if rt.TailPct > 0 {
		res.note(fmt.Sprintf("%s.p%.0f", kind, rt.TailPct), rt.Tail, "ms")
	}
	res.note(kind+".samples", float64(rt.N), "count")
	res.note("train_tokens_per_s", res.e2e["tokens_per_s"], "tokens/s")
	res.note("wire_bytes_per_round", res.e2e["wire_bytes_per_op"], "bytes")
	res.note("final_ppl", finalPPL, "perplexity")
	res.note("initial_ppl", initPPL, "perplexity")
	res.note("rounds", float64(len(timed)), "count")
	res.layer["fed.final_ppl"] = finalPPL
	res.layer["fed.mean_staleness"] = staleness / float64(len(timed))
	res.layer["cluster.stragglers"] = float64(stragglers)
	res.layer["cluster.evictions"] = float64(evictions)
	res.layer["cluster.joins"] = float64(joins)
	reportedPhases(res, timed)
	return res
}

// reportedPhases records the program's own per-round phase breakdown
// (metrics.Round.Phases) as medians, a cross-check beside the spans the
// benchmark takes from outside.
func reportedPhases(res *result, rounds []metrics.Round) {
	pick := map[string]func(metrics.Round) float64{
		"reported.broadcast_ms": func(r metrics.Round) float64 { return r.Phases.BroadcastMs },
		"reported.train_ms":     func(r metrics.Round) float64 { return r.Phases.TrainMs },
		"reported.encode_ms":    func(r metrics.Round) float64 { return r.Phases.EncodeMs },
		"reported.wire_ms":      func(r metrics.Round) float64 { return r.Phases.WireMs },
		"reported.decode_ms":    func(r metrics.Round) float64 { return r.Phases.DecodeMs },
		"reported.aggregate_ms": func(r metrics.Round) float64 { return r.Phases.AggregateMs },
		"reported.eval_ms":      func(r metrics.Round) float64 { return r.Phases.EvalMs },
	}
	for name, f := range pick {
		vals := make([]float64, len(rounds))
		for i, r := range rounds {
			vals[i] = f(r)
		}
		res.layer[name] = median(vals)
	}
}
