package photon

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"photon/internal/ckpt"
	"photon/internal/data"
	"photon/internal/ddp"
	"photon/internal/fed"
	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/nn"
	"photon/internal/obsv"
	"photon/internal/opt"
)

// Job is a configured training run: one backend, one model, one recipe.
// Build it with NewJob, start it with Run, and watch it live through
// Events. A Job is single-use — Run may be called once.
type Job struct {
	cfg     jobConfig
	events  chan RoundEvent
	started atomic.Bool
	addr    atomic.Value // string: aggregator backend's bound listen address
	dropped atomic.Int64 // events evicted by drop-oldest backpressure
}

// NewJob assembles a job from functional options. Configuration problems
// (unknown backend, unregistered optimizer or data source names, missing
// required fields) are reported by Run, not here.
func NewJob(opts ...JobOption) *Job {
	var cfg jobConfig
	for _, o := range opts {
		o(&cfg)
	}
	cfg.fill()
	return &Job{cfg: cfg, events: make(chan RoundEvent, cfg.expectedEvents())}
}

// Events returns the job's telemetry stream: one RoundEvent per completed
// round (or evaluation interval), emitted while Run is executing and in
// round order. The channel is buffered for the whole run, so training never
// blocks on a slow consumer, and it is closed when Run returns — ranging
// over it terminates. If a backend produces more rounds than the buffer
// anticipated (BackendClient under a very long-lived aggregator, buffer
// 4096), the stream sheds load drop-oldest: the stalest buffered event is
// evicted so a late-attaching consumer sees the most recent telemetry
// rather than an ancient prefix. Result.DroppedEvents counts the
// evictions.
func (j *Job) Events() <-chan RoundEvent { return j.events }

// Addr returns the aggregator backend's bound listen address once Run has
// started listening, and "" before that (or for other backends). It makes
// WithAddr("127.0.0.1:0") usable: the kernel picks a free port and Addr
// reports it.
func (j *Job) Addr() string {
	s, _ := j.addr.Load().(string)
	return s
}

// Run executes the job until completion, cancellation, or error. It honors
// ctx: cancelling stops a run promptly mid-round, and Run then returns the
// partial Result for the rounds that completed together with ctx.Err().
func (j *Job) Run(ctx context.Context) (*Result, error) {
	if j.started.Swap(true) {
		return nil, errors.New("photon: job already run (jobs are single-use; build a new one)")
	}
	defer close(j.events)
	var res *Result
	var err error
	switch j.cfg.backend {
	case BackendFederated:
		res, err = j.runFederated(ctx)
	case BackendCentralized:
		res, err = j.runCentralized(ctx)
	case BackendAggregator:
		res, err = j.runAggregator(ctx)
	case BackendClient:
		res, err = j.runClient(ctx)
	default:
		return nil, fmt.Errorf("photon: unknown backend %q", j.cfg.backend)
	}
	if res != nil {
		res.DroppedEvents = int(j.dropped.Load())
	}
	return res, err
}

// emit forwards a round record to the events channel and refreshes the
// process-wide scrape instruments. The channel is sized for the run's full
// event count, so backpressure only engages if a backend produces more
// rounds than anticipated (client backend under a very long-lived
// aggregator). When it does, the policy is drop-oldest: evict the stalest
// buffered event and retry, so an attached consumer always sees the most
// recent rounds. emit is the sole sender, but a consumer may race it for
// the oldest element, so the evict-retry loop is bounded; in the
// (theoretical) worst case the new event itself is counted dropped rather
// than blocking training.
func (j *Job) emit(r metrics.Round) {
	j.scrape(r)
	for attempt := 0; attempt < 3; attempt++ {
		select {
		case j.events <- r:
			return
		default:
		}
		select {
		case <-j.events: // evict oldest
			j.dropped.Add(1)
		default: // a consumer drained it first; retry the send
		}
	}
	j.dropped.Add(1)
}

// scrape mirrors the round record onto the process-wide obsv registry so a
// -metrics-addr listener (or any embedder serving obsv.Default) exposes
// live training state without subscribing to the event stream.
func (j *Job) scrape(r metrics.Round) {
	reg := obsv.Default
	reg.Counter("photon_rounds_total", "Completed training rounds.").Inc()
	reg.Gauge("photon_round", "Most recent completed round number.").Set(float64(r.Round))
	if r.TrainLoss > 0 {
		reg.Gauge("photon_train_loss", "Mean participating-client training loss (nats/token).").Set(r.TrainLoss)
	}
	if r.Perplexity > 0 {
		reg.Gauge("photon_val_perplexity", "Latest validation perplexity.").Set(r.Perplexity)
	}
	reg.Gauge("photon_round_clients", "Clients aggregated in the most recent round.").Set(float64(r.Clients))
	reg.Counter("photon_wire_sent_bytes_total", "Bytes sent on the wire across rounds.").Add(r.WireSentBytes)
	reg.Counter("photon_wire_recv_bytes_total", "Bytes received on the wire across rounds.").Add(r.WireRecvBytes)
	reg.Counter("photon_round_joins_total", "Members joined or rejoined across rounds.").Add(int64(r.Joins))
	reg.Counter("photon_round_evictions_total", "Members evicted across rounds.").Add(int64(r.Evictions))
	reg.Counter("photon_round_stragglers_total", "Cohort slots dropped at round deadlines.").Add(int64(r.Stragglers))
	if r.WallMs > 0 {
		reg.Histogram("photon_round_seconds", "Round wall time.", nil).Observe(r.WallMs / 1e3)
	}
	if r.ModelVersion > 0 {
		reg.Gauge("photon_model_version", "Committed global model version (async aggregation).").Set(float64(r.ModelVersion))
		reg.Gauge("photon_buffer_fill", "Updates folded into the latest async commit.").Set(float64(r.BufferFill))
		reg.Gauge("photon_update_staleness", "Mean staleness (versions) of the latest commit's updates.").Set(r.MeanStaleness)
	}
}

// newResult converts an internal run result to the public form.
func newResult(model *nn.Model, hist *metrics.History) *Result {
	out := &Result{model: model}
	if hist != nil {
		out.FinalPerplexity = hist.FinalPPL()
		out.Stats = append([]RoundEvent(nil), hist.Rounds...)
		for _, r := range hist.Rounds {
			out.Joins += r.Joins
			out.Evictions += r.Evictions
			out.Stragglers += r.Stragglers
		}
	}
	return out
}

func (j *Job) runFederated(ctx context.Context) (*Result, error) {
	c := j.cfg
	cfg, err := ModelConfig(c.size)
	if err != nil {
		return nil, err
	}
	cfg.SeqLen = c.seqLen

	srcs, err := lookupDataSource(c.dataSource, cfg.VocabSize)
	if err != nil {
		return nil, err
	}
	var part *data.Partition
	var valSrc data.Source
	if len(srcs) == 1 {
		valSrc = srcs[0]
		part, err = data.IIDPartition(srcs[0], c.clients, c.seed+1000)
	} else {
		part, err = data.BySourcePartition(srcs, c.clients, c.seed+1000)
		valSrc = data.NewMixtureSource(c.dataSource, srcs)
	}
	if err != nil {
		return nil, err
	}

	clients := make([]*fed.Client, part.NumClients())
	for i := range clients {
		clients[i] = fed.NewClient(part.SourceNames[i], cfg, part.ClientStreams[i],
			opt.NewAdamW(cfg.Beta1, cfg.Beta2, 0.01))
	}
	outer, err := lookupServerOptimizer(c.server)
	if err != nil {
		return nil, err
	}
	// Extended decay period (Appendix C.1): decay over 4x the planned run so
	// the high learning rate persists, with the PaperCosine 1% warmup.
	period := 4 * c.rounds * c.localSteps
	if period < 200 {
		period = 200
	}
	var initParams []float32
	startRound := 0
	if c.resumeFrom != "" {
		snap, err := ckpt.Load(c.resumeFrom)
		if err != nil {
			return nil, fmt.Errorf("photon: resume: %w", err)
		}
		initParams = snap.Params
		startRound = snap.Round
	}

	res, err := fed.Run(ctx, fed.RunConfig{
		ModelConfig:     cfg,
		Seed:            c.seed,
		Rounds:          c.rounds,
		ClientsPerRound: c.clientsPerRound,
		Clients:         clients,
		Outer:           outer,
		Spec: fed.LocalSpec{
			Steps:     c.localSteps,
			BatchSize: c.batchSize,
			SeqLen:    cfg.SeqLen,
			Schedule:  opt.PaperCosine(c.maxLR, period),
			ClipNorm:  1.0,
		},
		Validation:     data.NewValidationSet(valSrc, 16, cfg.SeqLen, 987654),
		EvalEvery:      c.evalEvery,
		Codec:          c.codec,
		Tiers:          c.tiers,
		Relays:         c.relays,
		UpstreamCodec:  c.upstreamCodec,
		DropoutProb:    c.dropoutProb,
		CheckpointPath: c.checkpointPath,
		InitParams:     initParams,
		StartRound:     startRound,
		StopAtPPL:      c.stopAtPPL,
		OnRound:        j.emit,
	})
	if res == nil {
		return nil, err
	}
	return newResult(res.FinalModel, res.History), err
}

func (j *Job) runCentralized(ctx context.Context) (*Result, error) {
	c := j.cfg
	cfg, err := ModelConfig(c.size)
	if err != nil {
		return nil, err
	}
	cfg.SeqLen = c.seqLen
	if c.workers < 1 || c.workers > data.NumShards {
		return nil, fmt.Errorf("photon: workers must be in 1..%d", data.NumShards)
	}
	src := data.C4Like(cfg.VocabSize)
	streams := make([]data.Stream, c.workers)
	for i := range streams {
		streams[i] = data.NewShard(src, i, c.seed+1000)
	}
	res, err := ddp.Run(ctx, ddp.Config{
		ModelConfig: cfg,
		Seed:        c.seed,
		Steps:       c.steps,
		Workers:     c.workers,
		BatchSize:   c.batchSize,
		SeqLen:      cfg.SeqLen,
		Schedule:    opt.PaperCosine(c.maxLR, c.steps),
		ClipNorm:    1.0,
		Streams:     streams,
		Validation:  data.NewValidationSet(src, 16, cfg.SeqLen, 987654),
		EvalEvery:   c.evalEvery,
		StopAtPPL:   c.stopAtPPL,
		OnRound:     j.emit,
	})
	if res == nil {
		return nil, err
	}
	return newResult(res.FinalModel, res.History), err
}

func (j *Job) runAggregator(ctx context.Context) (*Result, error) {
	c := j.cfg
	if c.parent != "" {
		return j.runRelay(ctx)
	}
	if c.expectClients <= 0 {
		return nil, fmt.Errorf("photon: aggregator backend requires WithExpectClients > 0")
	}
	cfg, err := ModelConfig(c.size)
	if err != nil {
		return nil, err
	}
	cfg.SeqLen = c.seqLen
	outer, err := lookupServerOptimizer(c.server)
	if err != nil {
		return nil, err
	}
	l, err := link.Listen(c.addr)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	j.addr.Store(l.Addr())

	var async *fed.AsyncConfig
	if c.asyncSet {
		async = &fed.AsyncConfig{K: c.asyncK, Alpha: c.asyncAlpha, MinHealth: fed.DefaultAsyncMinHealth}
	}
	res, err := fed.Serve(ctx, l, fed.ServerConfig{
		ModelConfig:       cfg,
		Seed:              c.seed,
		Rounds:            c.rounds,
		ExpectClients:     c.expectClients,
		ClientsPerRound:   c.clientsPerRound,
		MinClients:        c.minClients,
		HeartbeatInterval: c.heartbeat,
		RoundDeadline:     c.roundDeadline,
		OverProvision:     c.overProvision,
		Codec:             c.codec,
		Outer:             outer,
		Validation:        data.NewValidationSet(data.C4Like(cfg.VocabSize), 16, cfg.SeqLen, 987654),
		EvalEvery:         c.evalEvery,
		OnRound:           j.emit,
		WALDir:            c.walDir,
		RegistryDir:       c.registryDir,
		Async:             async,
	})
	if res == nil {
		return nil, err
	}
	return newResult(res.FinalModel, res.History), err
}

// runRelay serves the relay flavor of the aggregator backend (WithParent):
// listen for the regional cohort on WithAddr, join the parent aggregator,
// and bridge parent rounds onto cohort rounds. The run ends when the parent
// shuts the session down (or the parent link is lost beyond the reconnect
// budget); validation perplexity is the root's job, so the result reports 0.
func (j *Job) runRelay(ctx context.Context) (*Result, error) {
	c := j.cfg
	if c.expectClients <= 0 {
		return nil, fmt.Errorf("photon: relay requires WithExpectClients > 0 (its cohort size)")
	}
	cfg, err := ModelConfig(c.size)
	if err != nil {
		return nil, err
	}
	cfg.SeqLen = c.seqLen
	l, err := link.Listen(c.addr)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	j.addr.Store(l.Addr())
	id := c.clientID
	if id == "" {
		id = "relay@" + l.Addr()
	}
	res, err := fed.RunRelay(ctx, l, func(ctx context.Context) (*link.Conn, error) {
		return link.DialContext(ctx, c.parent)
	}, fed.RelayConfig{
		ModelConfig:       cfg,
		ID:                id,
		Seed:              c.seed,
		ExpectClients:     c.expectClients,
		ClientsPerRound:   c.clientsPerRound,
		MinClients:        c.minClients,
		HeartbeatInterval: c.heartbeat,
		RoundDeadline:     c.roundDeadline,
		OverProvision:     c.overProvision,
		Codec:             c.codec,
		Parent: fed.ReconnectConfig{
			MaxAttempts: c.reconnect,
			Codec:       c.upstreamCodec,
		},
		OnRound: j.emit,
		WALDir:  c.walDir,
	})
	if res == nil {
		return nil, err
	}
	// Like the root aggregator path, a failed run still reports the partial
	// tier history alongside the error.
	out := newResult(res.FinalModel, res.History)
	out.FinalPerplexity = 0 // evaluation happens at the root
	return out, err
}

func (j *Job) runClient(ctx context.Context) (*Result, error) {
	c := j.cfg
	if c.clientID == "" {
		return nil, fmt.Errorf("photon: client backend requires WithClientID")
	}
	cfg, err := ModelConfig(c.size)
	if err != nil {
		return nil, err
	}
	cfg.SeqLen = c.seqLen
	if c.shard < 0 || c.shard >= data.NumShards {
		return nil, fmt.Errorf("photon: shard must be in 0..%d", data.NumShards-1)
	}
	stream := data.NewShard(data.C4Like(cfg.VocabSize), c.shard, c.seed+1000)
	client := fed.NewClient(c.clientID, cfg, stream, opt.NewAdamW(cfg.Beta1, cfg.Beta2, 0.01))

	const period = 2000 // extended decay: high LR for the whole session
	hist := &metrics.History{}
	// The session dials once up front (a failure here reports immediately)
	// and then survives aggregator connection churn: a dropped connection
	// is redialed with exponential backoff and the client rejoins under
	// its ID, resuming at the aggregator's current round.
	// Codec negotiation is server-driven: an explicit WithCodec on the
	// client is a strict requirement against the aggregator's
	// announcement, while the default accepts whatever is announced.
	requireCodec := ""
	if c.codecSet {
		requireCodec = c.codec
	}
	err = fed.RunResilientClient(ctx, func(ctx context.Context) (*link.Conn, error) {
		return link.DialContext(ctx, c.addr)
	}, client, fed.LocalSpec{
		Steps:     c.localSteps,
		BatchSize: c.batchSize,
		SeqLen:    cfg.SeqLen,
		Schedule:  opt.PaperCosine(c.maxLR, period),
		ClipNorm:  1.0,
	}, fed.ReconnectConfig{
		MaxAttempts:    c.reconnect,
		CheckpointPath: c.checkpointPath,
		Codec:          requireCodec,
	}, func(r metrics.Round) {
		hist.Append(r)
		j.emit(r)
	})
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return nil, err
	}
	// The client holds its last local replica; expose it with the
	// client-side round history (no validation PPL — evaluation is the
	// aggregator's job, so the result reports 0 = not evaluated).
	res := newResult(client.Model, hist)
	res.FinalPerplexity = 0
	return res, err
}
