package fed

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"photon/internal/ckpt"
	"photon/internal/cluster"
	"photon/internal/data"
	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/nn"
	"photon/internal/obsv"
)

// RunConfig configures a federated training run in the in-process simulator.
type RunConfig struct {
	ModelConfig nn.Config
	Seed        int64

	Rounds          int
	ClientsPerRound int // K
	Clients         []*Client
	Outer           OuterOpt
	Spec            LocalSpec

	// Validation is evaluated on the global model every EvalEvery rounds
	// (and always on the final round). Nil disables evaluation.
	Validation *data.ValidationSet
	EvalEvery  int

	// Codec names the wire codec every model broadcast and client update
	// crosses, as on the networked path: payloads are encoded, their size
	// is charged to the round, and training continues from the decoded
	// (for lossy codecs, perturbed) values. Each client's session keeps its
	// own instance, so topk's error feedback accumulates per client. Empty
	// means "dense".
	Codec string

	// Tiers selects the aggregation depth: 1 (or 0, the default) is the
	// flat Algorithm 1 loop; 2 simulates hierarchical aggregation — the
	// sampled cohort is split into Relays contiguous groups, each group's
	// updates fold into a relay mean first, and the outer optimizer
	// consumes the mean of relay means. Under FedAvg(ηs=1) with equal
	// groups the two-tier mean equals the flat mean exactly; the point of
	// the simulation is the wire accounting, which splits into a leaf tier
	// (cohort×Codec) and a parent tier (Relays×UpstreamCodec).
	Tiers int
	// Relays is the number of relay groups when Tiers == 2 (≤ 0 defaults
	// to 2).
	Relays int
	// UpstreamCodec names the relay→root tier's wire codec, one instance
	// per relay group's session. Empty inherits Codec.
	UpstreamCodec string

	// DropoutProb injects client failure: each sampled client independently
	// fails to return its update with this probability. The aggregator
	// applies a partial update from survivors (the PS/AR behavior).
	DropoutProb float64

	// CheckpointPath, when non-empty, asynchronously checkpoints the global
	// model each round (Algorithm 1 line 11).
	CheckpointPath string

	// InitParams, when non-nil, initializes the global model from a prior
	// checkpoint instead of the seed (crash recovery / warm start). Its
	// length must match the model's parameter count.
	InitParams []float32

	// StartRound offsets round numbering and the schedule step base when
	// resuming from a checkpoint (the first executed round is StartRound+1).
	StartRound int

	// StopAtPPL ends training early once validation reaches the target
	// (0 disables early stopping).
	StopAtPPL float64

	// OnRound, when non-nil, is called synchronously with each round's
	// record right after it is appended to the history — the hook behind
	// live observability (Job.Events).
	OnRound func(metrics.Round)
}

func (c *RunConfig) validate() error {
	if err := c.ModelConfig.Validate(); err != nil {
		return err
	}
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("fed: Rounds must be positive, got %d", c.Rounds)
	case len(c.Clients) == 0:
		return fmt.Errorf("fed: no clients")
	case c.ClientsPerRound <= 0:
		return fmt.Errorf("fed: ClientsPerRound must be positive, got %d", c.ClientsPerRound)
	case c.Outer == nil:
		return fmt.Errorf("fed: Outer optimizer must be set")
	case c.Tiers < 0 || c.Tiers > 2:
		return fmt.Errorf("fed: Tiers must be 1 (flat) or 2, got %d", c.Tiers)
	case c.Tiers == 2 && c.effectiveRelays() > c.ClientsPerRound:
		return fmt.Errorf("fed: %d relays cannot each hold a member of a %d-client cohort", c.effectiveRelays(), c.ClientsPerRound)
	}
	seen := make(map[string]bool, len(c.Clients))
	for _, cl := range c.Clients {
		if seen[cl.ID] {
			return fmt.Errorf("fed: duplicate client ID %q (the registry would hold both as one member)", cl.ID)
		}
		seen[cl.ID] = true
	}
	return nil
}

// effectiveRelays resolves the relay-group count (Relays ≤ 0 defaults to
// 2), so validation and the run loop agree on the same value.
func (c *RunConfig) effectiveRelays() int {
	if c.Relays <= 0 {
		return 2
	}
	return c.Relays
}

// Result bundles a finished run.
type Result struct {
	History *metrics.History
	// Global is the final global parameter vector.
	Global []float32
	// FinalModel holds the final parameters, ready for evaluation.
	FinalModel *nn.Model
}

// simulator is the in-process driver over aggState: Serve without frames.
// The clients are Sessions, joined to a registry in order; when tiered,
// each relay group holds a memberSession for the upstream codec, as a
// relay's uplink does. Each keeps its codec state (topk's residual).
type simulator struct {
	*aggState
	rc             RunConfig
	reg            *cluster.Registry // never observed or evicted: every health stays 1, so the draw is uniform
	codec, upCodec link.Codec        // the tiers' aggregator side: broadcast encoder (ModelCodec) and reply decoder
	clients        []Session
	groups         []simGroup // when tiered
	totals         wireTotals // payload volume over every tier
}

// simGroup is one relay group: its uplink session, the fold of its share of
// the cohort, and the metrics of the clients folded into it this round.
type simGroup struct {
	up      memberSession
	fold    meanFold
	metrics []map[string]float64
}

// simMember is one member as a tier asks it: its session and its work step
// (a client trains; a relay group asks its share of the cohort). A dropped
// member has no work: it is sent the model and answers nothing.
type simMember struct {
	m    *memberSession
	work roundWork
}

// Run executes Algorithm 1 in a single process. It is a driver over the
// aggregation core and differs from Serve only in its exchange: each round
// draws K distinct clients uniformly from its registry (line 4), asks them
// in memory — each trains concurrently on its own replica and data stream
// and answers through its member session — and folds the updates that pass
// decodeUpdate (a refused one is dropped like a dropout) in join order,
// through their relay group's mean when tiered. The outer step, evaluation,
// history, OnRound and result are the sync driver's. It is deterministic
// for a fixed config.
//
// An error mid-run returns the partial Result for the completed rounds
// together with the error, as Serve does. Cancelling ctx stops the run
// promptly the same way: in-flight clients abort between local steps, the
// interrupted round is discarded, and Run returns ctx.Err().
func Run(ctx context.Context, cfg RunConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	x := &simulator{
		aggState: newAggState(ServerConfig{
			ModelConfig: cfg.ModelConfig, Seed: cfg.Seed,
			// seal evaluates the run's last round whatever EvalEvery says.
			Rounds:        cfg.StartRound + cfg.Rounds,
			ExpectClients: len(cfg.Clients), ClientsPerRound: cfg.ClientsPerRound,
			Outer: cfg.Outer, Validation: cfg.Validation, EvalEvery: cfg.EvalEvery, OnRound: cfg.OnRound,
		}),
		rc: cfg, reg: cluster.New(cluster.Config{}), clients: make([]Session, len(cfg.Clients)),
	}
	if err := x.initModel(cfg.InitParams); err != nil {
		return nil, err
	}
	cfg.Codec = cmp.Or(cfg.Codec, "dense")
	var err error
	if x.codec, err = link.NewCodec(cfg.Codec); err != nil {
		return nil, fmt.Errorf("fed: %w", err)
	}
	for i, c := range cfg.Clients {
		x.reg.Join(c.ID)
		x.clients[i] = Session{Client: c, Spec: cfg.Spec}
		x.clients[i].member().enc, _ = link.NewCodec(cfg.Codec) // resolved above
	}
	if cfg.Tiers == 2 {
		up := cmp.Or(cfg.UpstreamCodec, cfg.Codec)
		if x.upCodec, err = link.NewCodec(up); err != nil {
			return nil, fmt.Errorf("fed: upstream codec: %w", err)
		}
		x.groups = make([]simGroup, cfg.effectiveRelays())
		for g := range x.groups {
			enc, _ := link.NewCodec(up) // resolved above
			x.groups[g].up = memberSession{id: fmt.Sprint(g), name: fmt.Sprint("relay ", g), want: len(x.global), enc: enc}
		}
	}
	return x.run(ctx)
}

func (x *simulator) run(ctx context.Context) (*Result, error) {
	var writer *ckpt.AsyncWriter
	var ckptErrSeen bool
	if x.rc.CheckpointPath != "" {
		writer = ckpt.NewAsyncWriter(x.rc.CheckpointPath)
		defer writer.Close()
	}
	for round := x.rc.StartRound + 1; round <= x.cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return x.finish(err)
		}
		w := x.open(round, mintTrace(x.traceRng), time.Now())
		clientMetrics, err := x.exchange(ctx, w)
		if ctx.Err() != nil {
			return x.finish(ctx.Err()) // the interrupted round is discarded
		}
		if err == nil {
			err = x.step(w, clientMetrics)
		}
		if err != nil {
			return x.fail(round, err)
		}
		if writer != nil {
			writer.Submit(&ckpt.Checkpoint{
				Round:  round,
				Step:   round * x.rc.Spec.Steps,
				Meta:   map[string]float64{"ppl": w.rec.Perplexity, "loss": w.rec.TrainLoss},
				Params: slices.Clone(x.global),
			})
			// Surface a failed write mid-run (once) instead of letting it
			// hide until Close: the operator learns the run has no durable
			// checkpoints while there is still time to fix the disk.
			noteCheckpointErr(&ckptErrSeen, writer.Err())
		}
		if x.rc.StopAtPPL > 0 && w.rec.Perplexity > 0 && w.rec.Perplexity <= x.rc.StopAtPPL {
			break
		}
	}
	return x.finish(nil)
}

// exchange is the simulator's half of a round, the part Serve does over the
// wire: draw the cohort and its dropouts and ask it — directly, or through
// the relay groups, which ask their shares and reply with the means. It
// stamps the window's accounting and returns the folded clients' metrics in
// join order.
func (x *simulator) exchange(ctx context.Context, w *window) ([]map[string]float64, error) {
	cfg, rec := &x.rc, &w.rec
	// Client i always belongs to relay group i·R/N, like a deployment where
	// each relay serves a fixed slice of the fleet, so a relay's
	// error-feedback residual stays with one client set.
	asked := make([][]simMember, max(len(x.groups), 1))
	for _, info := range x.reg.SampleCohort(x.rng, x.k, 0) {
		s := &x.clients[info.Index]
		sm := simMember{&s.m, s.train(nil)}
		// Dropouts are drawn up front so parallel training stays deterministic.
		if cfg.DropoutProb > 0 && x.rng.Float64() < cfg.DropoutProb {
			sm.work = nil
		}
		g := info.Index * len(asked) / len(cfg.Clients)
		asked[g] = append(asked[g], sm)
	}
	members, codec := asked[0], x.codec
	if x.groups != nil {
		members, codec = make([]simMember, len(x.groups)), x.upCodec
		for g := range members {
			members[g] = simMember{&x.groups[g].up, x.relayWork(w, g, asked[g])}
		}
	}
	base := x.totals.load()
	answers, sent, encNs, err := x.broadcast(ctx, w, codec, x.global, members, &x.fold)
	if err != nil {
		return nil, err
	}

	// The round pays headerless payload bytes; its send/receive sides are
	// the root's own tier (the parent link when tiered). The critical path
	// is the slowest folded answer's self-reported split, as on Serve.
	var clientMetrics []map[string]float64
	var slow answer
	for g, a := range answers {
		rec.WireRecvBytes += int64(a.payload.WireBytes())
		if a.update == nil {
			continue
		}
		ms := []map[string]float64{a.meta} // a client's, or a relay group's clients'
		if x.groups != nil {
			ms = x.groups[g].metrics
		}
		clientMetrics = append(clientMetrics, ms...)
		if a.meta[link.PhaseTrainNsKey] >= slow.meta[link.PhaseTrainNsKey] {
			slow = a
		}
	}
	wire := x.totals.load()
	rec.Clients, rec.Depth, rec.WireSentBytes = len(clientMetrics), len(asked), sent
	rec.CommBytes = wire.payloadBytes - base.payloadBytes
	rec.CompressionRatio = float64(rec.CommBytes) / float64(wire.denseBytes-base.denseBytes)
	w.pn.Add(obsv.PhaseEncode, encNs+int64(slow.meta[link.PhaseEncNsKey]))
	w.pn.Add(obsv.PhaseTrain, int64(slow.meta[link.PhaseTrainNsKey]))
	w.pn.Add(obsv.PhaseDecode, int64(slow.meta[link.PhaseDecNsKey])+slow.srvDecNs)
	rec.EncodeMs = float64(w.pn[obsv.PhaseEncode]) / 1e6
	rec.DecodeMs = float64(w.pn[obsv.PhaseDecode]) / 1e6
	return clientMetrics, nil
}

// broadcast is one tier of a simulated round: encode global through codec's
// model codec once for every member, ask them concurrently, and fold the
// updates that pass decodeUpdate into fold, in member order. It returns the
// answers in member order, the bytes the broadcast sent and its encode time.
func (x *simulator) broadcast(ctx context.Context, w *window, codec link.Codec, global []float32, members []simMember, fold *meanFold) (answers []answer, sent, encNs int64, err error) {
	span := obsv.Begin(obsv.PhaseEncode)
	model, err := link.EncodeVector(link.ModelCodec(codec), global)
	if encNs = span.End(); err != nil {
		return nil, 0, 0, err
	}
	sent = int64(len(members)) * int64(model.WireBytes())
	x.totals.payloadBytes.Add(sent)
	x.totals.denseBytes.Add(int64(len(members)) * int64(model.Elems) * 4)
	msg := &link.Message{Type: link.MsgModel, Round: int32(w.rec.Round), Meta: map[string]float64{link.TraceKey: float64(w.rec.TraceID)}, Payload: model}
	answers = make([]answer, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, sm := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i], errs[i] = x.ask(ctx, sm, codec, msg)
		}()
	}
	wg.Wait()
	fold.reset(len(global))
	for i, a := range answers {
		if errs[i] != nil {
			return nil, 0, 0, errs[i]
		}
		if a.update != nil {
			fold.add(a.update, 1)
		}
	}
	return answers, sent, encNs, nil
}

// ask is server.ask in memory: msg goes unserialized through the member
// session's answer core, and the reply through decodeUpdate under codec.
// a.update is nil when the member answered nothing or its update was
// refused, which drops it as Serve drops one; err is the member's failure.
func (x *simulator) ask(ctx context.Context, sm simMember, codec link.Codec, msg *link.Message) (a answer, err error) {
	if sm.work == nil {
		return a, nil // dropped
	}
	r, st, err := sm.m.answer(ctx, msg, sm.work)
	if err != nil || r == nil {
		return a, err
	}
	x.totals.payloadBytes.Add(int64(st.payload.WireBytes()))
	x.totals.denseBytes.Add(int64(st.payload.Elems) * 4)
	span := obsv.Begin(obsv.PhaseDecode)
	a.update, _ = decodeUpdate(codec, st.payload, msg.Payload.Elems) // nil when refused
	a.srvDecNs, a.payload, a.meta = span.End(), st.payload, r.meta
	return a, nil
}

// relayWork is relay group g's work step, relay.serve's in memory: ask the
// group's share of the cohort on the decoded broadcast and reply with their
// mean, or nothing when none was folded.
func (x *simulator) relayWork(w *window, g int, members []simMember) roundWork {
	grp := &x.groups[g]
	return func(ctx context.Context, t roundTask) (*roundReply, error) {
		answers, _, _, err := x.broadcast(ctx, w, x.codec, t.global, members, &grp.fold)
		grp.metrics = grp.metrics[:0]
		for _, a := range answers {
			if a.update != nil {
				grp.metrics = append(grp.metrics, a.meta)
			}
		}
		if err != nil || grp.fold.n == 0 {
			return nil, err
		}
		return &roundReply{update: grp.fold.mean(), meta: map[string]float64{link.CohortKey: float64(grp.fold.n)}}, nil
	}
}

func norm2(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
