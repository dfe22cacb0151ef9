package fed

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"photon/internal/ckpt"
	"photon/internal/data"
	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/nn"
)

// RunConfig configures a federated training run in one process (Run).
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

	// Codec names the wire codec of every member link, as ServerConfig's
	// does (empty: "dense"). Each member's session keeps its own instance,
	// so topk's error feedback accumulates per client.
	Codec string

	// Tiers is 1 (or 0) for the flat Algorithm 1 loop and 2 for its
	// sub-federations (lines 19–25): Relays relays (≤ 0: 2) run RunRelay's
	// code, relay g serving the clients i with i·Relays/N == g and drawing
	// the cohort positions j < K with j·Relays/K == g, over Codec links;
	// their uplinks to the root cross UpstreamCodec (empty: Codec). The
	// root folds the relays' means, so its rounds count relays as Clients
	// and their TrainLoss is the mean of the relays' mean losses.
	Tiers         int
	Relays        int
	UpstreamCodec string

	// DropoutProb injects client failure: each drawn client drops out with
	// this probability (at its relay, when tiered) and is not asked; the
	// round folds the survivors.
	DropoutProb float64

	// CheckpointPath, when non-empty, asynchronously checkpoints the global
	// model each round (Algorithm 1 line 11).
	CheckpointPath string

	// InitParams, when non-nil, initializes the global model from a prior
	// checkpoint instead of the seed; its length must match the model's.
	// StartRound offsets round numbering and the schedule's step base (the
	// first round run is StartRound+1).
	InitParams []float32
	StartRound int

	// StopAtPPL ends training once validation reaches it (0 disables).
	StopAtPPL float64

	// OnRound, when non-nil, is called with each round's record right after
	// it is appended to the history — the hook behind Job.Events.
	OnRound func(metrics.Round)
}

// validate checks c and resolves Relays' default.
func (c *RunConfig) validate() error {
	if err := c.ModelConfig.Validate(); err != nil {
		return err
	}
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.Relays <= 0 {
		c.Relays = 2
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
	case c.Tiers == 2 && c.Relays > min(c.ClientsPerRound, len(c.Clients)):
		return fmt.Errorf("fed: %d relays cannot each hold a member of a %d-client cohort", c.Relays, min(c.ClientsPerRound, len(c.Clients)))
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

// Result bundles a finished run.
type Result struct {
	History *metrics.History
	// Global is the final global parameter vector.
	Global []float32
	// FinalModel holds the final parameters, ready for evaluation.
	FinalModel *nn.Model
}

// Run executes Algorithm 1 in one process: Serve's sync driver over
// in-memory members. Each client's Session joins over a link.Pipe, in client
// order, through the server's own handshake, so the join order — and with it
// SampleCohort's order, which is fold order — is fixed and the run is
// deterministic for a fixed config. A member the server drops (an update it
// refused) rejoins at once, as a resilient client would. Tiers == 2 runs
// relays over in-memory cohorts (see RunConfig.Tiers).
//
// An error mid-run returns the partial Result for the completed rounds
// together with the error, as Serve does; a member's own failure (not a lost
// session) ends the run with that error. Cancelling ctx stops the run the
// same way: the interrupted round is discarded and Run returns ctx.Err().
func Run(ctx context.Context, cfg RunConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	parent := ctx
	ctx, fail := context.WithCancelCause(ctx)
	var members sync.WaitGroup
	defer members.Wait()
	defer fail(nil) // reaps a member that was rejoining as the run ended

	leafCodec := cmp.Or(cfg.Codec, "dense")
	n, k, codec := len(cfg.Clients), cfg.ClientsPerRound, leafCodec
	if cfg.Tiers == 2 {
		n, k, codec = cfg.Relays, cfg.Relays, cmp.Or(cfg.UpstreamCodec, leafCodec)
	}
	var st *aggState
	onRound := cfg.OnRound
	if cfg.CheckpointPath != "" {
		writer := ckpt.NewAsyncWriter(cfg.CheckpointPath)
		defer writer.Close()
		var ckptErrSeen bool
		onRound = func(r metrics.Round) {
			if cfg.OnRound != nil {
				cfg.OnRound(r)
			}
			writer.Submit(&ckpt.Checkpoint{Round: r.Round, Step: r.Round * cfg.Spec.Steps,
				Meta: map[string]float64{"ppl": r.Perplexity, "loss": r.TrainLoss}, Params: slices.Clone(st.global)})
			noteCheckpointErr(&ckptErrSeen, writer.Err()) // surfaced once, while the disk can still be fixed
		}
	}
	st = newAggState(ServerConfig{
		ModelConfig: cfg.ModelConfig, Seed: cfg.Seed, Rounds: cfg.StartRound + cfg.Rounds,
		ExpectClients: n, ClientsPerRound: k, MinClients: n, Codec: codec,
		Outer: cfg.Outer, Validation: cfg.Validation, EvalEvery: cfg.EvalEvery, OnRound: onRound,
	})
	if _, err := st.openServer(); err != nil {
		return nil, err
	}
	if err := st.restore(&walResume{global: cfg.InitParams}); err != nil {
		return nil, err
	}

	// join runs serve as a member of s on its own goroutine over a pipe
	// whose handshake it completes first, so members join in call order,
	// and — when s drops the member (an update it refused) — again over a
	// fresh pipe, as a resilient client redials. A member's own failure
	// fails the run before its end closes, so the round it was in is
	// discarded.
	join := func(s *server, serve func(context.Context, *link.Conn) error) {
		srv, conn := link.Pipe()
		members.Add(1)
		go func() {
			defer members.Done()
			for {
				err := serve(ctx, conn)
				lost := errors.Is(err, ErrSessionLost)
				if err != nil && !lost && ctx.Err() == nil {
					fail(err)
				}
				conn.Close()
				if !lost || ctx.Err() != nil {
					return
				}
				var next *link.Conn
				next, conn = link.Pipe()
				go s.handshake(ctx, next)
			}
		}()
		s.handshake(ctx, srv)
	}
	joinClients := func(s *server, clients []*Client) {
		for _, c := range clients {
			sess := &Session{Client: c, Spec: cfg.Spec}
			join(s, func(ctx context.Context, conn *link.Conn) error { return sess.ServeConn(ctx, conn) })
		}
	}
	if cfg.Tiers == 2 {
		for g := range n {
			// part g of m items split contiguously into n parts
			part := func(m int) (lo, hi int) { return (g*m + n - 1) / n, ((g+1)*m + n - 1) / n }
			lo, hi := part(len(cfg.Clients))
			klo, khi := part(cfg.ClientsPerRound)
			rc := RelayConfig{ModelConfig: cfg.ModelConfig, ID: fmt.Sprint("relay-", g), Seed: cfg.Seed,
				ExpectClients: hi - lo, ClientsPerRound: khi - klo, MinClients: hi - lo, Codec: leafCodec,
				Parent: ReconnectConfig{Codec: codec}}
			join(st.s, func(ctx context.Context, conn *link.Conn) error {
				_, err := runRelay(ctx, nil, func(context.Context) (*link.Conn, error) { return conn, nil }, rc, func(r *relay) {
					r.dropout, r.answerEmpty = cfg.DropoutProb, true
					joinClients(r.s, cfg.Clients[lo:hi])
				})
				if errors.Is(err, ErrSessionLost) { // a relay's finite mean is never refused: it never redials
					err = fmt.Errorf("fed: %s lost its uplink: %v", rc.ID, err)
				}
				return err
			})
		}
	} else {
		st.dropout = cfg.DropoutProb
		joinClients(st.s, cfg.Clients)
	}
	stop := st.s.startLoops(ctx, nil)
	defer stop(true)
	st.sentPrev, st.recvPrev = st.s.meter.Totals()

	res, err := st.runSync(ctx, &walResume{committed: cfg.StartRound}, cfg.StopAtPPL)
	if cause := context.Cause(ctx); err != nil && cause != nil && parent.Err() == nil {
		err = cause
	}
	return res, err
}

func norm2(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(float64(v) * float64(v))
	}
	return math.Sqrt(s)
}
