package photon

import "time"

// Backend selects the execution engine a Job runs on.
type Backend string

// Available backends.
const (
	// BackendFederated runs Algorithm 1 end to end in a single process:
	// the default, and the paper's main experimental harness.
	BackendFederated Backend = "federated"
	// BackendCentralized runs the matched centralized/DDP baseline
	// (Algorithm 2).
	BackendCentralized Backend = "centralized"
	// BackendAggregator serves a real networked aggregator on WithAddr,
	// coordinating WithExpectClients remote clients over the wire protocol.
	BackendAggregator Backend = "aggregator"
	// BackendClient joins a networked aggregator at WithAddr and serves
	// training rounds until the session ends.
	BackendClient Backend = "client"
)

// jobConfig is the resolved configuration a Job runs with. Zero values are
// filled with per-backend defaults at Run time.
type jobConfig struct {
	backend Backend
	size    ModelSize

	clients         int
	clientsPerRound int
	rounds          int
	localSteps      int
	batchSize       int
	seqLen          int

	steps   int // centralized: optimizer steps
	workers int // centralized: DDP workers

	maxLR      float64
	server     string
	dataSource string

	dropoutProb    float64
	checkpointPath string
	resumeFrom     string
	stopAtPPL      float64
	evalEvery      int
	seed           int64

	addr          string
	expectClients int
	clientID      string
	shard         int
	codec         string
	codecSet      bool

	parent        string
	tiers         int
	relays        int
	upstreamCodec string

	heartbeat     time.Duration
	roundDeadline time.Duration
	minClients    int
	overProvision float64
	reconnect     int
	reconnectSet  bool

	walDir      string
	registryDir string

	asyncSet   bool
	asyncK     int
	asyncAlpha float64
}

// JobOption configures a Job; build them with the With* constructors.
type JobOption func(*jobConfig)

// WithBackend selects the execution engine (default BackendFederated).
func WithBackend(b Backend) JobOption { return func(c *jobConfig) { c.backend = b } }

// WithModel selects the model architecture preset (default SizeTiny).
func WithModel(size ModelSize) JobOption { return func(c *jobConfig) { c.size = size } }

// WithClients sets the federation population N (default 4).
func WithClients(n int) JobOption { return func(c *jobConfig) { c.clients = n } }

// WithClientsPerRound sets the per-round cohort size K (default: all
// clients, i.e. full participation).
func WithClientsPerRound(k int) JobOption { return func(c *jobConfig) { c.clientsPerRound = k } }

// WithRounds sets the number of federated rounds (default 20 for the
// federated backend, 10 for the aggregator).
func WithRounds(r int) JobOption { return func(c *jobConfig) { c.rounds = r } }

// WithLocalSteps sets τ, the local steps per round (default 16).
func WithLocalSteps(tau int) JobOption { return func(c *jobConfig) { c.localSteps = tau } }

// WithBatchSize sets the hardware-determined local batch size Bl (default 4
// federated, 16 centralized).
func WithBatchSize(b int) JobOption { return func(c *jobConfig) { c.batchSize = b } }

// WithSeqLen sets the training sequence length (default 16).
func WithSeqLen(n int) JobOption { return func(c *jobConfig) { c.seqLen = n } }

// WithSteps sets the centralized backend's optimizer step count
// (default 320).
func WithSteps(n int) JobOption { return func(c *jobConfig) { c.steps = n } }

// WithWorkers sets the centralized backend's DDP worker count (default 1).
func WithWorkers(n int) JobOption { return func(c *jobConfig) { c.workers = n } }

// WithMaxLR sets the peak learning rate (default 3e-3, the high-LR recipe).
func WithMaxLR(lr float64) JobOption { return func(c *jobConfig) { c.maxLR = lr } }

// WithServerOptimizer selects the registered server optimizer by name
// (default "fedavg"; see RegisterServerOptimizer). It steps the root
// aggregator's global model only: a relay (WithParent) forwards its cohort's
// mean update and ignores it.
func WithServerOptimizer(name string) JobOption { return func(c *jobConfig) { c.server = name } }

// WithDataSource selects the registered training corpus by name (default
// "c4"; see RegisterDataSource). Multi-source corpora such as "pile" give
// each client one distinct source, modeling cross-client heterogeneity.
func WithDataSource(name string) JobOption { return func(c *jobConfig) { c.dataSource = name } }

// WithDropout injects per-round client failures with probability p.
func WithDropout(p float64) JobOption { return func(c *jobConfig) { c.dropoutProb = p } }

// WithCheckpoint enables per-round async checkpointing of the global model.
func WithCheckpoint(path string) JobOption { return func(c *jobConfig) { c.checkpointPath = path } }

// WithResume loads a checkpoint written via WithCheckpoint and continues
// from it: the global model is restored and round numbering (and the
// learning-rate schedule) picks up where the checkpoint left off.
func WithResume(path string) JobOption { return func(c *jobConfig) { c.resumeFrom = path } }

// WithStopAtPPL halts training once validation perplexity reaches the
// target (0 disables early stopping).
func WithStopAtPPL(target float64) JobOption { return func(c *jobConfig) { c.stopAtPPL = target } }

// WithEvalEvery evaluates validation perplexity every n rounds (default 1
// federated, 10 centralized).
func WithEvalEvery(n int) JobOption { return func(c *jobConfig) { c.evalEvery = n } }

// WithSeed sets the run seed (default 1).
func WithSeed(seed int64) JobOption { return func(c *jobConfig) { c.seed = seed } }

// WithAddr sets the network address: the listen address for
// BackendAggregator (e.g. ":9000"), the aggregator address for
// BackendClient.
func WithAddr(addr string) JobOption { return func(c *jobConfig) { c.addr = addr } }

// WithExpectClients makes the aggregator backend block until this many
// clients join before training starts.
func WithExpectClients(n int) JobOption { return func(c *jobConfig) { c.expectClients = n } }

// WithClientID sets the client backend's identity.
func WithClientID(id string) JobOption { return func(c *jobConfig) { c.clientID = id } }

// WithShard sets which of the 64 corpus shards the client backend holds.
func WithShard(shard int) JobOption { return func(c *jobConfig) { c.shard = shard } }

// WithCodec selects the wire codec parameter payloads travel in: "dense"
// (raw float32, the default), "flate" (lossless compression), "q8" (int8
// block quantization, ~4x smaller, lossy), "topk" (error-feedback sparse
// top-k, update-only; "topk:0.05" keeps 5%), or any codec added via
// RegisterCodec. The federated backend routes all exchanged payloads
// through the codec; the aggregator backend announces it at join time and
// clients ack, so mixed fleets fail fast. On the client backend a set
// codec is a requirement check against the aggregator's announcement —
// leave it unset to accept whatever the aggregator runs.
func WithCodec(name string) JobOption {
	return func(c *jobConfig) { c.codec = name; c.codecSet = true }
}

// WithParent turns the aggregator backend into a relay: the job still
// listens on WithAddr and serves its WithExpectClients cohort with the full
// elastic machinery, but instead of running its own round loop it joins the
// parent aggregator at addr as an ordinary client — each parent round it
// re-broadcasts the global model down, aggregates its cohort locally
// (FedAvg ηs=1 mean semantics, so a two-tier mean of equal cohorts equals
// the flat mean), and forwards one pseudo-gradient upward. WithCodec names
// the cohort-tier codec; WithUpstreamCodec pins the parent-tier one. The
// relay's round telemetry carries Tier 1.
func WithParent(addr string) JobOption { return func(c *jobConfig) { c.parent = addr } }

// WithTiers selects the federated backend's aggregation depth: 1 (default)
// is the flat Algorithm 1 loop, 2 simulates hierarchical aggregation — the
// cohort folds into WithRelays group means first and the server optimizer
// consumes the mean of relay means, with the parent tier's wire traffic
// accounted under WithUpstreamCodec.
func WithTiers(n int) JobOption { return func(c *jobConfig) { c.tiers = n } }

// WithRelays sets the number of relay groups for WithTiers(2) (default 2).
func WithRelays(n int) JobOption { return func(c *jobConfig) { c.relays = n } }

// WithUpstreamCodec names the relay→root tier's wire codec. On the
// federated backend it drives the tiered simulation's parent-tier encoding
// (default: same as WithCodec); on a relay job (WithParent) it is a strict
// requirement against the parent's announced codec — leave it unset to
// accept whatever the parent runs.
func WithUpstreamCodec(name string) JobOption {
	return func(c *jobConfig) { c.upstreamCodec = name }
}

// WithPlan applies a planned hierarchy (see PlanHierarchy) to the job: the
// tier count, relay count, and upstream codec are taken from the plan. On
// the aggregator backend it also provides the expected cohort size (the
// plan's relay count) when WithExpectClients was not given explicitly.
func WithPlan(p *HierarchyPlan) JobOption {
	return func(c *jobConfig) {
		if p == nil {
			return
		}
		c.tiers = p.Tiers
		if n := len(p.Relays); n > 0 {
			c.relays = n
			if c.expectClients == 0 {
				c.expectClients = n
			}
		}
		if p.Tiers > 1 && p.UpstreamCodec != "" {
			c.upstreamCodec = p.UpstreamCodec
		}
	}
}

// WithHeartbeat enables heartbeat liveness tracking on the aggregator
// backend: every member is pinged on this cadence and evicted after three
// consecutive missed beats. Clients echo heartbeats automatically, even
// mid-training, so a slow member reads as alive-but-straggling rather than
// dead. Zero (the default) disables heartbeats.
func WithHeartbeat(interval time.Duration) JobOption {
	return func(c *jobConfig) { c.heartbeat = interval }
}

// WithRoundDeadline bounds one federated round's model/update exchange on
// the aggregator backend. When the deadline expires the round aggregates
// the updates that arrived and counts the missing cohort members as
// stragglers (down-weighting their future sampling) instead of blocking
// forever. Zero (the default) waits until every cohort member answers or
// fails.
func WithRoundDeadline(d time.Duration) JobOption {
	return func(c *jobConfig) { c.roundDeadline = d }
}

// WithMinClients sets the aggregator backend's mid-run participation
// floor: after training starts, a round does not begin until at least this
// many members are alive, giving crashed clients a window to reconnect
// (default 1).
func WithMinClients(n int) JobOption { return func(c *jobConfig) { c.minClients = n } }

// WithOverProvision inflates the aggregator backend's sampled cohort by
// this fraction (0.25 → 25% extra members) so a round deadline with
// stragglers still collects about K updates.
func WithOverProvision(f float64) JobOption { return func(c *jobConfig) { c.overProvision = f } }

// WithReconnect sets how many consecutive failed reconnect attempts the
// client backend tolerates before abandoning a session that lost its
// aggregator connection (exponential backoff between attempts; default 5;
// 0 disables reconnection). The initial dial is never retried — only a
// session that joined successfully reconnects.
func WithReconnect(attempts int) JobOption {
	return func(c *jobConfig) { c.reconnect = attempts; c.reconnectSet = true }
}

// WithWAL journals the aggregator backend's round-state transitions to a
// write-ahead log in dir. A job restarted on the same directory (and the
// same identity) replays the log and resumes the run where the crash left
// off — global parameters, outer-optimizer momentum, and any in-flight
// round — instead of starting over. On a relay (WithParent) the log holds
// the last upstream reply and codec residual for crash-safe redelivery.
func WithWAL(dir string) JobOption { return func(c *jobConfig) { c.walDir = dir } }

// WithAsync switches the aggregator backend from synchronous rounds to
// buffered asynchronous (FedBuff-style) aggregation. The aggregator
// broadcasts a continuously-versioned global model: every member trains
// at its own pace, and each returned update is folded into a buffer with
// weight 1/(1+staleness)^alpha, where staleness is how many versions the
// global model advanced while the member trained. After k folds the
// buffered aggregate is committed through the server optimizer and the
// version advances — fast members no longer wait on stragglers, they just
// out-contribute them. WithRounds counts version commits; WithRoundDeadline
// bounds each dispatch instead of a collective round. k < 1 defaults to 2
// and a negative alpha to 0.5; alpha 0 disables staleness discounting.
// Synchronous-only knobs (WithClientsPerRound, WithOverProvision) are
// ignored, and relay trees (WithParent) compose: relays forward
// version-stamped pseudo-gradients upstream, making the tree two-tier
// async.
func WithAsync(k int, alpha float64) JobOption {
	return func(c *jobConfig) { c.asyncSet = true; c.asyncK = k; c.asyncAlpha = alpha }
}

// WithRegistry publishes each committed round's checkpoint into a
// content-addressed model registry rooted at dir (SHA-256 blob addresses,
// lineage manifests, and a moving "latest" tag that photon-serve can load
// via -ckpt tag:latest). Aggregator backend only; registry failures are
// logged and counted, never fatal to training.
func WithRegistry(dir string) JobOption { return func(c *jobConfig) { c.registryDir = dir } }

// fill resolves zero values to per-backend defaults.
func (c *jobConfig) fill() {
	if c.backend == "" {
		c.backend = BackendFederated
	}
	if c.size == "" {
		c.size = SizeTiny
	}
	if c.seqLen == 0 {
		c.seqLen = 16
	}
	if c.maxLR == 0 {
		c.maxLR = 3e-3
	}
	if c.server == "" {
		c.server = string(FedAvg)
	}
	if c.dataSource == "" {
		c.dataSource = "c4"
	}
	if c.seed == 0 {
		c.seed = 1
	}
	if c.localSteps == 0 {
		c.localSteps = 16
	}
	switch c.backend {
	case BackendCentralized:
		if c.steps == 0 {
			c.steps = 320
		}
		if c.workers == 0 {
			c.workers = 1
		}
		if c.batchSize == 0 {
			c.batchSize = 16
		}
		if c.evalEvery == 0 {
			c.evalEvery = 10
		}
	case BackendAggregator:
		if c.rounds == 0 {
			c.rounds = 10
		}
		if c.evalEvery == 0 {
			c.evalEvery = 1
		}
		if c.parent != "" && !c.reconnectSet {
			// A relay's parent link reconnects like a resilient client.
			c.reconnect = 5
		}
	case BackendClient:
		if c.batchSize == 0 {
			c.batchSize = 4
		}
		if !c.reconnectSet {
			c.reconnect = 5
		}
	default: // BackendFederated
		if c.clients == 0 {
			c.clients = 4
		}
		if c.clientsPerRound == 0 {
			c.clientsPerRound = c.clients
		}
		if c.rounds == 0 {
			c.rounds = 20
		}
		if c.batchSize == 0 {
			c.batchSize = 4
		}
		if c.evalEvery == 0 {
			c.evalEvery = 1
		}
	}
}

// expectedEvents bounds the number of RoundEvents a run can emit, sizing
// the events channel so training never blocks on a slow (or absent)
// consumer. Invalid (negative) round/step counts are clamped here and
// rejected with a proper error by the backend's own validation in Run.
func (c *jobConfig) expectedEvents() int {
	n := 0
	switch c.backend {
	case BackendCentralized:
		n = c.steps
		if c.evalEvery > 0 {
			n = c.steps / c.evalEvery
		}
	case BackendClient:
		// Round count is aggregator-driven and unknown here; size for any
		// realistic session length.
		n = 4096
	case BackendAggregator:
		n = c.rounds
		if c.parent != "" {
			// A relay's round count is parent-driven and unknown here.
			n = 4096
		}
	default:
		n = c.rounds
	}
	if n < 8 {
		n = 8
	}
	return n + 2
}
