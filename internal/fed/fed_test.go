package fed

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"photon/internal/ckpt"
	"photon/internal/data"
	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/nn"
	"photon/internal/obsv"
	"photon/internal/opt"
	"photon/internal/testutil"
)

func tinyCfg() nn.Config {
	c := nn.ConfigTiny
	c.SeqLen = 16
	return c
}

func tinySpec() LocalSpec {
	return LocalSpec{
		Steps:     4,
		BatchSize: 4,
		SeqLen:    16,
		Schedule:  opt.Constant(3e-3),
		ClipNorm:  1.0,
	}
}

func makeClients(t *testing.T, cfg nn.Config, n int) []*Client {
	t.Helper()
	part, err := data.IIDPartition(data.C4Like(cfg.VocabSize), n, 7)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		clients[i] = NewClient(part.SourceNames[i], cfg, part.ClientStreams[i],
			opt.NewAdamW(cfg.Beta1, cfg.Beta2, 0.01))
	}
	return clients
}

func baseRun(t *testing.T, mutate func(*RunConfig)) RunConfig {
	t.Helper()
	cfg := RunConfig{
		ModelConfig:     tinyCfg(),
		Seed:            1,
		Rounds:          6,
		ClientsPerRound: 4,
		Clients:         makeClients(t, tinyCfg(), 4),
		Outer:           FedAvg{},
		Spec:            tinySpec(),
		Validation:      data.NewValidationSet(data.C4Like(tinyCfg().VocabSize), 8, 16, 999),
		EvalEvery:       2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

func TestFedAvgIsClientMean(t *testing.T) {
	// With ηs = 1, one round of FedAvg must set the global model to the
	// exact mean of the client models.
	global := []float32{10, 10}
	clientParams := [][]float32{{8, 12}, {6, 10}}
	updates := make([][]float32, len(clientParams))
	for i, cp := range clientParams {
		updates[i] = []float32{global[0] - cp[0], global[1] - cp[1]}
	}
	delta, err := MeanDelta(updates)
	if err != nil {
		t.Fatal(err)
	}
	FedAvg{}.Step(global, delta, 1)
	if global[0] != 7 || global[1] != 11 {
		t.Fatalf("FedAvg(1.0) should average client models: got %v", global)
	}
}

func TestMeanDeltaErrors(t *testing.T) {
	if _, err := MeanDelta(nil); err == nil {
		t.Fatal("empty updates accepted")
	}
	if _, err := MeanDelta([][]float32{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged updates accepted")
	}
}

func TestFedMomAccumulates(t *testing.T) {
	fm := NewFedMom(1.0, 0.9)
	g1 := []float32{0}
	fm.Step(g1, []float32{1}, 1)
	first := g1[0]
	fm.Step(g1, []float32{1}, 2)
	second := g1[0] - first
	// Second step moves further than the first (velocity build-up):
	// |Δ2| = 1 + 0.9 > |Δ1| = 1.
	if !(math.Abs(float64(second)) > math.Abs(float64(first))) {
		t.Fatalf("momentum should accelerate: step1 %v step2 %v", first, second)
	}
}

func TestDiLoCoNesterovForm(t *testing.T) {
	d := NewDiLoCo(0.1, 0.9)
	g := []float32{0}
	d.Step(g, []float32{1}, 1)
	// First Nesterov step: v=1, update = 0.1*(1 + 0.9*1) = 0.19.
	if math.Abs(float64(g[0])+0.19) > 1e-6 {
		t.Fatalf("first DiLoCo step: got %v want -0.19", g[0])
	}
	// DiLoCo(0.1) must take much smaller early steps than FedAvg.
	g2 := []float32{0}
	FedAvg{}.Step(g2, []float32{1}, 1)
	if math.Abs(float64(g[0])) >= math.Abs(float64(g2[0])) {
		t.Fatal("DiLoCo(0.1) early step should be smaller than FedAvg")
	}
}

// refFedMom and refDiLoCo are the two momentum optimizers as separate
// types, before they shared one: each Step body is kept verbatim as the
// reference the shared type must match bit for bit.
type refFedMom struct {
	LR, Mu float64
	v      []float32
}

func (f *refFedMom) Step(global, delta []float32, _ int) {
	if f.v == nil {
		f.v = make([]float32, len(global))
	}
	mu := float32(f.Mu)
	lr := float32(f.LR)
	for i, d := range delta {
		f.v[i] = mu*f.v[i] + d
		global[i] -= lr * f.v[i]
	}
}

type refDiLoCo struct {
	LR, Mu float64
	v      []float32
}

func (d *refDiLoCo) Step(global, delta []float32, _ int) {
	if d.v == nil {
		d.v = make([]float32, len(global))
	}
	mu := float32(d.Mu)
	lr := float32(d.LR)
	for i, g := range delta {
		d.v[i] = mu*d.v[i] + g
		global[i] -= lr * (g + mu*d.v[i])
	}
}

// TestMomentumMatchesReferenceSteps: NewFedMom and NewDiLoCo build one
// momentum type, and each still takes its reference's steps bit for bit on
// random vectors (one length off the kernels' 8-lane width), also after a
// Snapshot → Restore into a fresh optimizer mid-run.
func TestMomentumMatchesReferenceSteps(t *testing.T) {
	type stepper interface {
		Step(global, delta []float32, round int)
	}
	for _, tc := range []struct {
		name  string
		fresh func() OuterOpt
		ref   func() stepper
	}{
		{"fedmom", func() OuterOpt { return NewFedMom(0.7, 0.9) }, func() stepper { return &refFedMom{LR: 0.7, Mu: 0.9} }},
		{"diloco", func() OuterOpt { return NewDiLoCo(0.1, 0.9) }, func() stepper { return &refDiLoCo{LR: 0.1, Mu: 0.9} }},
	} {
		for _, n := range []int{16, 67} {
			rng := rand.New(rand.NewSource(int64(n)))
			randVec := func() []float32 {
				v := make([]float32, n)
				for i := range v {
					v[i] = float32(rng.NormFloat64())
				}
				return v
			}
			ref, o := tc.ref(), tc.fresh()
			if o.Name() != tc.name {
				t.Fatalf("Name() = %q, want %q", o.Name(), tc.name)
			}
			want := randVec()
			got := slices.Clone(want)
			for step := 1; step <= 6; step++ {
				delta := randVec()
				ref.Step(want, delta, step)
				o.Step(got, delta, step)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s n=%d step %d elem %d: %x, reference %x", tc.name, n, step, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
				if step == 3 {
					restored := tc.fresh()
					if err := restored.(OuterState).Restore(o.(OuterState).Snapshot()); err != nil {
						t.Fatal(err)
					}
					o = restored
				}
			}
			if err := o.(OuterState).Restore(make([]float32, n+1)); err == nil {
				t.Fatalf("%s n=%d: wrong-length snapshot restored", tc.name, n)
			}
		}
	}
}

func TestLocalSpecValidate(t *testing.T) {
	good := tinySpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, mutate := range []func(*LocalSpec){
		func(s *LocalSpec) { s.Steps = 0 },
		func(s *LocalSpec) { s.BatchSize = 0 },
		func(s *LocalSpec) { s.SeqLen = 0 },
		func(s *LocalSpec) { s.Schedule = nil },
	} {
		s := tinySpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestClientRunRoundProducesUpdate(t *testing.T) {
	cfg := tinyCfg()
	c := makeClients(t, cfg, 1)[0]
	global := nn.NewModel(cfg, rand.New(rand.NewSource(3))).Params().Flatten(nil)
	res, err := c.RunRound(context.Background(), global, 0, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Update) != len(global) {
		t.Fatalf("update length %d != %d", len(res.Update), len(global))
	}
	var n float64
	for _, v := range res.Update {
		n += float64(v) * float64(v)
	}
	if n == 0 {
		t.Fatal("training produced a zero update")
	}
	if res.Metrics["steps"] != 4 || res.Metrics["loss"] <= 0 {
		t.Fatalf("bad metrics: %v", res.Metrics)
	}
}

func TestClientWrongGlobalSize(t *testing.T) {
	c := makeClients(t, tinyCfg(), 1)[0]
	if _, err := c.RunRound(context.Background(), []float32{1, 2, 3}, 0, tinySpec()); err == nil {
		t.Fatal("mismatched global vector accepted")
	}
}

func TestSubFederationEqualsMeanOfNodes(t *testing.T) {
	cfg := tinyCfg()
	nodes := makeClients(t, cfg, 2)
	parent := &Client{ID: "silo", SubNodes: nodes}
	global := nn.NewModel(cfg, rand.New(rand.NewSource(5))).Params().Flatten(nil)
	spec := tinySpec()

	res, err := parent.RunRound(context.Background(), global, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: run the same nodes independently (fresh streams/state).
	refNodes := makeClients(t, cfg, 2)
	r0, err := refNodes[0].RunRound(context.Background(), global, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := refNodes[1].RunRound(context.Background(), global, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Update {
		want := (r0.Update[i] + r1.Update[i]) / 2
		if math.Abs(float64(res.Update[i]-want)) > 1e-5 {
			t.Fatalf("sub-federation update[%d] = %v, want mean %v", i, res.Update[i], want)
		}
	}
	if res.Metrics["subnodes"] != 2 {
		t.Fatalf("subnodes metric: %v", res.Metrics)
	}
}

// scrubTimings zeroes the wall-clock measurement fields (real elapsed
// time, inherently non-deterministic, and the slowest member and phase read
// from it) so histories can be compared for training determinism. Trace IDs
// are seeded and stay comparable.
func scrubTimings(h *metrics.History) {
	for i := range h.Rounds {
		h.Rounds[i].WallMs = 0
		h.Rounds[i].SlowestID, h.Rounds[i].SlowestPhase = "", ""
		h.Rounds[i].Phases = obsv.Breakdown{}
		h.Rounds[i].EncodeMs = 0
		h.Rounds[i].DecodeMs = 0
	}
}

func TestRunConvergesAndIsDeterministic(t *testing.T) {
	res1, err := Run(context.Background(), baseRun(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(context.Background(), baseRun(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	scrubTimings(res1.History)
	scrubTimings(res2.History)
	if !reflect.DeepEqual(res1.History, res2.History) {
		t.Fatal("same config+seed produced different histories")
	}
	// Perplexity must improve from near-uniform (vocab 64 → ~64).
	first := res1.History.Rounds[1].Perplexity // round 2 is the first eval
	last := res1.History.FinalPPL()
	if !(last < first) {
		t.Fatalf("no convergence: %v -> %v", first, last)
	}
	if last > 55 {
		t.Fatalf("final perplexity too high: %v", last)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	for i, mutate := range []func(*RunConfig){
		func(c *RunConfig) { c.Rounds = 0 },
		func(c *RunConfig) { c.Clients = nil },
		func(c *RunConfig) { c.ClientsPerRound = 0 },
		func(c *RunConfig) { c.Outer = nil },
		func(c *RunConfig) { c.Spec.Steps = 0 },
		func(c *RunConfig) { c.Clients[1].ID = c.Clients[0].ID },
	} {
		cfg := baseRun(t, mutate)
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestRunFullDropoutSkipsUpdates: rounds whose whole cohort dropped out run
// empty, flat and tiered (where each relay answers its emptied rounds with
// an empty update, so the root does not wait for one).
func TestRunFullDropoutSkipsUpdates(t *testing.T) {
	for _, tiers := range []int{1, 2} {
		res, err := Run(context.Background(), baseRun(t, func(c *RunConfig) {
			c.DropoutProb = 1.0
			c.Rounds, c.Tiers = 3, tiers
		}))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.History.Rounds {
			if r.Clients != 0 || r.UpdateNorm != 0 {
				t.Fatalf("tiers %d: round %d should have no surviving clients: %+v", tiers, r.Round, r)
			}
		}
	}
}

func TestRunPartialDropoutStillConverges(t *testing.T) {
	res, err := Run(context.Background(), baseRun(t, func(c *RunConfig) {
		c.DropoutProb = 0.25
		c.Rounds = 8
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.History.FinalPPL() > 58 {
		t.Fatalf("dropout run did not converge: %v", res.History.FinalPPL())
	}
}

// frameBytes is what m costs on the wire: its encoded frame.
func frameBytes(t *testing.T, m *link.Message) int64 {
	t.Helper()
	var b bytes.Buffer
	if err := link.Encode(&b, m); err != nil {
		t.Fatal(err)
	}
	return int64(b.Len())
}

// denseFrame is the frame of a dense n-element payload under the Meta keys
// named (every Meta value is 8 bytes on the wire, whatever it is).
func denseFrame(t *testing.T, typ link.MsgType, id string, n int, keys ...string) int64 {
	meta := make(map[string]float64, len(keys))
	for _, k := range keys {
		meta[k] = 0
	}
	return frameBytes(t, &link.Message{Type: typ, ClientID: id, Meta: meta, Payload: link.Dense(make([]float32, n))})
}

// leafReplyKeys are the Meta keys of a leaf's update: its training metrics,
// its phase self-reports, the held round and the trace echo.
var leafReplyKeys = []string{"loss", "steps", "lr", link.PhaseTrainNsKey, link.PhaseEncNsKey, link.PhaseDecNsKey, link.HeldKey, link.TraceKey}

// TestRunChargesWhatCrossedTheCodec: a run that names no codec crosses the
// dense one, and each round is charged the frames that crossed the root's
// links, as a networked round is — a model frame to each drawn client that
// did not drop out (a dropout is not asked) and an update frame back from
// each, 4 bytes an element plus header and Meta.
func TestRunChargesWhatCrossedTheCodec(t *testing.T) {
	const k = 3
	cfg := baseRun(t, func(c *RunConfig) {
		c.ClientsPerRound, c.DropoutProb, c.Rounds = k, 0.3, 4
	})
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Global)
	model := denseFrame(t, link.MsgModel, "", n, link.TraceKey)
	update := denseFrame(t, link.MsgUpdate, cfg.Clients[0].ID, n, leafReplyKeys...) // the IDs are all one length
	dropped := false
	for _, r := range res.History.Rounds {
		dropped = dropped || r.Clients < k
		// Every coordinate moves each round, so a delta never pays and each
		// broadcast is a full frame.
		if r.DeltaBroadcasts != 0 {
			t.Fatalf("round %d sent %d deltas", r.Round, r.DeltaBroadcasts)
		}
		sent, recv := int64(r.Clients)*model, int64(r.Clients)*update
		if r.WireSentBytes != sent || r.WireRecvBytes != recv {
			t.Fatalf("round %d (%d of %d clients): sent/recv %d/%d bytes, want %d/%d", r.Round, r.Clients, k, r.WireSentBytes, r.WireRecvBytes, sent, recv)
		}
		if r.CommBytes != sent+recv {
			t.Fatalf("round %d: CommBytes %d, want %d", r.Round, r.CommBytes, sent+recv)
		}
		if r.CompressionRatio != 1 {
			t.Fatalf("round %d: compression ratio %v, want 1", r.Round, r.CompressionRatio)
		}
	}
	if !dropped {
		t.Fatal("no round lost a client to dropout; the run does not test the survivor count")
	}
}

func TestRunStopAtPPL(t *testing.T) {
	res, err := Run(context.Background(), baseRun(t, func(c *RunConfig) {
		c.Rounds = 50
		c.StopAtPPL = 60 // easy target: reached quickly
		c.EvalEvery = 1
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.History.Len() >= 50 {
		t.Fatal("early stopping did not trigger")
	}
}

func TestRunCheckpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "global.ckpt")
	res, err := Run(context.Background(), baseRun(t, func(c *RunConfig) {
		c.CheckpointPath = path
		c.Rounds = 3
	}))
	if err != nil {
		t.Fatal(err)
	}
	c, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Round != 3 || len(c.Params) != len(res.Global) {
		t.Fatalf("checkpoint round %d, %d params", c.Round, len(c.Params))
	}
	// The checkpoint must hold the final global parameters exactly.
	for i := range c.Params {
		if c.Params[i] != res.Global[i] {
			t.Fatal("checkpoint params differ from final global model")
		}
	}
}

func TestNetworkedFederation(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := tinyCfg()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	spec := tinySpec()
	clients := makeClients(t, cfg, 3)
	for _, c := range clients {
		go func(c *Client) {
			conn, err := link.Dial(l.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			_ = ServeClient(context.Background(), conn, c, spec)
		}(c)
	}

	res, err := Serve(context.Background(), l, ServerConfig{
		ModelConfig:   cfg,
		Seed:          11,
		Rounds:        4,
		ExpectClients: 3,
		Outer:         FedAvg{},
		Validation:    data.NewValidationSet(data.C4Like(cfg.VocabSize), 8, 16, 999),
		EvalEvery:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.History.Len() != 4 {
		t.Fatalf("want 4 rounds, got %d", res.History.Len())
	}
	for _, r := range res.History.Rounds {
		if r.Clients != 3 {
			t.Fatalf("round %d: %d clients, want 3", r.Round, r.Clients)
		}
	}
	if !(res.History.FinalPPL() < 64) {
		t.Fatalf("networked run did not learn: ppl %v", res.History.FinalPPL())
	}
}

// TestServeClientNilObserver: a nil round observer is skipped, not called.
// Calling it panicked in the reply's sent hook, after the update was already
// on the wire, and took the client process down.
func TestServeClientNilObserver(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := tinyCfg()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	clientErr := make(chan error, 2)
	for _, c := range makeClients(t, cfg, 2) {
		go func(c *Client) {
			conn, err := link.Dial(l.Addr())
			if err != nil {
				clientErr <- err
				return
			}
			defer conn.Close()
			clientErr <- ServeClient(ctx, conn, c, tinySpec(), nil)
		}(c)
	}
	res, err := Serve(ctx, l, ServerConfig{ModelConfig: cfg, Seed: 3, Rounds: 2, ExpectClients: 2, Outer: FedAvg{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.History.Len() != 2 {
		t.Fatalf("want 2 rounds, got %d", res.History.Len())
	}
	for i := 0; i < 2; i++ {
		if err := <-clientErr; err != nil {
			t.Fatalf("client with a nil observer: %v", err)
		}
	}
}

func TestServeRejectsBadConfig(t *testing.T) {
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := Serve(context.Background(), l, ServerConfig{}); err == nil {
		t.Fatal("empty server config accepted")
	}
}

// TestServeDropsMisSizedUpdate: a member whose update declares an element
// count different from the model is evicted before its payload can drive a
// decode-time allocation or reach MeanDelta — the round aggregates the
// well-behaved survivors and the run completes.
func TestServeDropsMisSizedUpdate(t *testing.T) {
	cfg := tinyCfg()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	spec := tinySpec()
	for _, c := range makeClients(t, cfg, 2) {
		go func(c *Client) {
			conn, err := link.Dial(l.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			_ = ServeClient(ctx, conn, c, spec)
		}(c)
	}
	// The liar: joins correctly, then answers every model broadcast with a
	// 3-element "update".
	go func() {
		conn, err := link.Dial(l.Addr())
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := Handshake(conn, "liar", ""); err != nil {
			return
		}
		for {
			msg, err := conn.Recv()
			if err != nil || msg.Type == link.MsgShutdown {
				return
			}
			if msg.Type == link.MsgModel {
				conn.Send(&link.Message{Type: link.MsgUpdate, Round: msg.Round,
					ClientID: "liar", Payload: link.Dense([]float32{1, 2, 3})})
			}
		}
	}()

	var evictions int
	res, err := Serve(ctx, l, ServerConfig{
		ModelConfig:   cfg,
		Seed:          13,
		Rounds:        2,
		ExpectClients: 3,
		Outer:         FedAvg{},
		OnRound:       func(r metrics.Round) { evictions += r.Evictions },
	})
	if err != nil {
		t.Fatalf("mis-sized update aborted the run: %v", err)
	}
	if res.History.Len() != 2 {
		t.Fatalf("completed %d rounds, want 2", res.History.Len())
	}
	for _, r := range res.History.Rounds {
		if r.Clients != 2 {
			t.Fatalf("round %d aggregated %d clients, want the 2 honest ones", r.Round, r.Clients)
		}
	}
	if evictions != 1 {
		t.Fatalf("evictions = %d, want the liar dropped once", evictions)
	}
}
