package fed

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photon/internal/data"
	"photon/internal/link"
	"photon/internal/nn"
	"photon/internal/opt"
	"photon/internal/tensor"
	"photon/internal/testutil"
)

// foldDigest hashes everything a run's fold decides: the final global
// model's bits and, per round, the participant count, loss, perplexity,
// update norm, and byte accounting.
func foldDigest(res *Result) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range res.Global {
		put(uint64(math.Float32bits(v)))
	}
	for _, r := range res.History.Rounds {
		put(uint64(r.Clients))
		put(math.Float64bits(r.TrainLoss))
		put(math.Float64bits(r.Perplexity))
		put(math.Float64bits(r.UpdateNorm))
		put(uint64(r.CommBytes))
		put(uint64(r.WireSentBytes))
		put(uint64(r.WireRecvBytes))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// simFoldRun runs a three-round fed.Run over baseRun with mutate applied.
// Every member goroutine the run started must be gone when the test ends.
func simFoldRun(mutate func(*testing.T, *RunConfig)) func(*testing.T) *Result {
	return func(t *testing.T) *Result {
		testutil.VerifyNoLeaks(t)
		cfg := baseRun(t, func(c *RunConfig) {
			c.Rounds = 3
			mutate(t, c)
		})
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}

// netFoldRun is a three-round, two-member networked sync FedMom run over
// loopback under codec. With two members the fold is a two-term sum, which
// is order-free, so arrival order cannot move a bit; only the wire-byte
// fields depend on timing, and they are zeroed.
func netFoldRun(codec string) func(*testing.T) *Result {
	return func(t *testing.T) *Result {
		testutil.VerifyNoLeaks(t)
		cfg := tinyCfg()
		l, err := link.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		done := make(chan struct{}, 2)
		for _, c := range makeClients(t, cfg, 2) {
			go func(c *Client) {
				defer func() { done <- struct{}{} }()
				conn, err := link.Dial(l.Addr())
				if err != nil {
					return
				}
				defer conn.Close()
				_ = ServeClient(ctx, conn, c, tinySpec())
			}(c)
		}
		res, err := Serve(ctx, l, ServerConfig{
			ModelConfig:   cfg,
			Seed:          11,
			Rounds:        3,
			ExpectClients: 2,
			Outer:         NewFedMom(1, 0.9),
			Validation:    data.NewValidationSet(data.C4Like(cfg.VocabSize), 8, 16, 999),
			EvalEvery:     1,
			Codec:         codec,
		})
		<-done
		<-done
		if err != nil {
			t.Fatal(err)
		}
		return zeroWire(res)
	}
}

// simNetFoldRun is netFoldRun's run through fed.Run: the same two members,
// seed, outer optimizer, rounds and codec, at full participation.
func simNetFoldRun(codec string) func(*testing.T) *Result {
	return func(t *testing.T) *Result {
		cfg := tinyCfg()
		res, err := Run(context.Background(), RunConfig{
			ModelConfig:     cfg,
			Seed:            11,
			Rounds:          3,
			ClientsPerRound: 2,
			Clients:         makeClients(t, cfg, 2),
			Outer:           NewFedMom(1, 0.9),
			Spec:            tinySpec(),
			Validation:      data.NewValidationSet(data.C4Like(cfg.VocabSize), 8, 16, 999),
			EvalEvery:       1,
			Codec:           codec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return zeroWire(res)
	}
}

// zeroWire zeroes the byte fields of res's rounds: TestRunMatchesServe's
// digests cover what the fold decides, not the frames around it.
func zeroWire(res *Result) *Result {
	for i := range res.History.Rounds {
		r := &res.History.Rounds[i]
		r.CommBytes, r.WireSentBytes, r.WireRecvBytes = 0, 0, 0
	}
	return res
}

// TestRunMatchesServe: fed.Run and fed.Serve are one program. Two members at
// full participation, seed 11, FedMom(1, 0.9), three rounds evaluated every
// round: fed.Run's in-memory members and TCP members reach the same digest
// under every built-in codec, error-feedback topk included. The digests
// hold on either kernel path, where math.Exp and math.tanh are amd64's with
// FMA.
func TestRunMatchesServe(t *testing.T) {
	if !testutil.ExpFMAOnAMD64() {
		t.Skip("the digests were taken with amd64's math.Exp FMA sequence; this machine's exp or tanh differs")
	}
	for _, tc := range []struct{ codec, want string }{
		{"dense", "3b331116d2a525a4"},
		{"flate", "3b331116d2a525a4"}, // lossless: the dense run's bits
		{"q8", "03f8e2f27d7576ed"},
		{"topk:0.1", "9fb2f0b93583361e"},
	} {
		t.Run(tc.codec, func(t *testing.T) {
			if got := foldDigest(simNetFoldRun(tc.codec)(t)); got != tc.want {
				t.Errorf("Run: digest %s, want %s", got, tc.want)
			}
			if got := foldDigest(netFoldRun(tc.codec)(t)); got != tc.want {
				t.Errorf("Serve: digest %s, want %s", got, tc.want)
			}
		})
	}
}

// TestExchangeFoldsInCohortOrder: three hand-rolled members answer in the
// reverse of cohort order, each only after the one behind it has sent, and
// the round's window still folds their updates in cohort order — the order
// the journal logs them in and replay redoes them in — with the members'
// metrics kept in the same order. The updates are ones whose float32 sum
// depends on order: (1e8 − 1e8) + 1 is 1, (1 − 1e8) + 1e8 is 0.
func TestExchangeFoldsInCohortOrder(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	updates := [][]float32{{1e8, 3e7, -2}, {-1e8, -3e7, 1e8}, {1, 1, -1e8}}
	st := newAggState(ServerConfig{Codec: "dense"})
	if _, err := st.openServer(); err != nil {
		t.Fatal(err)
	}
	st.global = make([]float32, len(updates[0]))
	s := st.s
	sent := make([]chan struct{}, len(updates)+1)
	for i := range sent {
		sent[i] = make(chan struct{})
	}
	close(sent[len(updates)])
	var members sync.WaitGroup
	cohort := make([]*memberConn, len(updates))
	for i, u := range updates {
		id := fmt.Sprint("m", i)
		srv, conn := link.Pipe()
		members.Add(1)
		go func() {
			defer members.Done()
			defer conn.Close()
			if _, err := Handshake(conn, id, ""); err != nil {
				return
			}
			for {
				msg, err := conn.Recv()
				if err != nil || msg.Type == link.MsgShutdown {
					return
				}
				<-sent[i+1] // the member behind this one answered first
				conn.Send(&link.Message{Type: link.MsgUpdate, Round: msg.Round, ClientID: id,
					Meta: map[string]float64{"member": float64(i)}, Payload: link.Dense(u)})
				close(sent[i])
			}
		}()
		s.handshake(ctx, srv)
		cohort[i] = s.get(id)
	}
	w := st.open(1, 1, time.Now())
	if err := st.collect(ctx, w, st.cohortPolicy(w, cohort, false)); err != nil {
		t.Fatalf("collect: %v", err)
	}
	s.shutdownMembers(true)
	members.Wait()

	want, reversed := meanOf(updates), meanOf([][]float32{updates[2], updates[1], updates[0]})
	if slices.Equal(want, reversed) {
		t.Fatal("the updates' mean does not depend on fold order")
	}
	if got := st.fold.mean(); !slices.Equal(got, want) {
		t.Fatalf("fold %v, cohort-order mean %v (arrival order gives %v)", got, want, reversed)
	}
	for i, m := range w.metrics {
		if m["member"] != float64(i) {
			t.Fatalf("metrics %d came from member %v", i, m["member"])
		}
	}
}

// meanOf is meanFold over updates in the order given.
func meanOf(updates [][]float32) []float32 {
	var f meanFold
	f.reset(len(updates[0]))
	for _, u := range updates {
		f.add(u, 1)
	}
	return slices.Clone(f.mean())
}

// TestFoldBitExact pins seven runs that cover every sync-weight fold site —
// fed.Run flat and tiered (through its relays), a sub-federated silo, and
// the networked aggregator — plus Run's resume, last-round evaluation and
// upstream-only codec accounting, byte fields included, to digests, at
// GOMAXPROCS 1 and 2. A fold that changes the summation order or the
// rounding of the mean moves a digest. The digests hold on either kernel
// path; the test skips where math.Exp or math.tanh differs from amd64's
// with FMA.
func TestFoldBitExact(t *testing.T) {
	if !testutil.ExpFMAOnAMD64() {
		t.Skip("the digests were taken with amd64's math.Exp FMA sequence; this machine's exp or tanh differs")
	}
	for _, tc := range []struct {
		name, want string
		run        func(*testing.T) *Result
	}{
		{"flat-dense-k3", "841f372c6b0d7f57", simFoldRun(func(_ *testing.T, c *RunConfig) {
			c.ClientsPerRound, c.Codec = 3, "dense"
		})},
		{"flat-q8-dropout-fedmom", "274cb035dec9ff4b", simFoldRun(func(_ *testing.T, c *RunConfig) {
			c.Codec, c.DropoutProb, c.Outer = "q8", 0.25, NewFedMom(1, 0.9)
		})},
		// Only its byte accounting moved when top-k updates took the sparse
		// layout: with the three byte fields zeroed its digest is
		// 82ebeaedb4b9caa5 under either layout.
		{"tiered-topk-flate-diloco", "c117c1bc4b44ad52", simFoldRun(func(_ *testing.T, c *RunConfig) {
			c.Tiers, c.Relays, c.Codec, c.UpstreamCodec = 2, 2, "topk:0.1", "flate"
			c.Outer = NewDiLoCo(0.1, 0.9)
		})},
		{"subfed-silo", "7cc8d38867373c40", simFoldRun(func(t *testing.T, c *RunConfig) {
			nodes := makeClients(t, tinyCfg(), 4)
			c.Clients = []*Client{{ID: "silo", SubNodes: nodes[:2]}, nodes[2], nodes[3]}
			c.ClientsPerRound = 3
		})},
		{"networked-sync-fedmom", "3b331116d2a525a4", netFoldRun("")},
		// Resumed from an earlier run's params at round 3: rounds 4–7 with
		// EvalEvery 2, so round 7 is evaluated only because it is the last,
		// and a StopAtPPL target the run never reaches.
		{"resumed-eval-last-stop", "708fceffa2e53e0c", simFoldRun(func(t *testing.T, c *RunConfig) {
			prev, err := Run(context.Background(), baseRun(t, func(p *RunConfig) { p.Rounds = 3 }))
			if err != nil {
				t.Fatal(err)
			}
			c.InitParams, c.StartRound, c.Rounds = prev.Global, 3, 4
			c.EvalEvery, c.StopAtPPL = 2, 1
		})},
		// An upstream codec only: the leaf tier crosses the dense codec at
		// 4 bytes an element.
		{"tiered-upstream-q8-only", "290af4a2f5d9471b", simFoldRun(func(_ *testing.T, c *RunConfig) {
			c.Tiers, c.Relays, c.Codec, c.UpstreamCodec = 2, 2, "", "q8"
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				got := foldDigest(tc.run(t))
				runtime.GOMAXPROCS(prev)
				if got != tc.want {
					t.Errorf("GOMAXPROCS=%d: digest %s, want %s", procs, got, tc.want)
				}
			}
		})
	}
}

// failingCodec is the dense codec, except that the shared encode counter's
// failAt-th Encode fails.
type failingCodec struct {
	link.DenseCodec
	calls  *atomic.Int64
	failAt int64
}

func (failingCodec) Name() string { return "fail-nth" }

func (c failingCodec) Encode(v []float32) (link.EncodedPayload, error) {
	if c.calls.Add(1) == c.failAt {
		return link.EncodedPayload{}, errors.New("injected encode failure")
	}
	return c.DenseCodec.Encode(v)
}

// TestRunKeepsCompletedRoundsOnError: an error mid-run returns the rounds
// completed before it together with the error, as Serve does. With two
// clients a round encodes three times (one broadcast, two updates), so the
// 7th encode is round 3's broadcast.
func TestRunKeepsCompletedRoundsOnError(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	var calls atomic.Int64
	link.RegisterCodec("fail-nth", func() link.Codec { return failingCodec{calls: &calls, failAt: 7} })
	cfg := baseRun(t, func(c *RunConfig) {
		c.Rounds, c.Codec, c.ClientsPerRound = 5, "fail-nth", 2
		c.Clients = c.Clients[:2]
	})
	res, err := Run(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "injected encode failure") {
		t.Fatalf("err = %v, want the injected encode failure", err)
	}
	if res == nil {
		t.Fatal("no Result returned with the error")
	}
	if got := res.History.Len(); got != 2 {
		t.Fatalf("%d rounds kept, want the 2 completed before the failure", got)
	}
	if res.FinalModel == nil || len(res.Global) == 0 {
		t.Fatal("partial Result carries no model")
	}
}

// cancelAt is a constant schedule that cancels a run once a client asks
// for the LR of step at or beyond its first step.
type cancelAt struct {
	first  int
	cancel context.CancelFunc
}

func (c cancelAt) LR(step int) float64 {
	if step >= c.first {
		c.cancel()
	}
	return 3e-3
}

// TestRunCancelledMidRound: cancelling ctx while round 2's clients train
// discards that round, returns round 1 with ctx's error, and leaves no
// member goroutine behind, flat and tiered. Each member closes its end when
// its session returns, so the shutdown does not sit out its 3 s drain.
func TestRunCancelledMidRound(t *testing.T) {
	for _, tiers := range []int{1, 2} {
		t.Run(fmt.Sprint("tiers-", tiers), func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := baseRun(t, func(c *RunConfig) {
				c.Rounds, c.Tiers = 5, tiers
				c.Spec.Schedule = cancelAt{first: c.Spec.Steps, cancel: cancel} // round 2's first step
			})
			start := time.Now()
			res, err := Run(ctx, cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if d := time.Since(start); d >= 3*time.Second {
				t.Fatalf("cancelled run took %v: the member shutdown waited out its drain", d)
			}
			if res == nil || res.History.Len() != 1 {
				t.Fatalf("result %+v, want round 1 alone", res)
			}
		})
	}
}

// refMeanDelta is MeanDelta as it was before meanFold existed: hold the
// cohort, sum it with tensor.Add, scale by 1/float32(n).
func refMeanDelta(updates [][]float32) ([]float32, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("fed: no client updates to aggregate")
	}
	n := len(updates[0])
	out := make([]float32, n)
	for i, u := range updates {
		if len(u) != n {
			return nil, fmt.Errorf("fed: update %d has %d params, want %d", i, len(u), n)
		}
		tensor.Add(out, u)
	}
	tensor.Scale(1/float32(len(updates)), out)
	return out, nil
}

// foldUpdates returns k distinct length-n updates as overlapping windows of
// one random buffer, so 64 updates of 1<<20 elements cost one vector.
func foldUpdates(rng *rand.Rand, k, n int) [][]float32 {
	buf := make([]float32, n+k)
	for i := range buf {
		buf[i] = float32(rng.NormFloat64())
	}
	out := make([][]float32, k)
	for i := range out {
		out[i] = buf[i : i+n]
	}
	return out
}

// TestMeanFoldAtWeightOneIsHeldMean: folding at weight 1 is bit-for-bit the
// held-cohort mean it replaced, for every cohort size and vector length the
// kernels treat differently (empty, scalar tail, one vector, both).
func TestMeanFoldAtWeightOneIsHeldMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var f meanFold
	for _, n := range []int{0, 1, 7, 8, 67, 1 << 20} {
		all := foldUpdates(rng, 64, n)
		for k := 1; k <= len(all); k++ {
			want, err := refMeanDelta(all[:k])
			if err != nil {
				t.Fatal(err)
			}
			f.reset(n)
			for _, u := range all[:k] {
				f.add(u, 1)
			}
			got := f.mean()
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n=%d k=%d elem %d: fold %x, held mean %x", n, k, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
			if f.n != k || f.weight != float64(k) {
				t.Fatalf("n=%d k=%d: fold counted %d updates of weight %v", n, k, f.n, f.weight)
			}
		}
	}
}

// TestMeanFoldWeightedMatchesFloat64: at staleness weights the fold is the
// weighted mean Σwᵢuᵢ/Σwᵢ to within 1e-6 of a float64 reference.
func TestMeanFoldWeightedMatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 67
	var f meanFold
	for k := 1; k <= 64; k++ {
		updates := foldUpdates(rng, k, n)
		ws := make([]float64, k)
		f.reset(n)
		for i, u := range updates {
			ws[i] = 1 / math.Pow(1+float64(rng.Intn(8)), 0.5)
			f.add(u, ws[i])
		}
		got := f.mean()
		for j := 0; j < n; j++ {
			var num, den float64
			for i, u := range updates {
				num += ws[i] * float64(u[j])
				den += ws[i]
			}
			if d := math.Abs(float64(got[j]) - num/den); d > 1e-6 {
				t.Fatalf("k=%d elem %d: fold %v, float64 %v (|Δ| %g)", k, j, got[j], num/den, d)
			}
		}
	}
}

// TestMeanFoldReuseAllocatesNothing: a fold reset to the same length reuses
// its buffer, so a long-running aggregator folds without allocating.
func TestMeanFoldReuseAllocatesNothing(t *testing.T) {
	u := make([]float32, 1000)
	var f meanFold
	f.reset(len(u))
	if allocs := testing.AllocsPerRun(20, func() {
		f.reset(len(u))
		f.add(u, 1)
		f.add(u, 0.5)
		f.mean()
	}); allocs != 0 {
		t.Fatalf("reset+add+mean allocates %.1f times", allocs)
	}
}

// TestRunDropsNonFiniteUpdates: a client whose training diverges to NaN/Inf
// is dropped as the networked aggregator drops one (it rejoins), so a
// run where every client diverges aggregates nothing and leaves the global
// model exactly at its initialisation.
func TestRunDropsNonFiniteUpdates(t *testing.T) {
	cfg := baseRun(t, func(c *RunConfig) {
		c.Rounds = 2
		c.Spec.Schedule = opt.Constant(1e30)
	})
	init := nn.NewModel(cfg.ModelConfig, rand.New(rand.NewSource(cfg.Seed))).Params().Flatten(nil)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.History.Rounds {
		if r.Clients != 0 {
			t.Fatalf("round %d folded %d diverged updates", r.Round, r.Clients)
		}
	}
	for i := range init {
		if math.Float32bits(res.Global[i]) != math.Float32bits(init[i]) {
			t.Fatalf("global[%d] = %v, init %v", i, res.Global[i], init[i])
		}
	}
	if ppl := res.History.FinalPPL(); math.IsNaN(ppl) || math.IsInf(ppl, 0) {
		t.Fatalf("final perplexity %v", ppl)
	}
}

// TestDecodeUpdateRefusesCarriedNonFinite: a sparse top-k update that
// carries a NaN or an infinity is refused at the decode door, and one that
// carries only finite values passes it.
func TestDecodeUpdateRefusesCarriedNonFinite(t *testing.T) {
	const n = 1000
	for _, bad := range []float32{0, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(i%17) * 1e-3
		}
		v[n/2] = bad // the largest magnitude a non-finite value has: always carried
		p, err := link.EncodeVector(&link.TopKCodec{Keep: 0.1}, v)
		if err != nil || p.CodecID != link.CodecSparse {
			t.Fatalf("setup: codec %d, err %v", p.CodecID, err)
		}
		_, err = decodeUpdate(&link.TopKCodec{}, p, n)
		if finite := bad == 0; finite != (err == nil) {
			t.Fatalf("update carrying %v: decode error %v", bad, err)
		}
	}
}

// TestCheckFinite: the guard every fold input passes rejects NaN and both
// infinities wherever they sit — among a sparse payload's carried elements
// when given its marks — and accepts the extremes of the finite range.
func TestCheckFinite(t *testing.T) {
	if err := checkFinite([]float32{0, -1, math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32}, nil); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		if checkFinite([]float32{1, 2, bad}, nil) == nil {
			t.Fatalf("%v accepted", bad)
		}
		// Given a sparse payload's marks, the carried elements are checked
		// and only they: the others decode to zeros.
		marks := []byte{0b101, 0, 0, 0, 0, 0, 0, 0}
		if checkFinite([]float32{1, 0, bad}, marks) == nil {
			t.Fatalf("carried %v accepted", bad)
		}
		if err := checkFinite([]float32{1, bad, 2}, marks); err != nil {
			t.Fatalf("an element the marks skip was read: %v", err)
		}
	}
}
