package fed

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"photon/internal/ckpt"
	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/nn"
	"photon/internal/tensor"
	"photon/internal/testutil"
)

// TestSyncStepErrorKeepsCompletedHistory: a step that fails (here a crash
// point armed on round 2's round_commit journal record, the way the crash
// sweeps arm it) must end the run through fail, whose Result still carries
// every round recorded before the crash, with the crash as the cause.
func TestSyncStepErrorKeepsCompletedHistory(t *testing.T) {
	cfg := tinyCfg()
	fp := &ckpt.Failpoint{}
	st := newAggState(ServerConfig{ModelConfig: cfg, Rounds: 3, ExpectClients: 2, Outer: FedAvg{},
		WALDir: t.TempDir(), Failpoint: fp})
	if _, err := st.openServer(); err != nil {
		t.Fatal(err)
	}
	defer st.jrn.close()
	st.globalModel = nn.NewModel(cfg, rand.New(rand.NewSource(1)))
	st.global = st.globalModel.Params().Flatten(nil)
	update := make([]float32, len(st.global))
	for i := range update {
		update[i] = 1e-3
	}
	loss := []map[string]float64{{"loss": 2}, {"loss": 4}}
	step := func(round int) error {
		w := st.open(round, uint64(round), time.Now())
		for _, m := range loss {
			st.add(w, round-1, update, m)
		}
		st.commit(w)
		return st.seal(w)
	}

	if err := step(1); err != nil {
		t.Fatal(err)
	}
	fp.Arm("wal:round_commit")
	stepErr := step(2)
	if !errors.Is(stepErr, ckpt.ErrFailpoint) {
		t.Fatalf("armed round_commit did not fail the step: %v", stepErr)
	}
	res, err := st.fail(2, stepErr)
	if !errors.Is(err, stepErr) {
		t.Fatalf("fail lost the cause: %v", err)
	}
	if res == nil || res.History.Len() != 2 {
		t.Fatalf("partial result does not carry rounds 1-2: %+v", res)
	}
	for i, r := range res.History.Rounds {
		if r.Round != i+1 || r.TrainLoss != 3 {
			t.Fatalf("partial result record %d: %+v", i, r)
		}
	}
}

// TestAsyncFoldsAtDispatchedVersion: a member that stamps its update with a
// version newer than the one it was sent cannot claim zero staleness — the
// journaled member_update record carries the version the aggregator
// dispatched with that task.
func TestAsyncFoldsAtDispatchedVersion(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := link.Dial(l.Addr())
		if err != nil {
			return
		}
		defer conn.Close()
		_ = ServeClient(ctx, conn, makeClients(t, tinyCfg(), 1)[0], tinySpec())
	}()
	// dispatched maps each task the liar was sent to the version stamped on
	// it; the liar answers every task claiming five versions newer.
	dispatched := map[int]float64{}
	liarDone := make(chan struct{})
	go func() {
		defer close(liarDone)
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
			if err != nil || msg.Type != link.MsgModel {
				return
			}
			ver := msg.Meta[link.VersionKey]
			dispatched[int(msg.Round)] = ver
			upd := make([]float32, msg.Payload.Elems)
			tensor.Fill(upd, 1e-3)
			conn.Send(&link.Message{Type: link.MsgUpdate, Round: msg.Round, ClientID: "liar",
				Meta: map[string]float64{"loss": 1, link.VersionKey: ver + 5}, Payload: link.Dense(upd)})
		}
	}()

	dir := t.TempDir()
	if _, err := Serve(ctx, l, ServerConfig{ModelConfig: tinyCfg(), Seed: 5, Rounds: 4, ExpectClients: 2,
		Outer: FedAvg{}, Async: &AsyncConfig{K: 1}, WALDir: dir}); err != nil {
		t.Fatal(err)
	}
	<-liarDone
	wal, rv, err := ckpt.OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()
	folds := 0
	for _, rec := range rv.Records {
		if rec.Type != ckpt.RecMemberUpdate || rec.Member != "liar" {
			continue
		}
		folds++
		if want, ok := dispatched[rec.Round]; !ok || float64(rec.Epoch) != want {
			t.Errorf("task %d folded at version %d, dispatched at %v", rec.Round, rec.Epoch, want)
		}
	}
	if folds == 0 {
		t.Fatal("no member_update record from the liar")
	}
}

// TestAsyncRoundIsVersionPlusOne: an async dispatch is numbered as a sync
// round is, by the model it trains on — version v goes out as round v+1 —
// in a fresh run and after a WAL restart alike, so a member's shared
// schedule (stepBase = (round−1)·Steps) follows the global model instead of
// a dispatch counter, and the WAL needs no record to keep rounds unique.
func TestAsyncRoundIsVersionPlusOne(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	dir := t.TempDir()
	clients := makeClients(t, tinyCfg(), 2)
	// life runs the fleet on dir until the given version commits and
	// returns every round record its members made.
	life := func(versions int) []metrics.Round {
		t.Helper()
		l, err := link.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var mu sync.Mutex
		var recs []metrics.Round
		var members sync.WaitGroup
		for _, c := range clients {
			members.Add(1)
			go func(c *Client) {
				defer members.Done()
				conn, err := link.Dial(l.Addr())
				if err != nil {
					return
				}
				defer conn.Close()
				_ = ServeClient(ctx, conn, c, tinySpec(), func(r metrics.Round) {
					mu.Lock()
					recs = append(recs, r)
					mu.Unlock()
				})
			}(c)
		}
		if _, err := Serve(ctx, l, ServerConfig{ModelConfig: tinyCfg(), Seed: 5, Rounds: versions, ExpectClients: 2,
			Outer: FedAvg{}, Async: &AsyncConfig{K: 2}, WALDir: dir}); err != nil {
			t.Fatal(err)
		}
		members.Wait()
		return recs
	}
	for i, versions := range []int{2, 4} {
		recs := life(versions)
		if len(recs) == 0 {
			t.Fatalf("life %d: members recorded no rounds", i+1)
		}
		for _, r := range recs {
			if r.Round != r.ModelVersion+1 {
				t.Errorf("life %d: version %d dispatched as round %d, want %d", i+1, r.ModelVersion, r.Round, r.ModelVersion+1)
			}
			if i == 1 && r.ModelVersion < 2 {
				t.Errorf("life 2 dispatched version %d, which life 1 committed past", r.ModelVersion)
			}
		}
	}
	// An async journal opens no rounds: a member_update names its round.
	wal, rv, err := ckpt.OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()
	for _, rec := range rv.Records {
		if rec.Type == ckpt.RecRoundOpen {
			t.Fatalf("async WAL holds a round_open record: %+v", rec)
		}
	}
}

// TestHostileNonFiniteUpdateIsEvicted: a member whose updates decode to NaN
// or Inf is dropped exactly like one whose updates fail to decode — in the
// sync round loop and in the async driver — and the global model stays
// finite on the honest member's contributions alone.
func TestHostileNonFiniteUpdateIsEvicted(t *testing.T) {
	for _, tc := range []struct {
		name  string
		async *AsyncConfig
		bad   float32
	}{
		{"sync/NaN", nil, float32(math.NaN())},
		{"sync/Inf", nil, float32(math.Inf(-1))},
		{"async/NaN", &AsyncConfig{K: 1}, float32(math.NaN())},
		{"async/Inf", &AsyncConfig{K: 1}, float32(math.Inf(1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			l, err := link.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				conn, err := link.Dial(l.Addr())
				if err != nil {
					return
				}
				defer conn.Close()
				_ = ServeClient(ctx, conn, makeClients(t, tinyCfg(), 1)[0], tinySpec())
			}()
			// The hostile member speaks the protocol correctly and answers
			// every model with a well-sized vector holding one bad value.
			go func() {
				conn, err := link.Dial(l.Addr())
				if err != nil {
					return
				}
				defer conn.Close()
				if _, err := Handshake(conn, "hostile", ""); err != nil {
					return
				}
				for {
					msg, err := conn.Recv()
					if err != nil || msg.Type != link.MsgModel {
						return
					}
					poison := make([]float32, msg.Payload.Elems)
					poison[len(poison)/2] = tc.bad
					conn.Send(&link.Message{Type: link.MsgUpdate, Round: msg.Round, ClientID: "hostile",
						Meta: map[string]float64{"loss": 1}, Payload: link.Dense(poison)})
				}
			}()

			evictions := 0
			res, err := Serve(ctx, l, ServerConfig{
				ModelConfig:   tinyCfg(),
				Seed:          5,
				Rounds:        3,
				ExpectClients: 2,
				Outer:         FedAvg{},
				Async:         tc.async,
				OnRound:       func(r metrics.Round) { evictions += r.Evictions },
			})
			if err != nil {
				t.Fatal(err)
			}
			if evictions != 1 {
				t.Fatalf("hostile member caused %d evictions, want 1", evictions)
			}
			for _, r := range res.History.Rounds {
				if r.Clients != 1 {
					t.Fatalf("round %d folded %d updates, want the honest member's alone", r.Round, r.Clients)
				}
			}
			for i, v := range res.Global {
				if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
					t.Fatalf("global[%d] = %v after a hostile member", i, v)
				}
			}
		})
	}
}

// TestLateAnswerIsDropped: a member that straggles past round 1's deadline
// and answers round 1 only during round 2, with a distinctive update, has
// that answer dropped. Round 1 counts it as a straggler and folds the
// punctual member alone; round 2 folds exactly the two round-2 answers, bit
// for bit.
func TestLateAnswerIsDropped(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st := newAggState(ServerConfig{ModelConfig: tinyCfg(), Seed: 3, Rounds: 2, ExpectClients: 2,
		RoundDeadline: time.Second, Outer: FedAvg{}})
	if _, err := st.openServer(); err != nil {
		t.Fatal(err)
	}
	if err := st.restore(&walResume{}); err != nil {
		t.Fatal(err)
	}
	fill := func(v float32) []float32 {
		u := make([]float32, len(st.global))
		tensor.Fill(u, v)
		return u
	}
	punctual := func(round int32) []float32 { return fill(1e-3 * float32(round)) }
	late, distinctive := fill(-4e-3), fill(7)
	want := append([]float32(nil), st.global...)
	FedAvg{}.Step(want, meanOf([][]float32{punctual(1)}), 1)
	FedAvg{}.Step(want, meanOf([][]float32{punctual(2), late}), 2)

	var members sync.WaitGroup
	join := func(id string, answer func(round int32, reply func(round int32, u []float32))) {
		srv, conn := link.Pipe()
		members.Add(1)
		go func() {
			defer members.Done()
			defer conn.Close()
			if _, err := Handshake(conn, id, ""); err != nil {
				return
			}
			reply := func(round int32, u []float32) {
				conn.Send(&link.Message{Type: link.MsgUpdate, Round: round, ClientID: id,
					Meta: map[string]float64{"loss": 1}, Payload: link.Dense(u)})
			}
			for {
				msg, err := conn.Recv()
				if err != nil || msg.Type != link.MsgModel {
					return
				}
				answer(msg.Round, reply)
			}
		}()
		st.s.handshake(ctx, srv)
	}
	join("punctual", func(round int32, reply func(int32, []float32)) { reply(round, punctual(round)) })
	// The late member sits on round 1 until round 2's model arrives.
	join("late", func(round int32, reply func(int32, []float32)) {
		if round == 2 {
			reply(1, distinctive)
			reply(2, late)
		}
	})
	stop := st.s.startLoops(ctx, nil)
	res, err := st.runSync(ctx, &walResume{}, 0)
	stop(true)
	members.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if n := res.History.Len(); n != 2 {
		t.Fatalf("%d rounds recorded, want 2", n)
	}
	r1, r2 := res.History.Rounds[0], res.History.Rounds[1]
	if r1.Clients != 1 || r1.Stragglers != 1 {
		t.Fatalf("round 1 folded %d with %d stragglers, want the punctual member's alone and one straggler", r1.Clients, r1.Stragglers)
	}
	if r2.Clients != 2 || r2.Stragglers != 0 {
		t.Fatalf("round 2 folded %d with %d stragglers, want both round-2 answers", r2.Clients, r2.Stragglers)
	}
	for i := range want {
		if math.Float32bits(res.Global[i]) != math.Float32bits(want[i]) {
			t.Fatalf("param %d is %v, want %v: a late answer reached a fold", i, res.Global[i], want[i])
		}
	}
}

// TestAsyncRecordsCriticalPath: an async version's record carries the
// critical-path split of its slowest folded answer — broadcast, train,
// encode and decode, and the member it came from — as a sync round's does,
// and the server-side decode time and compression ratio of the answers it
// folded.
func TestAsyncRecordsCriticalPath(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	clients := makeClients(t, tinyCfg(), 2)
	var members sync.WaitGroup
	for _, c := range clients {
		members.Add(1)
		go func(c *Client) {
			defer members.Done()
			conn, err := link.Dial(l.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			_ = ServeClient(ctx, conn, c, tinySpec())
		}(c)
	}
	res, err := Serve(ctx, l, ServerConfig{ModelConfig: tinyCfg(), Seed: 5, Rounds: 4, ExpectClients: 2,
		Outer: FedAvg{}, Async: &AsyncConfig{K: 1}})
	members.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.History.Rounds {
		p := r.Phases
		if (r.SlowestID != clients[0].ID && r.SlowestID != clients[1].ID) || r.SlowestPhase == "" {
			t.Errorf("version %d: slowest %q (%q), want a member and its slowest phase", r.ModelVersion, r.SlowestID, r.SlowestPhase)
		}
		if p.BroadcastMs <= 0 || p.TrainMs <= 0 || p.EncodeMs <= 0 || p.DecodeMs <= 0 {
			t.Errorf("version %d: phases %+v: want broadcast, train, encode and decode", r.ModelVersion, p)
		}
		if r.DecodeMs <= 0 || r.CompressionRatio <= 0 {
			t.Errorf("version %d: decode %v ms, ratio %v: want its folded answers' decode and ratio", r.ModelVersion, r.DecodeMs, r.CompressionRatio)
		}
	}
}
