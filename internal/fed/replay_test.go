package fed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"photon/internal/ckpt"
	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/nn"
	"photon/internal/testutil"
)

// replayCfg is the aggregator shape the replay tests journal under: FedMom,
// so a redo must carry momentum, and q8, so every update goes through a
// lossy decode.
func replayCfg(dir string, async bool) ServerConfig {
	cfg := ServerConfig{ModelConfig: tinyCfg(), Seed: 11, Rounds: 100, ExpectClients: 2,
		Outer: NewFedMom(1, 0.9), Codec: "q8", WALDir: dir}
	if async {
		cfg.Async = &AsyncConfig{K: 2, Alpha: 0.5}
	}
	return cfg
}

// replayLive drives the real take and commit of the sync or async driver
// over a journaling aggState with synthetic q8 updates, two per window: the
// sync round's commit and seal, the async buffer's admission (its order
// hook) and commitVersion once the buffer is full. An async window folds one
// update trained on the current version and one trained up to three
// versions back, so staleness weights are not all 1. after sees the live
// state once each window has committed; the first commit error ends the
// run. It returns the live state and that error.
func replayLive(t *testing.T, cfg ServerConfig, commits int, after func(v int, st *aggState)) (*aggState, error) {
	t.Helper()
	st := newAggState(cfg)
	if _, err := st.openServer(); err != nil {
		t.Fatal(err)
	}
	defer st.jrn.close()
	if err := st.initModel(nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	enc, err := link.NewCodec(cfg.Codec)
	if err != nil {
		t.Fatal(err)
	}
	synth := func(id string, round int) *asking {
		v := make([]float32, len(st.global))
		for i := range v {
			v[i] = float32(rng.NormFloat64()) * 1e-2
		}
		p, err := link.EncodeVector(enc, v)
		if err != nil {
			t.Fatal(err)
		}
		vec, err := decodeUpdate(st.s.codec, p, len(st.global))
		if err != nil {
			t.Fatal(err)
		}
		mc := &memberConn{id: id}
		return &asking{task: task{mc: mc, round: round}, ans: answer{mc: mc, round: round, update: vec, payload: p, meta: map[string]float64{}}}
	}
	var async *asyncAggregator
	if cfg.Async != nil {
		async = newAsyncAggregator(st)
	}
	for v := 1; v <= commits; v++ {
		w := st.open(v, uint64(v), time.Now())
		if async == nil {
			// collect's order: journal each update, then fold it.
			if err := st.jrn.roundOpen(v, 0, []string{"a", "b"}); err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{"a", "b"} {
				if err := st.take(w, synth(id, v).ans); err != nil {
					t.Fatal(err)
				}
			}
			st.commit(w)
			if err := st.seal(w); err != nil {
				return st, err
			}
		} else {
			p := async.policy(w)
			for i, trained := range []int{max(v-4, 0), v - 1} {
				id := fmt.Sprintf("m%d-%d", v, i)
				st.s.reg.Join(id)
				q := synth(id, trained+1)
				if _, ok := p.order(q); !ok {
					t.Fatalf("window %d refused %s", v, id)
				}
				if err := st.take(w, q.ans); err != nil {
					return st, err
				}
			}
			if !p.full() {
				t.Fatalf("window %d is not full after two folds", v)
			}
			if err := async.commitVersion(w); err != nil {
				return st, err
			}
		}
		after(v, st)
	}
	return st, nil
}

// resumeFrom replays the WAL in dir into a fresh aggregator the way Serve
// does, with a fresh optimizer.
func resumeFrom(t *testing.T, dir string, async bool) (*aggState, *walResume) {
	t.Helper()
	wal, rv, err := ckpt.OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()
	foldRec := ckpt.RecMemberUpdate
	if async {
		foldRec = ckpt.RecBufferFold
	}
	res := replayWAL(rv, foldRec)
	st := newAggState(replayCfg("", async))
	if _, err := st.openServer(); err != nil {
		t.Fatal(err)
	}
	if err := st.restore(res); err != nil {
		t.Fatal(err)
	}
	return st, res
}

// assertSameState fails unless resumed holds live's params and outer
// optimizer state bit for bit.
func assertSameState(t *testing.T, what string, live, resumed *aggState) {
	t.Helper()
	for i := range live.global {
		if math.Float32bits(live.global[i]) != math.Float32bits(resumed.global[i]) {
			t.Fatalf("%s: param %d resumed as %x, live %x", what, i, math.Float32bits(resumed.global[i]), math.Float32bits(live.global[i]))
		}
	}
	lo, ro := live.cfg.Outer.(OuterState).Snapshot(), resumed.cfg.Outer.(OuterState).Snapshot()
	if len(lo) != len(ro) {
		t.Fatalf("%s: outer state has %d elements resumed, %d live", what, len(ro), len(lo))
	}
	for i := range lo {
		if math.Float32bits(lo[i]) != math.Float32bits(ro[i]) {
			t.Fatalf("%s: outer state %d resumed as %v, live %v", what, i, ro[i], lo[i])
		}
	}
}

// TestReplayRedoIsBitExact: the journal holds no post-step state, so a
// resume must redo every committed window from its journaled updates. After
// each commit of both drivers — through a compaction, whose carried
// momentum the later redos start from — replay plus redo must land on the
// live params and optimizer state bit for bit. A crash inside the
// compaction, before or after its base is written, must too.
func TestReplayRedoIsBitExact(t *testing.T) {
	for _, async := range []bool{false, true} {
		name := map[bool]string{false: "sync", true: "async"}[async]
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			_, err := replayLive(t, replayCfg(dir, async), compactEvery+2, func(v int, live *aggState) {
				resumed, res := resumeFrom(t, dir, async)
				assertSameState(t, fmt.Sprintf("commit %d", v), live, resumed)
				redone := v % compactEvery
				if res.committed != v || len(res.windows) != redone || (v >= compactEvery) != (res.outer != nil) {
					t.Fatalf("commit %d: replay committed %d, %d windows to redo (want %d), carried outer %v",
						v, res.committed, len(res.windows), redone, res.outer != nil)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		t.Run(name+"/torn-compaction", func(t *testing.T) {
			dir := t.TempDir()
			cfg := replayCfg(dir, async)
			fp := &ckpt.Failpoint{}
			cfg.Failpoint = fp
			live, err := replayLive(t, cfg, compactEvery, func(v int, _ *aggState) {
				if v == compactEvery-1 {
					fp.Arm("wal:state_snapshot") // the next compaction's carry append
				}
			})
			if !errors.Is(err, ckpt.ErrFailpoint) {
				t.Fatalf("compaction did not crash on its carry append: %v", err)
			}
			// Killed before the base was written: the old log redoes every
			// window from the fresh init.
			resumed, res := resumeFrom(t, dir, async)
			assertSameState(t, "crash before the base write", live, resumed)
			if len(res.windows) != compactEvery || res.outer != nil {
				t.Fatalf("crash before the base write: %d windows, carried outer %v", len(res.windows), res.outer != nil)
			}
			// Killed after the base was written but before the log rotated:
			// the base holds every window, the carry appended to the old log
			// holds the momentum.
			base := &ckpt.Checkpoint{Round: compactEvery, Params: append([]float32(nil), live.global...)}
			if err := ckpt.Save(filepath.Join(dir, "base.ckpt"), base); err != nil {
				t.Fatal(err)
			}
			resumed, res = resumeFrom(t, dir, async)
			assertSameState(t, "crash after the base write", live, resumed)
			if len(res.windows) != 0 || res.outer == nil {
				t.Fatalf("crash after the base write: %d windows, carried outer %v", len(res.windows), res.outer != nil)
			}
		})
	}
}

// TestResumeFinishesFullyJournaledRound: a log holding round 1's open and
// both cohort members' updates but no commit — where a crash between the
// last member_update and the round_commit leaves it — resumes through the
// empty re-ask path. The round is recorded once, neither member is asked to
// train it, and the params are the fold-then-step of the two payloads, bit
// for bit.
func TestResumeFinishesFullyJournaledRound(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := ServerConfig{ModelConfig: tinyCfg(), Seed: 21, Rounds: 1, ExpectClients: 2,
		RoundDeadline: 30 * time.Second, Outer: NewFedMom(1, 0.9), WALDir: t.TempDir()}
	ids := []string{"a", "b"}

	want := nn.NewModel(cfg.ModelConfig, rand.New(rand.NewSource(cfg.Seed))).Params().Flatten(nil)
	wal, _, err := ckpt.OpenWAL(cfg.WALDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := []ckpt.Record{{Type: ckpt.RecRoundOpen, Round: 1, IDs: ids}}
	var fold meanFold
	fold.reset(len(want))
	rng := rand.New(rand.NewSource(4))
	for _, id := range ids {
		v := make([]float32, len(want))
		for i := range v {
			v[i] = float32(rng.NormFloat64()) * 1e-2
		}
		recs = append(recs, ckpt.Record{Type: ckpt.RecMemberUpdate, Round: 1, Member: id, Data: encodePayloadBytes(link.Dense(v))})
		fold.add(v, 1)
	}
	NewFedMom(1, 0.9).Step(want, fold.mean(), 1)
	for i := range recs {
		if err := wal.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	wal.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Both members join and report any model they are asked to train; one
	// that is asked hangs up, so a failing run cannot wait on it.
	asked := make(chan string, len(ids))
	for _, id := range ids {
		go func(id string) {
			conn, err := link.Dial(l.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			if _, err := Handshake(conn, id, ""); err != nil {
				return
			}
			if msg, err := conn.Recv(); err == nil && msg.Type == link.MsgModel {
				asked <- id
			}
		}(id)
	}
	recorded := map[int]int{}
	cfg.OnRound = func(r metrics.Round) { recorded[r.Round]++ }
	res, err := Serve(ctx, l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded) != 1 || recorded[1] != 1 {
		t.Fatalf("rounds recorded %v, want round 1 once", recorded)
	}
	select {
	case id := <-asked:
		t.Fatalf("member %s was asked to train a round its journaled update covers", id)
	default:
	}
	for i := range want {
		if math.Float32bits(res.Global[i]) != math.Float32bits(want[i]) {
			t.Fatalf("param %d: resumed %v, want the fold-then-step %v", i, res.Global[i], want[i])
		}
	}
}

// TestReplayKeepsLaterRoundOpen: a sync round opened past an empty one (no
// updates, so no commit) keeps its journaled updates and stays open across
// the commit of the re-run earlier round, so neither window takes the
// other's updates.
func TestReplayKeepsLaterRoundOpen(t *testing.T) {
	pay := encodePayloadBytes(link.Dense([]float32{1}))
	ab := []string{"a", "b"}
	rv := &ckpt.Recovery{Records: []ckpt.Record{
		{Type: ckpt.RecRoundOpen, Round: 3, IDs: ab}, // empty: everyone straggled
		{Type: ckpt.RecRoundOpen, Round: 4, IDs: ab},
		{Type: ckpt.RecMemberUpdate, Round: 4, Member: "a", Data: pay}, // crash
		{Type: ckpt.RecRoundOpen, Round: 3, IDs: ab},                   // the next life re-runs round 3
		{Type: ckpt.RecMemberUpdate, Round: 3, Member: "b", Data: pay},
		{Type: ckpt.RecMemberUpdate, Round: 3, Member: "a", Data: pay},
		{Type: ckpt.RecRoundCommit, Round: 3},
	}}
	res := replayWAL(rv, ckpt.RecMemberUpdate)
	if res.committed != 3 || len(res.windows) != 1 || res.windows[0].step != 3 || len(res.windows[0].updates) != 2 ||
		res.windows[0].updates[0].member != "b" || res.windows[0].updates[1].round != 3 {
		t.Fatalf("committed %d, windows %+v: want round 3's two updates", res.committed, res.windows)
	}
	if res.open != 4 || len(res.cohort) != 2 || len(res.pending) != 1 || res.pending[0].round != 4 {
		t.Fatalf("open %d cohort %v pending %+v: want round 4 open with a's update", res.open, res.cohort, res.pending)
	}
}
