package photon

// End-to-end tests for asynchronous buffered (FedBuff-style) aggregation:
// a 10x straggler must no longer gate the global commit cadence, the
// staleness metadata must surface in the round records, and the async
// durable control plane must survive a crash-point sweep over its WAL
// record types — resuming mid-buffer to the bit-exact uninterrupted
// trajectory without ever training a client round twice.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"photon/internal/ckpt"
	"photon/internal/fed"
	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/testutil"
)

// asyncServerConfig is durableServerConfig switched into FedBuff mode:
// rounds count version commits and k updates fold per commit.
func asyncServerConfig(seed int64, versions, k int, outer fed.OuterOpt) fed.ServerConfig {
	cfg := durableServerConfig(seed, versions, outer)
	cfg.Async = &fed.AsyncConfig{K: k, Alpha: 0.5}
	return cfg
}

// asyncRun is one finished async fleet run: the server's round records with
// their commit arrival times, plus the fast client's per-round times.
type asyncRun struct {
	recs     []metrics.Round
	commitAt []time.Time
	fastAt   []time.Time
}

// runStragglerFleet runs a 2-client fleet where d1 trains stepsRatio x more
// local steps than d0 (a compute straggler, not a dead member), in either
// sync or async mode, and returns the commit/round timeline.
func runStragglerFleet(t *testing.T, async bool, versions, fastSteps, slowSteps int) asyncRun {
	t.Helper()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var mu sync.Mutex
	out := asyncRun{}

	fastSpec := netSpec()
	fastSpec.Steps = fastSteps
	slowSpec := netSpec()
	slowSpec.Steps = slowSteps

	fastDone := make(chan error, 1)
	go func() {
		fastDone <- fed.RunResilientClient(ctx, func(ctx context.Context) (*link.Conn, error) {
			return link.DialContext(ctx, l.Addr())
		}, netClient(t, "fast", 0), fastSpec, fed.ReconnectConfig{MaxAttempts: 5},
			func(r metrics.Round) {
				mu.Lock()
				out.fastAt = append(out.fastAt, time.Now())
				mu.Unlock()
			})
	}()
	go func() {
		conn, err := link.Dial(l.Addr())
		if err != nil {
			return
		}
		defer conn.Close()
		_ = fed.ServeClient(ctx, conn, netClient(t, "slow", 1), slowSpec)
	}()

	cfg := fed.ServerConfig{
		ModelConfig:   tinyNetCfg(),
		Seed:          29,
		Rounds:        versions,
		ExpectClients: 2,
		MinClients:    1,
		RoundDeadline: 30 * time.Second,
		Outer:         fed.FedAvg{},
		OnRound: func(r metrics.Round) {
			mu.Lock()
			out.recs = append(out.recs, r)
			out.commitAt = append(out.commitAt, time.Now())
			mu.Unlock()
		},
	}
	if async {
		cfg.Async = &fed.AsyncConfig{K: 1, Alpha: 0.5}
	}
	if _, err := fed.Serve(context.Background(), l, cfg); err != nil {
		t.Fatalf("async=%v server: %v", async, err)
	}
	if cerr := <-fastDone; cerr != nil {
		t.Fatalf("async=%v fast client: %v", async, cerr)
	}
	mu.Lock()
	defer mu.Unlock()
	return out
}

// medianInterval returns the median gap between consecutive timestamps.
func medianInterval(ts []time.Time) time.Duration {
	if len(ts) < 2 {
		return 0
	}
	gaps := make([]time.Duration, 0, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		gaps = append(gaps, ts[i].Sub(ts[i-1]))
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	return gaps[len(gaps)/2]
}

// commitRate is commits per second between the first and last commit,
// excluding the join/warmup phase before the first one.
func commitRate(ts []time.Time) float64 {
	if len(ts) < 2 {
		return 0
	}
	span := ts[len(ts)-1].Sub(ts[0]).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(len(ts)-1) / span
}

// TestAsyncStraggler is the headline async acceptance test: with one member
// training 10x more local steps per dispatch, the buffered async mode must
// commit global versions at the fast member's cadence — at least 4x the
// synchronous commit rate, with the median commit interval within 1.5x of
// the fast client's own round interval — and the straggler's late updates
// must land with nonzero recorded staleness rather than gating commits.
func TestAsyncStraggler(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	// The step counts are chosen so the slow member is ~10x slower in wall
	// time once the fixed per-dispatch overhead (encode/wire/decode of the
	// tiny model, ~15ms on loopback) is added to both members' training time.
	// The async version count exceeds the step ratio because the straggler's
	// first arrival lands at a commit index bounded by the wall-time ratio,
	// which can approach the step ratio when compute dominates overhead (e.g.
	// under the race detector) — 60 versions guarantee the arrival lands
	// inside the run on any machine.
	const (
		fastSteps     = 2
		slowSteps     = 100
		asyncVersions = 60
		syncRounds    = 4
	)
	async := runStragglerFleet(t, true, asyncVersions, fastSteps, slowSteps)
	syncRun := runStragglerFleet(t, false, syncRounds, fastSteps, slowSteps)

	if len(async.recs) != asyncVersions {
		t.Fatalf("async run committed %d versions, want %d", len(async.recs), asyncVersions)
	}
	for i, r := range async.recs {
		if r.ModelVersion != i+1 {
			t.Fatalf("commit %d carries version %d, want %d", i, r.ModelVersion, i+1)
		}
		if r.BufferFill != 1 {
			t.Fatalf("version %d folded %d updates, want K=1", r.ModelVersion, r.BufferFill)
		}
	}
	if len(syncRun.recs) != syncRounds {
		t.Fatalf("sync control completed %d rounds, want %d", len(syncRun.recs), syncRounds)
	}

	// Straggler no longer gates commit cadence: the async commit rate must
	// beat the barrier-synchronized control by at least 4x in the same
	// fleet (expected ~10x: the sync round waits a straggler-interval, async
	// commits every fast-interval).
	aRate, sRate := commitRate(async.commitAt), commitRate(syncRun.commitAt)
	if aRate < 4*sRate {
		t.Fatalf("async commit rate %.2f/s is not >= 4x sync rate %.2f/s", aRate, sRate)
	}
	t.Logf("commit rates: async %.2f/s, sync %.2f/s (%.1fx)", aRate, sRate, aRate/sRate)

	// Commit cadence tracks the fast client, not the straggler.
	commitMed, fastMed := medianInterval(async.commitAt), medianInterval(async.fastAt)
	if fastMed > 0 && commitMed > fastMed*3/2 {
		t.Fatalf("median commit interval %v exceeds 1.5x the fast client's round interval %v", commitMed, fastMed)
	}

	// The straggler's updates landed late, were staleness-stamped, and were
	// folded anyway (down-weighted) instead of dropped.
	sawStale := false
	for _, r := range async.recs {
		if r.MeanStaleness > 0 {
			sawStale = true
			break
		}
	}
	if !sawStale {
		t.Fatal("no commit recorded nonzero staleness: the straggler's updates never folded")
	}
}

// asyncControlRun completes an uninterrupted async run and returns its
// final params.
func asyncControlRun(t *testing.T, seed int64, versions, k int, outer fed.OuterOpt) []float32 {
	t.Helper()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := 0; i < 2; i++ {
		go func(i int) {
			conn, err := link.Dial(l.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			_ = fed.ServeClient(ctx, conn, netClient(t, fmt.Sprintf("d%d", i), i), netSpec())
		}(i)
	}
	res, err := fed.Serve(context.Background(), l, asyncServerConfig(seed, versions, k, outer))
	if err != nil {
		t.Fatalf("async control run: %v", err)
	}
	return res.Global
}

// asyncCrashResumeRun is crashResumeRun's async twin: crashRestart over a
// FedBuff aggregator, whose second life re-folds any journaled mid-buffer
// state and must reach the final version.
func asyncCrashResumeRun(t *testing.T, site string, seed int64, versions, k int, newOuter func() fed.OuterOpt) (*fed.Result, map[string]map[int]int) {
	t.Helper()
	res, served, _ := crashRestart(t, site, func() fed.ServerConfig {
		return asyncServerConfig(seed, versions, k, newOuter())
	})
	return res, served
}

// TestAsyncCrashPointSweep kills and restarts the async aggregator after
// each async WAL record type — including mid-buffer, after a member_update
// landed but before its version committed — and asserts recovery each time:
// the resumed run re-folds the journaled pending buffer, completes all
// versions, never trains a client round twice (an async round is the
// dispatched version + 1, so a re-sent version is answered from the
// member's reply cache), and matches the uninterrupted control within 1e-5. FedMom is
// the outer optimizer so the redone versions carry momentum; K equals the
// cohort so every version's buffer is an unordered pair and the refold is
// bit-exact regardless of arrival order.
func TestAsyncCrashPointSweep(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const (
		seed     = 83
		versions = 5
		k        = 2
	)
	newOuter := func() fed.OuterOpt { return fed.NewFedMom(1, 0.9) }
	control := asyncControlRun(t, seed, versions, k, newOuter())

	// round_open is excluded: async journals none.
	sites := []ckpt.RecordType{
		ckpt.RecMemberUpdate, ckpt.RecRoundCommit,
	}
	for _, rt := range sites {
		site := "wal:" + rt.String()
		t.Run(rt.String(), func(t *testing.T) {
			res, served := asyncCrashResumeRun(t, site, seed, versions, k, newOuter)
			assertNoDoubleTraining(t, site, served)
			if diff := maxAbsDiff(control, res.Global); diff > 1e-5 {
				t.Fatalf("site %s: resumed async run diverged from control: max |Δ| = %g", site, diff)
			}
		})
	}
}
