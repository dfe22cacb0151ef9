package photon

// End-to-end tests for the durable control plane: a WAL-journaling root
// aggregator killed mid-run via an armed crash point and restarted on the
// same directory must resume the run — matching an uninterrupted control
// run to float tolerance, never training any client round twice — and a
// crash-point sweep exercises recovery after every WAL record type. The
// overhead guard keeps journaling from creeping into the round critical
// path.

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// durableServerConfig is the shared aggregator shape for these tests: two
// expected clients, a participation floor of two so resumed rounds wait for
// the cohort to reconnect, and a deadline long enough to never fire.
func durableServerConfig(seed int64, rounds int, outer fed.OuterOpt) fed.ServerConfig {
	return fed.ServerConfig{
		ModelConfig:   tinyNetCfg(),
		Seed:          seed,
		Rounds:        rounds,
		ExpectClients: 2,
		MinClients:    2,
		RoundDeadline: 30 * time.Second,
		Outer:         outer,
	}
}

// controlRun completes an uninterrupted run and returns its final params.
func controlRun(t *testing.T, seed int64, rounds int, outer fed.OuterOpt) []float32 {
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
	res, err := fed.Serve(context.Background(), l, durableServerConfig(seed, rounds, outer))
	if err != nil {
		t.Fatalf("control run: %v", err)
	}
	return res.Global
}

// crashResumeRun runs crashRestart over durableServerConfig, publishing to
// regDir when it is non-empty.
func crashResumeRun(t *testing.T, site string, seed int64, rounds int, newOuter func() fed.OuterOpt, regDir string) (*fed.Result, map[string]map[int]int) {
	t.Helper()
	res, served, _ := crashRestart(t, site, func() fed.ServerConfig {
		cfg := durableServerConfig(seed, rounds, newOuter())
		cfg.RegistryDir = regDir
		return cfg
	})
	return res, served
}

// crashRestart runs the crash/restart choreography once, sync or async:
// two resilient clients train against a WAL-journaling aggregator (newCfg
// builds each life's config) whose failpoint is armed at site once round 2
// is recorded; the aggregator dies on the armed append, is restarted on the
// same WAL directory, and must finish the run. It returns the resumed run's
// result, each client's per-round served counts (every count must be 1 — a
// round trained twice would advance the client's data stream off the control
// trajectory), and how many times the aggregator's OnRound recorded each
// round or version across both lives.
func crashRestart(t *testing.T, site string, newCfg func() fed.ServerConfig) (*fed.Result, map[string]map[int]int, map[int]int) {
	t.Helper()
	walDir := t.TempDir()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// The aggregator closes its listener when it dies (a cancelled
	// AcceptContext ends the listener's life), so the second life re-binds
	// the same address — the clients keep dialing the captured string.
	addr := l.Addr()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var mu sync.Mutex
	served := map[string]map[int]int{}
	clientDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("d%d", i)
		go func(i int, id string) {
			clientDone <- fed.RunResilientClient(ctx, func(ctx context.Context) (*link.Conn, error) {
				return link.DialContext(ctx, addr)
			}, netClient(t, id, i), netSpec(), fed.ReconnectConfig{
				MaxAttempts:    100,
				InitialBackoff: 20 * time.Millisecond,
				MaxBackoff:     200 * time.Millisecond,
			}, func(r metrics.Round) {
				mu.Lock()
				if served[id] == nil {
					served[id] = map[int]int{}
				}
				served[id][r.Round]++
				mu.Unlock()
			})
		}(i, id)
	}

	// First life: arm the crash point once the run is warm (when round 2 is
	// recorded), so the armed append fires mid-run rather than at startup.
	// OnRound runs on the goroutine that called Serve, so recorded needs no
	// lock.
	recorded := map[int]int{}
	fp := &ckpt.Failpoint{}
	cfg := newCfg()
	cfg.WALDir, cfg.Failpoint = walDir, fp
	cfg.OnRound = func(r metrics.Round) {
		recorded[r.Round]++
		if r.Round == 2 {
			fp.Arm(site)
		}
	}
	if _, err := fed.Serve(context.Background(), l, cfg); err == nil || !errors.Is(err, ckpt.ErrFailpoint) {
		t.Fatalf("site %s: first life did not die on the armed crash point: %v", site, err)
	}
	if !fp.Fired() {
		t.Fatalf("site %s: failpoint armed but never fired", site)
	}

	// Second life: same WAL directory, no failpoint. The resilient clients
	// reconnect to it and the run must complete.
	l2, err := link.Listen(addr)
	if err != nil {
		t.Fatalf("site %s: re-listen on %s: %v", site, addr, err)
	}
	defer l2.Close()
	cfg2 := newCfg()
	cfg2.WALDir = walDir
	cfg2.OnRound = func(r metrics.Round) { recorded[r.Round]++ }
	res, err := fed.Serve(context.Background(), l2, cfg2)
	if err != nil {
		t.Fatalf("site %s: resumed run: %v", site, err)
	}
	for i := 0; i < 2; i++ {
		if cerr := <-clientDone; cerr != nil {
			t.Fatalf("site %s: resilient client: %v", site, cerr)
		}
	}
	if res.History.Len() == 0 || res.History.Rounds[res.History.Len()-1].Round != cfg.Rounds {
		t.Fatalf("site %s: resumed run did not reach round %d: %d records", site, cfg.Rounds, res.History.Len())
	}
	mu.Lock()
	defer mu.Unlock()
	return res, served, recorded
}

func maxAbsDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m {
			m = d
		}
	}
	return m
}

func assertNoDoubleTraining(t *testing.T, site string, served map[string]map[int]int) {
	t.Helper()
	for id, byRound := range served {
		for r, n := range byRound {
			if n > 1 {
				t.Fatalf("site %s: client %s trained round %d %d times — its data stream diverged", site, id, r, n)
			}
		}
	}
}

// TestAggregatorCrashResume is the root-tier crash-recovery acceptance
// test (the root-aggregator counterpart of TestRelayCrashCohortReconnects):
// the aggregator is killed mid-round — after journaling one of the two
// member updates — restarted on the same WAL directory, re-collects only
// the lost update via cached redelivery, and the finished run's FedAvg
// output matches an uninterrupted control run within 1e-5. The committed
// checkpoints must also land in the content-addressed registry with the
// latest tag on the final round.
func TestAggregatorCrashResume(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const (
		seed   = 91
		rounds = 6
	)
	control := controlRun(t, seed, rounds, fed.FedAvg{})
	regDir := t.TempDir()
	res, served := crashResumeRun(t, "wal:member_update", seed, rounds,
		func() fed.OuterOpt { return fed.FedAvg{} }, regDir)

	if diff := maxAbsDiff(control, res.Global); diff > 1e-5 {
		t.Fatalf("resumed run diverged from the uninterrupted control: max |Δ| = %g", diff)
	}
	assertNoDoubleTraining(t, "wal:member_update", served)

	// Registry: the latest tag must resolve to the final committed round,
	// bit-identical to the run's final params, with lineage attached.
	reg, err := ckpt.OpenRegistry(regDir)
	if err != nil {
		t.Fatal(err)
	}
	c, man, err := reg.Get("tag:latest")
	if err != nil {
		t.Fatalf("tag:latest: %v", err)
	}
	if c.Round != rounds {
		t.Fatalf("latest tag points at round %d, want %d", c.Round, rounds)
	}
	if maxAbsDiff(c.Params, res.Global) != 0 {
		t.Fatal("registry checkpoint is not bit-identical to the final model")
	}
	if man.Lineage["job"] == "" || man.Lineage["round"] == "" {
		t.Fatalf("manifest lineage incomplete: %v", man.Lineage)
	}
}

// TestCrashPointSweep kills and restarts the aggregator after every WAL
// record type and asserts the recovery invariants each time: the first
// life dies on the armed failpoint, the second life completes all rounds,
// no client round is ever trained twice, and the final model matches the
// uninterrupted control within 1e-5. FedMom is the outer optimizer so the
// resumed run's momentum must be re-stepped through every committed round
// the replay redoes.
func TestCrashPointSweep(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const (
		seed   = 77
		rounds = 5
	)
	newOuter := func() fed.OuterOpt { return fed.NewFedMom(1, 0.9) }
	control := controlRun(t, seed, rounds, newOuter())

	sites := []ckpt.RecordType{
		ckpt.RecRoundOpen, ckpt.RecMemberUpdate, ckpt.RecRoundCommit,
	}
	for _, rt := range sites {
		site := "wal:" + rt.String()
		t.Run(rt.String(), func(t *testing.T) {
			res, served := crashResumeRun(t, site, seed, rounds, newOuter, "")
			assertNoDoubleTraining(t, site, served)
			if diff := maxAbsDiff(control, res.Global); diff > 1e-5 {
				t.Fatalf("site %s: resumed run diverged from control: max |Δ| = %g", site, diff)
			}
		})
	}
}

// TestEveryRoundRecordedOnceAcrossCrash kills and restarts the aggregator
// at every crash site of both sweeps and counts the aggregator's OnRound
// records over both lives: each round (sync) or version (async) 1..N must be
// recorded exactly once. A window whose updates were all journaled but
// never committed must be redone and sealed in the second life, and a
// committed window redone by replay must not be recorded again. FedMom
// makes the redo carry momentum.
func TestEveryRoundRecordedOnceAcrossCrash(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const rounds = 5
	newOuter := func() fed.OuterOpt { return fed.NewFedMom(1, 0.9) }
	for _, mode := range []struct {
		name   string
		sites  []ckpt.RecordType
		newCfg func() fed.ServerConfig
	}{
		{"sync", []ckpt.RecordType{
			ckpt.RecRoundOpen, ckpt.RecMemberUpdate, ckpt.RecRoundCommit,
		}, func() fed.ServerConfig { return durableServerConfig(77, rounds, newOuter()) }},
		{"async", []ckpt.RecordType{
			ckpt.RecMemberUpdate, ckpt.RecRoundCommit,
		}, func() fed.ServerConfig { return asyncServerConfig(83, rounds, 2, newOuter()) }},
	} {
		for _, rt := range mode.sites {
			site := "wal:" + rt.String()
			t.Run(mode.name+"/"+rt.String(), func(t *testing.T) {
				_, served, recorded := crashRestart(t, site, mode.newCfg)
				assertNoDoubleTraining(t, site, served)
				for r := 1; r <= rounds; r++ {
					if recorded[r] != 1 {
						t.Errorf("site %s: round %d recorded %d times across the crash, want 1 (%v)", site, r, recorded[r], recorded)
					}
				}
			})
		}
	}
}

// TestWALOverheadGuard keeps journaling off the round critical path: at
// Quick scale, the median journaled round must cost no more than 5% over
// the non-journaled median (plus a small absolute floor so scheduler
// jitter on a loaded CI runner cannot fail a healthy build). Only the
// commit record fsyncs, so the expected overhead is one flush per round.
func TestWALOverheadGuard(t *testing.T) {
	const rounds = 8
	measure := func(walDir string) float64 {
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
		var walls []float64
		cfg := durableServerConfig(13, rounds, fed.FedAvg{})
		cfg.WALDir = walDir
		cfg.OnRound = func(r metrics.Round) { walls = append(walls, r.WallMs) }
		if _, err := fed.Serve(context.Background(), l, cfg); err != nil {
			t.Fatal(err)
		}
		sort.Float64s(walls)
		return walls[len(walls)/2]
	}
	plain := measure("")
	journaled := measure(t.TempDir())
	limit := plain*1.05 + 50
	if journaled > limit {
		t.Fatalf("journaled median round %.2fms exceeds guard %.2fms (non-journaled median %.2fms)",
			journaled, limit, plain)
	}
	t.Logf("round medians: plain %.2fms, journaled %.2fms", plain, journaled)
}
