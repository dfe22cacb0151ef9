package serve

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"photon/internal/eval"
	"photon/internal/link"
	"photon/internal/nn"
	"photon/internal/testutil"
)

// startServer spins up an engine and TCP server for tests, returning a
// connected client and a shutdown func.
func startServer(t *testing.T, m *nn.Model, cfg Config) (*Client, func()) {
	t.Helper()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(m, cfg)
	srv := NewServer(eng, l)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Run(ctx)
	}()
	client, err := DialServer(context.Background(), srv.Addr())
	if err != nil {
		cancel()
		eng.Close()
		t.Fatal(err)
	}
	return client, func() {
		client.Close()
		cancel()
		<-done
		eng.Close()
	}
}

// TestServerEndToEnd drives generation and scoring through the real wire
// path — TCP, frames, engine, back — and checks both against in-process
// references computed before the engine took the model over.
func TestServerEndToEnd(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	m := testModel(11)
	prompt := []int{4, 9, 2, 33}
	cont := []int{7, 1, 15}
	wantTokens := m.GenerateOpts(rand.New(rand.NewSource(21)), prompt, 8, nn.SampleOpts{Temperature: 0.7, TopK: 20})
	wantScore := eval.ContinuationLogProb(m, prompt, cont)

	client, shutdown := startServer(t, m, Config{MaxBatch: 4, MaxSeq: 64})
	defer shutdown()

	got, err := client.Generate(prompt, 8, GenOpts{Sample: nn.SampleOpts{Temperature: 0.7, TopK: 20}, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantTokens) {
		t.Fatalf("got %d tokens, want %d", len(got), len(wantTokens))
	}
	for i := range got {
		if got[i] != wantTokens[i] {
			t.Fatalf("token %d: wire %d, in-process %d", i, got[i], wantTokens[i])
		}
	}

	score, err := client.Score(prompt, cont)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(score-wantScore) > 1e-4 {
		t.Fatalf("wire score %g, in-process %g", score, wantScore)
	}
}

// TestServerConcurrentClients pipelines many requests from several
// goroutines over one connection, exercising the continuous batch under
// real concurrency: every request must come back correct and the engine must
// report more than one sequence resident at some point.
func TestServerConcurrentClients(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	m := testModel(12)
	client, shutdown := startServer(t, m, Config{MaxBatch: 4, MaxSeq: 64, Queue: 32})
	defer shutdown()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tokens, err := client.Generate([]int{g + 1}, 12, GenOpts{Seed: int64(g)})
			if err != nil {
				errs <- err
				return
			}
			if len(tokens) != 12 {
				errs <- errTokens(len(tokens))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errTokens int

func (e errTokens) Error() string { return "wrong token count" }

// TestServerErrorPropagation checks a rejected request surfaces its server-
// side error text to the caller instead of hanging or tearing the
// connection down.
func TestServerErrorPropagation(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	m := testModel(13)
	client, shutdown := startServer(t, m, Config{MaxBatch: 1, MaxSeq: 8})
	defer shutdown()

	if _, err := client.Generate([]int{1}, 0, GenOpts{}); err == nil {
		t.Fatal("MaxNew=0 should fail")
	}
	// Connection must remain usable after the error.
	if _, err := client.Generate([]int{1}, 3, GenOpts{}); err != nil {
		t.Fatalf("connection unusable after request error: %v", err)
	}
}

// TestServerDeadlinePropagation checks the relative deadline crosses the
// wire: a tiny budget on a long request returns ErrDeadline text (partial
// results are a server-side concept; the wire marks the request failed).
func TestServerDeadlinePropagation(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	m := testModel(14)
	client, shutdown := startServer(t, m, Config{MaxBatch: 1, MaxSeq: 4096})
	defer shutdown()

	_, err := client.Generate([]int{1}, 4000, GenOpts{Deadline: 5 * time.Millisecond})
	if err == nil {
		t.Fatal("deadline-bounded long request should fail")
	}
}

// TestServerBadToken: a request carrying an id the model does not have —
// past the vocabulary, or negative, which the wire decoder refuses before the
// engine sees it — comes back as an error result, and the next request on the
// same connection is served.
func TestServerBadToken(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	m := testModel(15)
	vocab := m.Cfg.VocabSize
	client, shutdown := startServer(t, m, Config{MaxBatch: 2, MaxSeq: 64})
	defer shutdown()

	for _, bad := range []func() error{
		func() error { _, err := client.Generate([]int{1, vocab}, 3, GenOpts{}); return err },
		func() error { _, err := client.Score([]int{1, 2}, []int{vocab + 1}); return err },
		func() error { _, err := client.Generate([]int{-1, 2}, 3, GenOpts{}); return err },
	} {
		if err := bad(); err == nil {
			t.Fatal("request with an out-of-vocabulary token succeeded")
		}
		if out, err := client.Generate([]int{1, 2}, 3, GenOpts{}); err != nil || len(out) != 3 {
			t.Fatalf("connection after a bad token: %d tokens, err %v", len(out), err)
		}
	}
}

// TestPayloadToTokensRejectsNonIds: token payloads are float32 on the wire;
// only the exact non-negative integers a float32 holds decode to ids.
func TestPayloadToTokensRejectsNonIds(t *testing.T) {
	if got, err := payloadToTokens(link.Dense([]float32{0, 7, 1 << 24})); err != nil || !slices.Equal(got, []int{0, 7, 1 << 24}) {
		t.Fatalf("valid ids decoded to %v, %v", got, err)
	}
	for _, v := range []float32{-1, 2.5, float32(math.NaN()), float32(math.Inf(1)), 1<<24 + 2} {
		if got, err := payloadToTokens(link.Dense([]float32{3, v})); err == nil {
			t.Fatalf("payload value %v decoded to ids %v", v, got)
		}
	}
}
