package photon

// Tests for the Job API surface: context cancellation with partial results,
// live event streaming, registry-based extension points, and resume
// through the new entry point.

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"photon/internal/data"
	"photon/internal/metrics"
)

func TestJobCancellationReturnsPartialResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job := NewJob(WithRounds(500)) // far more rounds than can finish

	// Cancel as soon as two rounds have been observed live.
	go func() {
		seen := 0
		for range job.Events() {
			seen++
			if seen == 2 {
				cancel()
				return
			}
		}
	}()

	start := time.Now()
	res, err := job.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("cancellation must still return the partial result")
	}
	if len(res.Stats) < 2 || len(res.Stats) >= 500 {
		t.Fatalf("partial result should hold the completed rounds, got %d", len(res.Stats))
	}
	// The run must stop promptly (mid-round), not drain the remaining
	// hundreds of rounds.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation was not prompt: took %v", elapsed)
	}
	if res.NumParams() == 0 {
		t.Fatal("partial result should carry the in-progress model")
	}
}

func TestJobDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := NewJob(WithRounds(500)).Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if res == nil {
		t.Fatal("deadline must still return the partial result")
	}
}

func TestJobEventsOrderAndClose(t *testing.T) {
	job := NewJob(WithRounds(6))

	var mu sync.Mutex
	var events []RoundEvent
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range job.Events() { // terminates only if the channel closes
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}
	}()

	res, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("events channel was not closed when Run returned")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 6 {
		t.Fatalf("want 6 events, got %d", len(events))
	}
	for i, ev := range events {
		if ev.Round != i+1 {
			t.Fatalf("event %d out of order: round %d", i, ev.Round)
		}
		if ev.Clients <= 0 {
			t.Fatalf("round %d: no participating clients reported", ev.Round)
		}
		if ev.CommBytes <= 0 {
			t.Fatalf("round %d: no communication accounted", ev.Round)
		}
		if ev.Perplexity <= 0 {
			t.Fatalf("round %d: expected an evaluated perplexity", ev.Round)
		}
	}
	if events[len(events)-1].Perplexity != res.FinalPerplexity {
		t.Fatalf("final event ppl %v != result ppl %v",
			events[len(events)-1].Perplexity, res.FinalPerplexity)
	}
}

func TestJobCentralizedBackendEvents(t *testing.T) {
	job := NewJob(WithBackend(BackendCentralized), WithSteps(60))
	var events []RoundEvent
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range job.Events() {
			events = append(events, ev)
		}
	}()
	res, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if len(events) != 6 { // 60 steps / eval every 10
		t.Fatalf("want 6 eval events, got %d", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Round <= events[i-1].Round {
			t.Fatalf("events out of order: %d then %d", events[i-1].Round, events[i].Round)
		}
	}
	if res.FinalPerplexity >= 50 {
		t.Fatalf("centralized job did not learn: %v", res.FinalPerplexity)
	}
}

func TestJobUnknownRegistryNames(t *testing.T) {
	_, err := NewJob(WithServerOptimizer("adamw")).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "adamw") {
		t.Fatalf("unknown server optimizer not reported cleanly: %v", err)
	}
	_, err = NewJob(WithDataSource("wikipedia")).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "wikipedia") {
		t.Fatalf("unknown data source not reported cleanly: %v", err)
	}
	_, err = NewJob(WithBackend(Backend("quantum"))).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Fatalf("unknown backend not reported cleanly: %v", err)
	}
}

func TestJobInvalidCountsErrorNotPanic(t *testing.T) {
	if _, err := NewJob(WithRounds(-5)).Run(context.Background()); err == nil {
		t.Fatal("negative rounds accepted")
	}
	if _, err := NewJob(WithBackend(BackendCentralized), WithSteps(-50)).Run(context.Background()); err == nil {
		t.Fatal("negative steps accepted")
	}
}

func TestJobSingleUse(t *testing.T) {
	job := NewJob(WithRounds(1))
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(context.Background()); err == nil {
		t.Fatal("second Run on the same job must error")
	}
}

// halfAvg is a custom server optimizer: FedAvg at half the server rate.
type halfAvg struct{}

func (halfAvg) Name() string { return "halfavg" }
func (halfAvg) Step(global, delta []float32, _ int) {
	for i, d := range delta {
		global[i] -= 0.5 * d
	}
}

func TestRegisterServerOptimizer(t *testing.T) {
	RegisterServerOptimizer("halfavg", func() OuterOptimizer { return halfAvg{} })
	res, err := NewJob(WithServerOptimizer("halfavg"), WithRounds(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 2 {
		t.Fatalf("custom optimizer run: %d stats", len(res.Stats))
	}
	found := false
	for _, name := range ServerOptimizers() {
		if name == "halfavg" {
			found = true
		}
	}
	if !found {
		t.Fatal("halfavg not listed in ServerOptimizers()")
	}
}

func TestRegisterDataSource(t *testing.T) {
	RegisterDataSource("arxiv-only", func(vocab int) []Source {
		return []Source{data.NewMarkovSource("arxiv-only", vocab, 3, 1.6, 42)}
	})
	res, err := NewJob(WithDataSource("arxiv-only"), WithRounds(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 2 {
		t.Fatalf("custom data source run: %d stats", len(res.Stats))
	}
}

func TestJobResumeKeepsRoundNumbering(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.ckpt")
	first, err := NewJob(WithRounds(3), WithCheckpoint(path)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := first.Stats[len(first.Stats)-1].Round; got != 3 {
		t.Fatalf("first run ended at round %d, want 3", got)
	}

	job := NewJob(WithRounds(3), WithResume(path))
	var rounds []int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range job.Events() {
			rounds = append(rounds, ev.Round)
		}
	}()
	resumed, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	<-done

	// Round numbering continues from the checkpoint in both the result
	// stats and the live event stream.
	want := []int{4, 5, 6}
	if len(resumed.Stats) != len(want) || len(rounds) != len(want) {
		t.Fatalf("resumed run: %d stats, %d events, want 3", len(resumed.Stats), len(rounds))
	}
	for i, w := range want {
		if resumed.Stats[i].Round != w {
			t.Fatalf("resumed stats[%d].Round = %d, want %d", i, resumed.Stats[i].Round, w)
		}
		if rounds[i] != w {
			t.Fatalf("resumed event %d round = %d, want %d", i, rounds[i], w)
		}
	}
	// And the resumed model starts from checkpointed quality.
	cold := first.Stats[0].Perplexity
	warm := resumed.Stats[0].Perplexity
	if !(warm < cold) {
		t.Fatalf("resume lost progress: cold-start ppl %v, resumed first ppl %v", cold, warm)
	}
}

func TestJobAggregatorCancelledWhileWaiting(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := NewJob(
		WithBackend(BackendAggregator),
		WithAddr("127.0.0.1:0"),
		WithExpectClients(2), // nobody will join
	).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("aggregator shutdown was not prompt: %v", elapsed)
	}
}

func TestJobNetworkedBackends(t *testing.T) {
	const clients = 2

	agg := NewJob(
		WithBackend(BackendAggregator),
		WithAddr("127.0.0.1:0"), // kernel-assigned free port, reported by Addr()
		WithExpectClients(clients),
		WithRounds(3),
		WithCodec("flate"),
	)
	var aggEvents []RoundEvent
	eventsDone := make(chan struct{})
	go func() {
		defer close(eventsDone)
		for ev := range agg.Events() {
			aggEvents = append(aggEvents, ev)
		}
	}()
	resCh := make(chan *Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := agg.Run(context.Background())
		resCh <- res
		errCh <- err
	}()

	// Wait for the aggregator to report its bound address.
	var addr string
	for attempt := 0; addr == ""; attempt++ {
		if attempt > 100 {
			t.Fatal("aggregator never started listening")
		}
		addr = agg.Addr()
		time.Sleep(50 * time.Millisecond)
	}

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := NewJob(
				WithBackend(BackendClient),
				WithAddr(addr),
				WithClientID(string(rune('a'+i))),
				WithShard(i),
				WithCodec("flate"),
			).Run(context.Background())
			if err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	res, err := <-resCh, <-errCh
	if err != nil {
		t.Fatal(err)
	}
	<-eventsDone
	if len(res.Stats) != 3 {
		t.Fatalf("aggregator ran %d rounds, want 3", len(res.Stats))
	}
	if len(aggEvents) != 3 {
		t.Fatalf("aggregator emitted %d events, want 3", len(aggEvents))
	}
	for i, ev := range aggEvents {
		if ev.Round != i+1 {
			t.Fatalf("aggregator event %d round %d", i, ev.Round)
		}
		if ev.Clients != clients {
			t.Fatalf("round %d aggregated %d clients, want %d", ev.Round, ev.Clients, clients)
		}
	}
}

// TestJobEventsDropOldest pins the event-stream backpressure policy: when
// the buffer fills (a backend outliving its sizing estimate), emit evicts
// the oldest buffered event rather than the newest, so a late consumer
// reads the freshest telemetry — and the evictions are auditable through
// the dropped counter that Run surfaces as Result.DroppedEvents.
func TestJobEventsDropOldest(t *testing.T) {
	j := &Job{events: make(chan RoundEvent, 3)}
	for r := 1; r <= 10; r++ {
		j.emit(metrics.Round{Round: r})
	}
	close(j.events)
	var got []int
	for ev := range j.events {
		got = append(got, ev.Round)
	}
	want := []int{8, 9, 10} // newest survive; 1..7 were evicted
	if len(got) != len(want) {
		t.Fatalf("buffered rounds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buffered rounds = %v, want %v", got, want)
		}
	}
	if n := j.dropped.Load(); n != 7 {
		t.Fatalf("dropped counter = %d, want 7", n)
	}
}

// TestJobEventsDropOldestRacesConsumer exercises the evict-retry loop under
// a live consumer draining concurrently: every emitted event is either
// received or counted dropped — none vanish unaccounted.
func TestJobEventsDropOldestRacesConsumer(t *testing.T) {
	const total = 5000
	j := &Job{events: make(chan RoundEvent, 2)}
	var received int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range j.events {
			received++
		}
	}()
	for r := 1; r <= total; r++ {
		j.emit(metrics.Round{Round: r})
	}
	close(j.events)
	<-done
	if got := received + j.dropped.Load(); got != total {
		t.Fatalf("received %d + dropped %d = %d events, want %d", received, j.dropped.Load(), got, total)
	}
}
