// Command photon-agg runs a networked Photon aggregator: it listens for
// LLM clients (photon-client processes) and coordinates federated rounds
// over the Photon wire protocol, streaming per-round progress as it runs.
// Ctrl-C shuts the federation down gracefully.
//
// Usage:
//
//	photon-agg -addr :9000 -clients 2 -rounds 10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"photon"
	"photon/internal/obsv"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("photon-agg: ")
	var (
		addr       = flag.String("addr", ":9000", "listen address")
		size       = flag.String("model", string(photon.SizeTiny), "model size preset")
		clients    = flag.Int("clients", 2, "clients to wait for before round 1")
		rounds     = flag.Int("rounds", 10, "federated rounds")
		server     = flag.String("server", "fedavg", "server optimizer, root aggregator only: a relay forwards its cohort's mean (see photon.ServerOptimizers)")
		codec      = flag.String("codec", "flate", "wire codec for parameter payloads (dense, flate, q8, topk:<keep>, ...)")
		seed       = flag.Int64("seed", 1, "run seed")
		heartbeat  = flag.Duration("heartbeat", 5*time.Second, "heartbeat interval; members missing 3 beats are evicted (0 disables)")
		deadline   = flag.Duration("deadline", 0, "per-round deadline; late members become stragglers (0 waits forever)")
		minClients = flag.Int("min-clients", 1, "mid-run participation floor: rounds wait for this many alive members")
		over       = flag.Float64("over", 0, "cohort over-provision fraction (0.25 = sample 25% extra)")
		parent     = flag.String("parent", "", "run as a relay: join the parent aggregator at this address while serving the local cohort (rounds become parent-driven)")
		upCodec    = flag.String("up-codec", "", "relay: require the parent to announce exactly this codec (default: accept any)")
		id         = flag.String("id", "", "relay identity presented to the parent (default: relay@<listen-addr>)")
		metricsAt  = flag.String("metrics-addr", "", "serve /metrics, /healthz, and /debug/pprof on this address (empty disables)")
		walDir     = flag.String("wal", "", "write-ahead-log directory: journal round state and resume an interrupted run when restarted on the same directory; a restart in another mode, model size or codec is refused (empty disables)")
		registryAt = flag.String("registry", "", "content-addressed model registry directory: publish every committed round's checkpoint and move the latest tag (empty disables)")
		async      = flag.Bool("async", false, "buffered asynchronous (FedBuff) aggregation: members train at their own pace and -rounds counts version commits")
		asyncK     = flag.Int("async-k", 2, "async: updates buffered per version commit")
		asyncAlpha = flag.Float64("async-alpha", 0.5, "async: staleness discount exponent; weight = 1/(1+staleness)^alpha")
	)
	flag.Parse()

	tier := 0
	if *parent != "" {
		tier = 1
	}
	health := obsv.NewHealthTracker("photon-agg", tier)
	if *metricsAt != "" {
		ms, err := obsv.Serve(*metricsAt, nil)
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		ms.SetHealth(health.Get)
		defer ms.Close()
		log.Printf("observability on http://%s/metrics", ms.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := []photon.JobOption{
		photon.WithBackend(photon.BackendAggregator),
		photon.WithAddr(*addr),
		photon.WithModel(photon.ModelSize(*size)),
		photon.WithExpectClients(*clients),
		photon.WithRounds(*rounds),
		photon.WithServerOptimizer(*server),
		photon.WithCodec(*codec),
		photon.WithSeed(*seed),
		photon.WithHeartbeat(*heartbeat),
		photon.WithRoundDeadline(*deadline),
		photon.WithMinClients(*minClients),
		photon.WithOverProvision(*over),
	}
	if *async {
		opts = append(opts, photon.WithAsync(*asyncK, *asyncAlpha))
	}
	if *walDir != "" {
		opts = append(opts, photon.WithWAL(*walDir))
	}
	if *registryAt != "" {
		opts = append(opts, photon.WithRegistry(*registryAt))
	}
	if *parent != "" {
		opts = append(opts,
			photon.WithParent(*parent),
			photon.WithUpstreamCodec(*upCodec),
			photon.WithClientID(*id))
	}
	job := photon.NewJob(opts...)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range job.Events() {
			health.Observe(ev.Round, ev.Clients)
			line := fmt.Sprintf("round %2d: clients=%d loss=%.4f ppl=%.2f comm=%.2fMB",
				ev.Round, ev.Clients, ev.TrainLoss, ev.Perplexity, float64(ev.CommBytes)/1e6)
			if ev.Tier > 0 {
				line = fmt.Sprintf("tier%d ", ev.Tier) + line
			}
			if ev.ModelVersion > 0 {
				line += fmt.Sprintf(" ver=%d buf=%d stale=%.1f", ev.ModelVersion, ev.BufferFill, ev.MeanStaleness)
			}
			if ev.CompressionRatio > 0 {
				line += fmt.Sprintf(" ratio=%.2f", ev.CompressionRatio)
			}
			if ev.Joins > 0 || ev.Evictions > 0 || ev.Stragglers > 0 {
				line += fmt.Sprintf(" joins=%d evict=%d stragglers=%d", ev.Joins, ev.Evictions, ev.Stragglers)
			}
			if ev.HeartbeatRTTMs > 0 {
				line += fmt.Sprintf(" hb-rtt=%.1fms", ev.HeartbeatRTTMs)
			}
			if ev.SlowestID != "" {
				line += fmt.Sprintf(" slowest=%s/%s", ev.SlowestID, ev.SlowestPhase)
			}
			fmt.Println(line)
		}
	}()

	if *parent != "" {
		log.Printf("relay: serving %d cohort clients on %s, joining parent %s", *clients, *addr, *parent)
	} else {
		log.Printf("listening on %s for %d clients", *addr, *clients)
	}
	res, err := job.Run(ctx)
	wg.Wait()
	switch {
	case errors.Is(err, context.Canceled):
		if res == nil {
			log.Fatal("interrupted while waiting for clients to join")
		}
		log.Printf("interrupted after %d rounds", len(res.Stats))
	case err != nil:
		log.Fatal(err)
	}
	if len(res.Stats) == 0 {
		return // stopped before any round completed; nothing to report
	}
	if res.Joins > 0 || res.Evictions > 0 || res.Stragglers > 0 {
		log.Printf("membership churn: %d joins, %d evictions, %d stragglers dropped",
			res.Joins, res.Evictions, res.Stragglers)
	}
	fmt.Printf("final perplexity: %.2f\n", res.FinalPerplexity)
}
