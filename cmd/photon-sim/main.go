// Command photon-sim runs federated pre-training with the Photon recipe in
// one process — the aggregator and its clients (and relays, with -tiers 2)
// over in-memory links — streaming round-by-round progress as it trains. Ctrl-C stops the run gracefully and prints the partial result.
//
// Usage:
//
//	photon-sim -clients 8 -rounds 20 -steps 16 -server fedavg
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

	"photon"
	"photon/internal/obsv"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("photon-sim: ")
	var (
		size      = flag.String("model", string(photon.SizeTiny), "model size preset")
		clients   = flag.Int("clients", 4, "federation population")
		k         = flag.Int("k", 0, "clients sampled per round (0 = all)")
		rounds    = flag.Int("rounds", 20, "federated rounds")
		steps     = flag.Int("steps", 16, "local steps per round (τ)")
		batch     = flag.Int("batch", 4, "local batch size (Bl)")
		lr        = flag.Float64("lr", 3e-3, "peak learning rate")
		server    = flag.String("server", "fedavg", "server optimizer (see photon.ServerOptimizers)")
		source    = flag.String("data", "c4", "data source (see photon.DataSources)")
		codec     = flag.String("codec", "dense", "wire codec of every member link (dense, flate, q8, topk:<keep>, ...)")
		tiers     = flag.Int("tiers", 1, "aggregation depth: 1 = flat, 2 = hierarchical (relay group means feed the server optimizer)")
		relays    = flag.Int("relays", 2, "relay groups when -tiers 2")
		upCodec   = flag.String("up-codec", "", "relay->root tier codec when -tiers 2 (default: same as -codec)")
		dropout   = flag.Float64("dropout", 0, "per-round client dropout probability")
		ckpt      = flag.String("ckpt", "", "checkpoint path for the global model")
		resume    = flag.String("resume", "", "resume from a checkpoint written via -ckpt")
		seed      = flag.Int64("seed", 1, "run seed")
		metricsAt = flag.String("metrics-addr", "", "serve /metrics, /healthz, and /debug/pprof on this address (empty disables)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	health := obsv.NewHealthTracker("photon-sim", 0)
	if *metricsAt != "" {
		ms, err := obsv.Serve(*metricsAt, nil)
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		ms.SetHealth(health.Get)
		defer ms.Close()
		log.Printf("observability on http://%s/metrics", ms.Addr())
	}

	job := photon.NewJob(
		photon.WithModel(photon.ModelSize(*size)),
		photon.WithClients(*clients),
		photon.WithClientsPerRound(*k),
		photon.WithRounds(*rounds),
		photon.WithLocalSteps(*steps),
		photon.WithBatchSize(*batch),
		photon.WithMaxLR(*lr),
		photon.WithServerOptimizer(*server),
		photon.WithDataSource(*source),
		photon.WithCodec(*codec),
		photon.WithTiers(*tiers),
		photon.WithRelays(*relays),
		photon.WithUpstreamCodec(*upCodec),
		photon.WithDropout(*dropout),
		photon.WithCheckpoint(*ckpt),
		photon.WithResume(*resume),
		photon.WithSeed(*seed),
	)

	// Stream telemetry live while the run is in progress.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fmt.Printf("round  clients  train-loss  val-ppl    comm-MB\n")
		for ev := range job.Events() {
			health.Observe(ev.Round, ev.Clients)
			fmt.Printf("%5d  %7d  %10.4f  %7.2f  %9.2f\n",
				ev.Round, ev.Clients, ev.TrainLoss, ev.Perplexity, float64(ev.CommBytes)/1e6)
		}
	}()

	res, err := job.Run(ctx)
	wg.Wait()
	switch {
	case errors.Is(err, context.Canceled):
		log.Printf("interrupted after %d rounds", len(res.Stats))
	case err != nil:
		log.Fatal(err)
	}
	if len(res.Stats) == 0 {
		return // stopped before any round completed; nothing to report
	}
	fmt.Printf("\nfinal perplexity: %.2f (%d params)\n", res.FinalPerplexity, res.NumParams())
}
