// Command photon-client runs a networked Photon LLM client (LLM-C): it
// joins an aggregator, trains on its local data shard each round, and
// uploads model updates until the aggregator ends the session. Ctrl-C
// leaves the federation gracefully.
//
// Usage:
//
//	photon-client -addr localhost:9000 -id silo-utah -shard 3
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
	log.SetPrefix("photon-client: ")
	var (
		addr      = flag.String("addr", "localhost:9000", "aggregator address")
		id        = flag.String("id", "client-0", "client identity")
		size      = flag.String("model", string(photon.SizeTiny), "model size preset")
		shard     = flag.Int("shard", 0, "C4 shard index (0..63) held by this client")
		steps     = flag.Int("steps", 16, "local steps per round (τ)")
		batch     = flag.Int("batch", 4, "local batch size (Bl)")
		lr        = flag.Float64("lr", 3e-3, "peak learning rate")
		codec     = flag.String("codec", "", "require this wire codec from the aggregator (empty accepts whatever it announces)")
		seed      = flag.Int64("seed", 1, "run seed")
		retry     = flag.Int("reconnect", 5, "reconnect attempts after a lost session (0 disables)")
		ckpt      = flag.String("ckpt", "", "local checkpoint path for crash recovery (optional)")
		metricsAt = flag.String("metrics-addr", "", "serve /metrics, /healthz, and /debug/pprof on this address (empty disables)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Tier -1: a leaf doesn't know its distance from the root (it depends on
	// whether it joined a relay or the root aggregator).
	health := obsv.NewHealthTracker("photon-client", -1)
	if *metricsAt != "" {
		ms, err := obsv.Serve(*metricsAt, nil)
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		ms.SetHealth(health.Get)
		defer ms.Close()
		log.Printf("observability on http://%s/metrics", ms.Addr())
	}

	opts := []photon.JobOption{
		photon.WithBackend(photon.BackendClient),
		photon.WithAddr(*addr),
		photon.WithClientID(*id),
		photon.WithModel(photon.ModelSize(*size)),
		photon.WithShard(*shard),
		photon.WithLocalSteps(*steps),
		photon.WithBatchSize(*batch),
		photon.WithMaxLR(*lr),
		photon.WithSeed(*seed),
		photon.WithReconnect(*retry),
		photon.WithCheckpoint(*ckpt),
	}
	if *codec != "" {
		opts = append(opts, photon.WithCodec(*codec))
	}
	job := photon.NewJob(opts...)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range job.Events() {
			health.Observe(ev.Round, ev.Clients)
			line := fmt.Sprintf("round %2d: local loss=%.4f comm=%.2fMB",
				ev.Round, ev.TrainLoss, float64(ev.CommBytes)/1e6)
			if ev.ModelVersion > 0 {
				line += fmt.Sprintf(" ver=%d", ev.ModelVersion)
			}
			fmt.Println(line)
		}
	}()

	log.Printf("%s joining %s with shard %d", *id, *addr, *shard)
	_, err := job.Run(ctx)
	wg.Wait()
	switch {
	case errors.Is(err, context.Canceled):
		log.Printf("%s: interrupted, left federation", *id)
	case err != nil:
		log.Fatal(err)
	default:
		log.Printf("%s: session complete", *id)
	}
}
