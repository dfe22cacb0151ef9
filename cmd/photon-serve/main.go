// Command photon-serve runs a Photon inference server: a KV-cached
// continuous-batching engine over one model, speaking the Photon wire
// protocol so photon clients (and eval harnesses) can generate and score
// against the real serving path. Ctrl-C shuts it down gracefully.
//
// Usage:
//
//	photon-serve -addr :9100 -model tiny -ckpt global.ckpt
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"photon"
	"photon/internal/ckpt"
	"photon/internal/link"
	"photon/internal/nn"
	"photon/internal/obsv"
	"photon/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("photon-serve: ")
	var (
		addr      = flag.String("addr", ":9100", "listen address")
		size      = flag.String("model", string(photon.SizeTiny), "model size preset")
		ckptPath  = flag.String("ckpt", "", "checkpoint to serve: a file path, or a registry ref (tag:<name> or a content hash) resolved against -registry (default: fresh random init from -seed)")
		regDir    = flag.String("registry", "", "content-addressed model registry directory for resolving -ckpt refs")
		seed      = flag.Int64("seed", 1, "init seed when no checkpoint is given")
		maxBatch  = flag.Int("max-batch", 8, "max sequences decoded concurrently")
		maxSeq    = flag.Int("max-seq", 0, "per-sequence KV-cache capacity in tokens (0 = 4x trained context)")
		queue     = flag.Int("queue", 64, "admission queue depth")
		stats     = flag.Duration("stats", 10*time.Second, "telemetry print interval (0 disables)")
		metricsAt = flag.String("metrics-addr", "", "serve /metrics, /healthz, and /debug/pprof on this address (empty disables)")
	)
	flag.Parse()

	health := obsv.NewHealthTracker("photon-serve", 0)
	if *metricsAt != "" {
		ms, err := obsv.Serve(*metricsAt, nil)
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		ms.SetHealth(health.Get)
		defer ms.Close()
		log.Printf("observability on http://%s/metrics", ms.Addr())
	}

	cfg, err := photon.ModelConfig(photon.ModelSize(*size))
	if err != nil {
		log.Fatal(err)
	}
	m := nn.NewModel(cfg, rand.New(rand.NewSource(*seed)))
	if *ckptPath != "" {
		var c *ckpt.Checkpoint
		switch {
		case *regDir != "":
			// With a registry, -ckpt is a ref: "tag:latest", a full
			// content hash, or an unambiguous hash prefix. The blob is
			// re-hashed on load, so a corrupted registry cannot serve.
			reg, err := ckpt.OpenRegistry(*regDir)
			if err != nil {
				log.Fatalf("open registry: %v", err)
			}
			var man *ckpt.Manifest
			if c, man, err = reg.Get(*ckptPath); err != nil {
				log.Fatalf("resolve %q in registry: %v", *ckptPath, err)
			}
			log.Printf("registry %s -> %.12s (lineage %v)", *ckptPath, man.Hash, man.Lineage)
		case ckpt.IsRegistryRef(*ckptPath):
			log.Fatalf("-ckpt %q is a registry ref; pass -registry <dir> to resolve it", *ckptPath)
		default:
			var err error
			if c, err = ckpt.Load(*ckptPath); err != nil {
				log.Fatalf("load checkpoint: %v", err)
			}
		}
		if err := m.Params().LoadFlat(c.Params); err != nil {
			log.Fatalf("checkpoint does not fit %s: %v", *size, err)
		}
		log.Printf("serving %s from %s (round %d, step %d)", *size, *ckptPath, c.Round, c.Step)
	} else {
		log.Printf("serving %s from random init (seed %d); pass -ckpt for trained weights", *size, *seed)
	}

	l, err := link.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	eng := serve.NewEngine(m, serve.Config{MaxBatch: *maxBatch, MaxSeq: *maxSeq, Queue: *queue})
	srv := serve.NewServer(eng, l)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Telemetry: one engine snapshot per tick feeds /healthz (retired
	// requests are the progress counter — there are no training rounds here —
	// and the active batch is the cohort) and, unless -stats is 0, the stats
	// line; a busy server logs at a bounded rate and pays for percentiles
	// only here.
	go func() {
		every := *stats
		if every <= 0 {
			every = 10 * time.Second // /healthz keeps advancing with the line off
		}
		t := time.NewTicker(every)
		defer t.Stop()
		started := time.Now()
		var retired int64
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			s := eng.Stats()
			if s.Completed+s.Expired == retired {
				continue
			}
			retired = s.Completed + s.Expired
			health.Observe(int(retired), s.Active)
			if *stats <= 0 {
				continue
			}
			// tok/s counts sampled tokens, prefill/s the prompt and scored
			// tokens requests brought in, reuse the share of those a
			// retained KV prefix served without feeding them.
			in := float64(s.PrefillTokens + s.ReusedTokens)
			fmt.Printf("stats: active=%d queued=%d done=%d expired=%d tok/s=%.0f prefill/s=%.0f reuse=%.2f p50=%s p99=%s\n",
				s.Active, s.QueueDepth, s.Completed, s.Expired, s.TokensPerSec,
				in/time.Since(started).Seconds(), float64(s.ReusedTokens)/math.Max(in, 1),
				s.P50.Round(10*time.Microsecond), s.P99.Round(10*time.Microsecond))
		}
	}()

	rc := eng.ResolvedConfig()
	log.Printf("listening on %s (max-batch %d, max-seq %d)", l.Addr(), rc.MaxBatch, rc.MaxSeq)
	if err := srv.Run(ctx); err != nil && ctx.Err() == nil {
		log.Fatal(err)
	}
	eng.Close()
	s := eng.Stats()
	log.Printf("done: %d completed, %d expired, %d tokens out, %d prefilled, %d reused",
		s.Completed, s.Expired, s.TokensOut, s.PrefillTokens, s.ReusedTokens)
}
