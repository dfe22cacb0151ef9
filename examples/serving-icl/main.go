// Serving & ICL evaluation: starts an in-process photon-serve stack (engine,
// TCP server, wire client), generates through it, then runs part of the
// evaluation suite two ways over the live serving path — bare prompts and
// Z-ICL pseudo-demonstrations retrieved from the training corpus — printing
// the accuracy each mode reaches.
//
// Everything runs in one process for reproducibility; -addr points the same
// client at a running photon-serve instead (serve the same model: -model tiny
// -seed 1), whose stats line and /metrics then carry the numbers the last
// line prints here.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"photon"
	"photon/internal/data"
	"photon/internal/eval"
	"photon/internal/link"
	"photon/internal/nn"
	"photon/internal/serve"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "", "a running photon-serve to evaluate against (default: an in-process stack)")
	flag.Parse()

	cfg, err := photon.ModelConfig(photon.SizeTiny)
	if err != nil {
		log.Fatal(err)
	}
	src := data.C4Like(cfg.VocabSize)

	// The serving stack: engine owns the model, server speaks the wire
	// protocol, client pipelines requests over one TCP connection.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var eng *serve.Engine
	if *addr == "" {
		l, err := link.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		eng = serve.NewEngine(nn.NewModel(cfg, rand.New(rand.NewSource(1))), serve.Config{MaxBatch: 4, MaxSeq: 128})
		srv := serve.NewServer(eng, l)
		srvDone := make(chan struct{})
		go func() { defer close(srvDone); srv.Run(ctx) }()
		defer func() { cancel(); <-srvDone; eng.Close() }()
		*addr = srv.Addr()
	}
	client, err := serve.DialServer(ctx, *addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Generation over the wire: nucleus sampling with a reproducible seed.
	prompt := []int{3, 14, 15, 9, 2, 6}
	tokens, err := client.Generate(prompt, 16, serve.GenOpts{
		Sample:   nn.SampleOpts{Temperature: 0.9, TopP: 0.95},
		Seed:     42,
		Deadline: 5 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prompt %v -> continuation %v\n\n", prompt, tokens)

	// Evaluation through the serving path. A few suite tasks keep the
	// example quick; eval.Suite() holds all 13.
	tasks := eval.Suite()[:3]
	retr := eval.NewRetriever(src, 4096, 7)
	fmt.Printf("%-22s %8s %8s %8s\n", "task", "chance", "bare", "icl-2shot")
	for _, task := range tasks {
		task.Instances = 40 // trim for example runtime
		bare, err := task.EvaluateWith(client, src, 11)
		if err != nil {
			log.Fatal(err)
		}
		icl, err := task.EvaluateWith(&eval.ICLScorer{
			Inner: client, R: retr, Shots: 2, DemoLen: 12,
		}, src, 11)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %8.2f %8.2f %8.2f\n", task.Name, task.Chance(), bare, icl)
	}

	if eng == nil {
		return // a remote server prints its own stats line
	}
	// Each instance is scored once per candidate over the same context, and
	// a retired KV slot keeps its prefix: reuse is the share of prompt and
	// scored tokens the engine did not have to feed again.
	st := eng.Stats()
	fmt.Printf("\nserver: %d requests, %d tokens generated, %d prefilled, %d reused (reuse=%.2f), p50 %s, p99 %s\n",
		st.Completed, st.TokensOut, st.PrefillTokens, st.ReusedTokens,
		float64(st.ReusedTokens)/float64(st.PrefillTokens+st.ReusedTokens),
		st.P50.Round(time.Microsecond), st.P99.Round(time.Microsecond))
}
