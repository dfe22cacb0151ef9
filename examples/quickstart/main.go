// Quickstart: federated pre-training of a small decoder-only LM with the
// Photon recipe (FedAvg + small local batches + high learning rate) through
// the Job API — live round telemetry while training runs, sampling from the
// trained model, then the centralized baseline on the same token budget.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"photon"
)

func main() {
	fmt.Println("Photon quickstart: 4 clients, IID C4-like shards, FedAvg")

	job := photon.NewJob(
		photon.WithModel(photon.SizeTiny),
		photon.WithClients(4),
		photon.WithRounds(15),
		photon.WithLocalSteps(16),
		photon.WithBatchSize(4), // the hardware-determined small batch of the recipe
		photon.WithMaxLR(3e-3),
		photon.WithServerOptimizer("fedavg"),
	)

	// Events streams per-round stats while Run is training.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fmt.Println("\nround  clients  val-perplexity")
		for ev := range job.Events() {
			fmt.Printf("%5d  %7d  %14.2f\n", ev.Round, ev.Clients, ev.Perplexity)
		}
	}()

	res, err := job.Run(context.Background())
	wg.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal perplexity: %.2f over a %d-parameter model\n",
		res.FinalPerplexity, res.NumParams())

	fmt.Println("\nsampled continuation of prompt [1 2 3]:")
	fmt.Println(res.Generate(7, []int{1, 2, 3}, 24, 0.8))

	// The centralized baseline on the same token budget: 15×16 optimizer
	// steps of 4 workers × 4 sequences, data-parallel over one model.
	central, err := photon.NewJob(
		photon.WithBackend(photon.BackendCentralized),
		photon.WithSteps(15*16),
		photon.WithWorkers(4),
		photon.WithBatchSize(4),
		photon.WithMaxLR(3e-3),
	).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncentralized baseline (DDP, 4 workers, same tokens): perplexity %.2f\n", central.FinalPerplexity)
}
