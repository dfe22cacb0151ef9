// DiLoCo vs Photon: reproduces the shape of the paper's Table 3 at example
// scale — Photon's FedAvg recipe reaches target perplexities in roughly
// half the rounds of DiLoCo's outer Nesterov at its stable learning rate.
// Both runs go through the Job API with a shared deadline and stop at the
// last target: if a run stalls, the context stops it and the comparison
// reports what completed.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"photon"
)

func roundsTo(res *photon.Result, target float64) string {
	for _, s := range res.Stats {
		if s.Perplexity > 0 && s.Perplexity <= target {
			return fmt.Sprintf("%d", s.Round)
		}
	}
	return "not reached"
}

func main() {
	fmt.Println("Photon vs DiLoCo(ηs=0.1, µ=0.9): rounds to target perplexity (N=4)")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	servers := []string{"diloco", "fedavg"}
	results := map[string]*photon.Result{}
	for _, server := range servers {
		res, err := photon.NewJob(
			photon.WithClients(4),
			photon.WithRounds(30),
			photon.WithLocalSteps(16),
			photon.WithSeed(5),
			photon.WithServerOptimizer(server),
			photon.WithStopAtPPL(35), // the last target: nothing after it is read
		).Run(ctx)
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			fmt.Printf("%s: stopped early after %d rounds\n", server, len(res.Stats))
		} else if err != nil {
			log.Fatal(err)
		}
		results[server] = res
	}

	fmt.Printf("\n%-10s %12s %12s %10s\n", "method", "rounds→42", "rounds→35", "last ppl")
	for _, server := range servers {
		res := results[server]
		name := "DiLoCo"
		if server == "fedavg" {
			name = "Photon"
		}
		fmt.Printf("%-10s %12s %12s %10.2f\n", name,
			roundsTo(res, 42), roundsTo(res, 35), res.FinalPerplexity)
	}
	fmt.Println("\nExpected shape (paper Table 3): Photon reaches each target in")
	fmt.Println("roughly half the wall time of DiLoCo at its stable ηs.")
}
