// Parallel: shared-nothing private training through the execution
// engine's sharded strategy — the paper's multicore deployment (and,
// via footnote 2, its MapReduce extension). The dataset is cut into P
// disjoint shards; every epoch each worker advances permutation SGD one
// pass over its shard and the models are merged by averaging. The
// punchline: the merged model is perturbed with the *same* sensitivity
// as the sequential strongly convex algorithm, Δ = 2L/(γ(m/P))/P =
// 2L/(γm). Parallelism costs nothing in privacy. An in-RDBMS Table
// trains the same way: it is a Samples like any other.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"time"

	"boltondp"
)

func main() {
	r := rand.New(rand.NewSource(9))
	train, test := boltondp.CovtypeSim(r, 0.2) // ~100k rows
	lambda := 0.05
	f := boltondp.NewLogisticLoss(lambda)
	budget := boltondp.Budget{Epsilon: 0.1}

	fmt.Printf("dataset: m=%d d=%d, %d CPUs\n", train.Len(), train.Dim(), runtime.NumCPU())

	// Sharded with one worker is bit-for-bit the sequential engine, so
	// the P=1 row doubles as the sequential baseline.
	for _, workers := range []int{1, 2, 4, 8} {
		start := time.Now()
		res, err := boltondp.TrainCtx(context.Background(), train, f,
			boltondp.WithBudget(budget),
			boltondp.WithPasses(5),
			boltondp.WithBatch(10),
			boltondp.WithRadius(1/lambda),
			boltondp.WithStrategy(boltondp.StrategySharded, workers),
			boltondp.WithRand(rand.New(rand.NewSource(int64(100+workers)))))
		if err != nil {
			log.Fatal(err)
		}
		dur := time.Since(start)
		acc := boltondp.Accuracy(test, &boltondp.LinearClassifier{W: res.W})
		fmt.Printf("P=%d  wall=%-8v  Δ₂=%.3g  test accuracy=%.4f\n",
			workers, dur.Round(time.Millisecond), res.Sensitivity, acc)
	}
	fmt.Println("\nsame ε, same Δ₂, near-linear speedup: privacy-free parallelism.")
}
