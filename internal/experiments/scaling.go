package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/eval"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
)

// Engine-strategy experiments: not figures of the paper, but direct
// measurements of its two scalability claims — that the bolt-on
// approach parallelizes for free (multicore deployment, footnote 2's
// MapReduce extension) and that it runs in one pass over data that is
// never materialized (the in-RDBMS/online story). EXPERIMENTS.md
// records the measured tables next to the claims.

// scalingSharded sweeps the sharded engine's worker count on one
// strongly convex private training task and reports wall time, speedup
// over the sequential run, the calibrated sensitivity and the test
// accuracy. The punchline is the Δ₂ column: constant in P (2L/(γm), the
// sequential bound), so parallelism costs nothing in privacy; wall time
// should fall until P exceeds the physical cores.
func scalingSharded(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(cfg.Out, "== Engine scaling: sharded workers sweep (strongly convex, ε=0.1, %d CPUs) ==\n", runtime.NumCPU())
	root := rand.New(rand.NewSource(cfg.Seed))

	m := scaled(400000, cfg.Scale, 8000)
	full := data.ScaleSim(cfg.Seed, m, 50)
	train, test := full.Split(root, 0.9)
	lambda := 1e-2
	f := loss.NewLogistic(lambda, 0)

	workersGrid := []int{1, 2, 4, 8}
	if cfg.Quick {
		workersGrid = []int{1, 4}
	}
	w := newTab(cfg)
	fmt.Fprintln(w, "workers\twall\tspeedup\tΔ₂\ttest accuracy")
	var base time.Duration
	for _, p := range workersGrid {
		start := time.Now()
		res, err := core.TrainCtx(context.Background(), train, f,
			core.WithBudget(dp.Budget{Epsilon: 0.1}),
			core.WithPasses(5), core.WithBatch(10), core.WithRadius(1/lambda),
			core.WithStrategy(strategyFor(p), p),
			core.WithRand(rand.New(rand.NewSource(cfg.Seed+int64(p)))))
		if err != nil {
			return err
		}
		wall := time.Since(start)
		if p == 1 {
			base = wall
		}
		speedup := float64(base) / float64(wall)
		acc := eval.Accuracy(test, &eval.Linear{W: res.W})
		fmt.Fprintf(w, "%d\t%v\t%.2fx\t%.4g\t%.4f\n",
			p, wall.Round(time.Millisecond), speedup, res.Sensitivity, acc)
	}
	return w.Flush()
}

// streamingOnline trains a single-pass private model over a data.Stream
// source — rows are regenerated on the fly and never materialized, the
// same role Bismarck's data synthesizer plays in the paper's
// scalability runs — and compares it against a sequential one-pass run
// on the materialized equivalent. The streamed run should match the
// materialized accuracy at the same Δ₂ while allocating no O(m) state.
func streamingOnline(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "== Engine streaming: single-pass online training over a lazy stream ==")

	m := scaled(1000000, cfg.Scale, 10000)
	mTest := m / 10
	const d = 30
	// Train and test are disjoint row ranges of one stream — same class
	// centers, rows regenerated from (seed, index) on every access.
	full := data.NewStream(cfg.Seed, m+mTest, d, 0.4, 0.02)
	stream := full.Shard(0, m)
	test := full.Shard(m, m+mTest)
	lambda := 1e-2
	f := loss.NewLogistic(lambda, 0)

	w := newTab(cfg)
	fmt.Fprintln(w, "mode\trows\twall\tΔ₂\ttest accuracy")
	for _, mode := range []string{"streaming", "materialized"} {
		var train sgd.Samples = stream
		strategy := engine.Sequential
		if mode == "streaming" {
			strategy = engine.Streaming
		} else {
			// Materialize the same rows and run the sequential engine
			// (one pass, sampled permutation) for comparison.
			ds := &data.Dataset{Name: "stream-materialized", Classes: 2}
			for i := 0; i < stream.Len(); i++ {
				x, y := stream.At(i)
				xc := make([]float64, len(x))
				copy(xc, x)
				ds.X = append(ds.X, xc)
				ds.Y = append(ds.Y, y)
			}
			train = ds
		}
		start := time.Now()
		res, err := core.TrainCtx(context.Background(), train, f,
			core.WithBudget(dp.Budget{Epsilon: 0.5}),
			core.WithBatch(10), core.WithRadius(1/lambda),
			core.WithStrategy(strategy, 0),
			core.WithRand(rand.New(rand.NewSource(cfg.Seed+7))))
		if err != nil {
			return err
		}
		wall := time.Since(start)
		acc := eval.Accuracy(test, &eval.Linear{W: res.W})
		fmt.Fprintf(w, "%s\t%d\t%v\t%.4g\t%.4f\n",
			mode, m, wall.Round(time.Millisecond), res.Sensitivity, acc)
	}
	return w.Flush()
}
