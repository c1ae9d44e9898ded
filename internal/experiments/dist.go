package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dist"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/eval"
	"boltondp/internal/loss"
	"boltondp/internal/store"
)

// distLoopback measures the distributed coordinator/worker trainer
// against the single-process Sharded(P) engine it is pinned to: same
// task, same seed, P loopback workers behind real HTTP servers. Two
// claims are on trial. First, the models are bit-identical — the dist
// subsystem's core invariant, checked on every row. Second, the wire
// costs little: shard installs carry only chunk ranges and CRCs of a
// store file the workers open themselves, so dispatch cost is
// independent of m and the per-epoch traffic is O(P·d).
func distLoopback(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "== Distributed loopback: coordinator + P HTTP workers vs single-process Sharded(P) ==")

	m := scaled(200000, cfg.Scale, 4000)
	const d = 50
	lambda := 1e-2
	f := loss.NewLogistic(lambda, 0)

	// A sparse dataset written once to the store file every worker
	// opens (loopback stands in for a shared mount).
	dir, err := os.MkdirTemp("", "dist-exp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sparse := data.SparseSynthetic(rand.New(rand.NewSource(cfg.Seed)), m, d, 10, 0.1)
	sparseTest := data.SparseSynthetic(rand.New(rand.NewSource(cfg.Seed+1)), m/10, d, 10, 0.1)
	path := filepath.Join(dir, "train.bolt")
	if err := store.Write(path, sparse, store.Options{ChunkRows: 4096}); err != nil {
		return err
	}
	rd, err := store.Open(path)
	if err != nil {
		return err
	}
	defer rd.Close()

	src := dist.NewStoreSource(rd)
	grid := []int{1, 2, 4}
	if cfg.Quick {
		grid = []int{1, 2}
	}

	w := newTab(cfg)
	fmt.Fprintln(w, "P\tsingle\tdist\toverhead\tparity\ttest accuracy")
	for _, p := range grid {
		opts := func(seed int64) []core.Option {
			return []core.Option{
				core.WithBudget(dp.Budget{Epsilon: 0.1}),
				core.WithPasses(5), core.WithBatch(10), core.WithRadius(1 / lambda),
				core.WithStrategy(engine.Sharded, p),
				core.WithRand(rand.New(rand.NewSource(seed))),
			}
		}
		seed := cfg.Seed + int64(p)

		start := time.Now()
		single, err := core.TrainCtx(context.Background(), rd, f, opts(seed)...)
		if err != nil {
			return err
		}
		singleWall := time.Since(start)

		coord := dist.NewCoordinator(dist.CoordinatorConfig{})
		var servers []*httptest.Server
		var workers []*dist.Worker
		for i := 0; i < p; i++ {
			wk := dist.NewWorker()
			ts := httptest.NewServer(wk.Handler())
			workers = append(workers, wk)
			servers = append(servers, ts)
			if err := coord.Register(context.Background(), ts.URL); err != nil {
				return err
			}
		}
		start = time.Now()
		got, err := core.TrainDistributed(context.Background(), coord, src, f, opts(seed)...)
		distWall := time.Since(start)
		for _, ts := range servers {
			ts.Close()
		}
		for _, wk := range workers {
			wk.Close()
		}
		if err != nil {
			return err
		}

		parity := "bit-identical"
		for i := range single.W {
			if math.Float64bits(single.W[i]) != math.Float64bits(got.W[i]) {
				parity = "DIVERGED"
			}
		}
		acc := eval.Accuracy(sparseTest, &eval.Linear{W: got.W})
		fmt.Fprintf(w, "%d\t%v\t%v\t%.2fx\t%s\t%.4f\n",
			p, singleWall.Round(time.Millisecond), distWall.Round(time.Millisecond),
			float64(distWall)/float64(singleWall), parity, acc)
		if parity != "bit-identical" {
			w.Flush() //nolint:errcheck // the error below is the report
			return fmt.Errorf("experiments: distributed run diverged from single-process Sharded(%d)", p)
		}
	}
	return w.Flush()
}
