package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/eval"
	"boltondp/internal/store"
)

// onlineContinual measures the continual-training trade-off (DESIGN.md
// §12): under one FIXED total ε, how does accuracy evolve as data
// arrives when the budget is split into N retraining windows? Few
// windows buy low-noise models that go stale; many windows stay fresh
// but each release is noisier. The experiment streams KDDSimSparse
// through a segment directory — half the rows up front, the rest in N
// arrival batches — retrains one warm-started continual window per
// batch, and reports test accuracy after every window, alongside the
// one-shot baseline (all of ε on the initial half, never retrained)
// and the noiseless upper bound on the full data.
func onlineContinual(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "== Online: continual private training on kdd-onehot, accuracy vs windows at fixed total ε ==")

	r := rand.New(rand.NewSource(cfg.Seed))
	train, test := data.KDDSimSparse(r, cfg.Scale)
	lambda := compLambda(1e-2, cfg.Scale)
	f, radius := lossFor(true, lambda, false)
	total := dp.Budget{Epsilon: 1, Delta: deltaFor(train.Len())}
	k, b := 5, 50
	if cfg.Quick {
		k = 2
	}

	m := train.Len()
	head := m / 2
	slice := func(lo, hi int) *data.SparseDataset {
		ds := data.NewSparseDataset(train.Name, train.Dim())
		for i := lo; i < hi; i++ {
			x, y := train.AtSparse(i)
			if err := ds.Append(x, y); err != nil {
				panic(err) // rows re-appended verbatim cannot violate the dataset contract
			}
		}
		return ds
	}

	tmp, err := os.MkdirTemp("", "boltondp-online")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	grid := []int{1, 2, 4, 8}
	if cfg.Quick {
		grid = []int{1, 4}
	}

	w := newTab(cfg)
	fmt.Fprintln(w, "variant\tε/window\taccuracy after each window →")

	// One-shot baseline: the whole budget on the initial half, then the
	// model serves unchanged while the remaining data arrives.
	oneShot, err := trainBinary(slice(0, head), trainSpec{
		algo: "ours", budget: total, f: f, k: k, b: b, radius: radius,
		rand: rand.New(rand.NewSource(cfg.Seed + 1)),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "one-shot (ε on first half)\t%.3g\t%.4f (stale)\n",
		total.Epsilon, eval.Accuracy(test, &eval.Linear{W: oneShot}))

	for _, windows := range grid {
		dir := filepath.Join(tmp, fmt.Sprintf("n%d", windows))
		if _, err := store.AppendSegment(dir, slice(0, head), store.Options{}); err != nil {
			return err
		}
		d, err := store.OpenDir(dir)
		if err != nil {
			return err
		}
		ct, err := core.NewContinualRDP(total, windows, f,
			core.WithPasses(k), core.WithBatch(b), core.WithRadius(radius),
			core.WithRand(rand.New(rand.NewSource(cfg.Seed+int64(windows)))))
		if err != nil {
			d.Close()
			return err
		}
		row := fmt.Sprintf("continual N=%d\t%.3g\t", windows, ct.WindowBudget().Epsilon)
		for i := 0; i < windows; i++ {
			lo := head + i*(m-head)/windows
			hi := head + (i+1)*(m-head)/windows
			if hi > lo {
				if _, err := store.AppendSegment(dir, slice(lo, hi), store.Options{}); err != nil {
					d.Close()
					return err
				}
				if err := d.Reload(); err != nil {
					d.Close()
					return err
				}
			}
			res, err := ct.Retrain(context.Background(), d)
			if err != nil {
				d.Close()
				return err
			}
			row += fmt.Sprintf("%.4f ", eval.Accuracy(test, &eval.Linear{W: res.W}))
		}
		fmt.Fprintln(w, row)
		d.Close()
	}

	noiseless, err := trainBinary(train, trainSpec{
		algo: "noiseless", f: f, k: k, b: b, radius: radius,
		rand: rand.New(rand.NewSource(cfg.Seed + 2)),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "noiseless (full data)\t-\t%.4f\n", eval.Accuracy(test, &eval.Linear{W: noiseless}))
	return w.Flush()
}
