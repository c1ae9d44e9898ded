package core

import (
	"context"
	"math/rand"
	"testing"

	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/vec"
)

// Noise calibration is representation-independent by construction:
// the sensitivity Δ₂ is a pure function of (L, β, γ, m, strategy) and
// never of how rows are stored, and sparse and dense runs consume the
// shared Rand identically (same permutation draws, then the same noise
// draws). So under a fixed seed, a private run over a SparseDataset
// and over its dense materialization must report bit-identical
// Sensitivity and NoiseNorm, and models differing only by the kernels'
// floating-point rounding — the paper's privacy guarantee cannot be
// weakened (or changed at all) by taking the fast path.
func TestPrivateSparseDenseDistributionalIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	sp := data.SparseSynthetic(r, 300, 60, 6, 0.02)
	de := sp.ToDense()

	type scenario struct {
		name string
		f    loss.Function
		opts []Option
	}
	mk := func(strategy engine.Strategy, workers, passes int) []Option {
		return []Option{
			WithBudget(dp.Budget{Epsilon: 0.5}), WithPasses(passes), WithBatch(5),
			WithRadius(100), WithStrategy(strategy, workers),
		}
	}
	scenarios := []scenario{
		{"strongly-convex/sequential", loss.NewLogistic(1e-2, 0), mk(engine.Sequential, 1, 3)},
		{"strongly-convex/sharded-3", loss.NewLogistic(1e-2, 0), mk(engine.Sharded, 3, 3)},
		{"strongly-convex/streaming", loss.NewLogistic(1e-2, 0), mk(engine.Streaming, 1, 1)},
		{"convex/sequential", loss.NewLogistic(0, 0), mk(engine.Sequential, 1, 2)},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			resS, err := TrainCtx(context.Background(), sp, sc.f,
				append(sc.opts, WithRand(rand.New(rand.NewSource(99))))...)
			if err != nil {
				t.Fatal(err)
			}
			resD, err := TrainCtx(context.Background(), de, sc.f,
				append(sc.opts, WithRand(rand.New(rand.NewSource(99))))...)
			if err != nil {
				t.Fatal(err)
			}
			if resS.Sensitivity != resD.Sensitivity {
				t.Errorf("Δ₂ depends on representation: sparse %v dense %v",
					resS.Sensitivity, resD.Sensitivity)
			}
			if resS.NoiseNorm != resD.NoiseNorm {
				t.Errorf("noise draw depends on representation: ‖κ‖ sparse %v dense %v",
					resS.NoiseNorm, resD.NoiseNorm)
			}
			if resS.Updates != resD.Updates || resS.Passes != resD.Passes {
				t.Errorf("bookkeeping: sparse %d/%d dense %d/%d",
					resS.Updates, resS.Passes, resD.Updates, resD.Passes)
			}
			// With identical noise, the private outputs differ only by
			// the kernels' rounding.
			if !vec.Equal(resS.W, resD.W, 1e-12) {
				t.Errorf("private models diverged beyond rounding")
			}
			if !vec.Equal(resS.NonPrivate, resD.NonPrivate, 1e-12) {
				t.Errorf("pre-noise models diverged beyond rounding")
			}
		})
	}
}
