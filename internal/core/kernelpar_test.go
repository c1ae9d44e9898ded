package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"boltondp/internal/baselines"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
)

// TestKernelWorkersParityWall is the cross-layer parity wall for the
// deterministic parallel kernel: KernelWorkers ∈ {1, 2, 4} must leave
// every training output BIT-identical — not tolerance-close — across
// {dense, sparse} sources × all three engine strategies × {noiseless
// baseline, private TrainCtx}. The private leg additionally pins the
// noise draw and sensitivity, proving parallelism never touches the
// randomness schedule or the privacy calculus.
func TestKernelWorkersParityWall(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	sp := data.SparseSynthetic(r, 360, 50, 6, 0.02)
	de := sp.ToDense()
	f := loss.NewLogistic(1e-2, 0)

	bitsEq := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}

	strategies := []struct {
		name     string
		strategy engine.Strategy
		workers  int
		passes   int
	}{
		{"sequential", engine.Sequential, 1, 3},
		{"sharded-3", engine.Sharded, 3, 3},
		{"streaming", engine.Streaming, 1, 1},
	}
	sources := []struct {
		name string
		s    sgd.Samples
	}{{"dense", de}, {"sparse", sp}}

	for _, src := range sources {
		for _, sc := range strategies {
			t.Run(fmt.Sprintf("private/%s/%s", src.name, sc.name), func(t *testing.T) {
				run := func(kw int) *Result {
					res, err := TrainCtx(context.Background(), src.s, f,
						WithBudget(dp.Budget{Epsilon: 0.5}),
						WithPasses(sc.passes), WithBatch(10), WithRadius(100),
						WithStrategy(sc.strategy, sc.workers),
						WithKernelWorkers(kw),
						WithRand(rand.New(rand.NewSource(99))))
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				base := run(1)
				for _, kw := range []int{2, 4} {
					res := run(kw)
					if res.Sensitivity != base.Sensitivity || res.NoiseNorm != base.NoiseNorm {
						t.Errorf("W=%d: privacy calculus moved: Δ₂ %v→%v ‖κ‖ %v→%v", kw,
							base.Sensitivity, res.Sensitivity, base.NoiseNorm, res.NoiseNorm)
					}
					if res.Updates != base.Updates || res.Passes != base.Passes {
						t.Errorf("W=%d: bookkeeping %d/%d, want %d/%d", kw,
							res.Updates, res.Passes, base.Updates, base.Passes)
					}
					if !bitsEq(res.W, base.W) {
						t.Errorf("W=%d: private model not bit-identical", kw)
					}
					if !bitsEq(res.NonPrivate, base.NonPrivate) {
						t.Errorf("W=%d: pre-noise model not bit-identical", kw)
					}
				}
			})
			t.Run(fmt.Sprintf("noiseless/%s/%s", src.name, sc.name), func(t *testing.T) {
				run := func(kw int) *baselines.Result {
					res, err := baselines.Noiseless(src.s, f, baselines.Options{
						Passes: sc.passes, Batch: 10, Radius: 100,
						Strategy: sc.strategy, Workers: sc.workers,
						KernelWorkers: kw,
						Rand:          rand.New(rand.NewSource(7)),
					})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				base := run(1)
				for _, kw := range []int{2, 4} {
					res := run(kw)
					if res.Updates != base.Updates {
						t.Errorf("W=%d: updates %d, want %d", kw, res.Updates, base.Updates)
					}
					if !bitsEq(res.W, base.W) {
						t.Errorf("W=%d: noiseless model not bit-identical", kw)
					}
				}
			})
		}
	}
}

func TestKernelWorkersOptionValidation(t *testing.T) {
	ds := strategyDataset(8, 100, 3)
	f := loss.NewLogistic(1e-2, 0)
	if _, err := TrainCtx(context.Background(), ds, f,
		WithBudget(dp.Budget{Epsilon: 1}), WithKernelWorkers(-2),
		WithRand(rand.New(rand.NewSource(9)))); err == nil {
		t.Error("negative KernelWorkers accepted")
	}
}
