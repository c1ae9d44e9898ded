package dp

// These tests exercise the sharded (averaged-model) sensitivity bounds
// against real engine runs; internal/engine does not import dp, so
// they can drive it from inside the package.

import (
	"math"
	"math/rand"
	"testing"

	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

func TestShardedSensitivityFormulas(t *testing.T) {
	L, gamma, beta := 1.0, 0.05, 0.3

	// Equal shards: the sharded strongly convex bound collapses to the
	// sequential bound at the full size — the privacy-free parallelism
	// identity.
	m, workers := 1000, 5
	got := SensitivityShardedStronglyConvex(L, gamma, m/workers, workers)
	want := SensitivityStronglyConvex(L, gamma, m)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("sharded strongly convex %v != sequential %v", got, want)
	}

	// Convex constant: exactly the sequential bound divided by P.
	if got, want := SensitivityShardedConvexConstant(L, 0.01, 3, 10, 4),
		SensitivityConvexConstant(L, 0.01, 3, 10)/4; math.Abs(got-want) > 1e-18 {
		t.Errorf("sharded convex constant %v, want %v", got, want)
	}
	if got, want := SensitivityShardedConvexDecreasing(L, beta, 3, 200, 10, 0.5, 4),
		sensitivityConvexDecreasing(L, beta, 3, 200, 10, 0.5)/4; math.Abs(got-want) > 1e-18 {
		t.Errorf("sharded convex decreasing %v, want %v", got, want)
	}
	if got, want := SensitivityShardedConvexSqrt(L, beta, 3, 200, 10, 0.5, 4),
		sensitivityConvexSqrt(L, beta, 3, 200, 10, 0.5)/4; math.Abs(got-want) > 1e-18 {
		t.Errorf("sharded convex sqrt %v, want %v", got, want)
	}

	// Workers = 1 must be the plain bound.
	if got, want := SensitivityShardedStronglyConvex(L, gamma, m, 1),
		SensitivityStronglyConvex(L, gamma, m); got != want {
		t.Errorf("workers=1 %v != plain %v", got, want)
	}

	defer func() {
		if recover() == nil {
			t.Error("workers=0 did not panic")
		}
	}()
	SensitivityShardedStronglyConvex(L, gamma, m, 0)
}

// The averaged-model sensitivity property, brute force: run the sharded
// engine on neighboring datasets (one replaced example) with identical
// randomness and verify the merged models never diverge by more than
// Δ_sharded = Δ_shard(minShard)/P. This is the Lemma 5-style pairwise
// check of the engine's per-epoch averaging analysis.
func TestShardedEmpiricalSensitivityProperty(t *testing.T) {
	lambda := 0.05
	f := loss.NewLogistic(lambda, 0)
	p := f.Params()
	const (
		m, d    = 120, 3
		workers = 3
		passes  = 3
		batch   = 2
	)
	step := sgd.StronglyConvexPaper(p.Beta, p.Gamma)
	bound := SensitivityShardedStronglyConvex(p.L, p.Gamma, m/workers, workers)

	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(300 + seed))
		xs := make([][]float64, m)
		ys := make([]float64, m)
		for i := range xs {
			x := make([]float64, d)
			for j := range x {
				x[j] = r.NormFloat64()
			}
			vec.Normalize(x)
			xs[i] = x
			ys[i] = math.Copysign(1, r.NormFloat64())
		}
		alt := r.Intn(m)
		nx := []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		vec.Normalize(nx)
		ny := math.Copysign(1, r.NormFloat64())

		run := func(ax []float64, ay float64) []float64 {
			x2 := make([][]float64, m)
			y2 := make([]float64, m)
			copy(x2, xs)
			copy(y2, ys)
			x2[alt], y2[alt] = ax, ay
			res, err := engine.Run(&sgd.SliceSamples{X: x2, Y: y2}, engine.Config{
				Strategy: engine.Sharded,
				Workers:  workers,
				SGD: sgd.Config{
					Loss: f, Step: step, Passes: passes, Batch: batch,
					Radius: 1 / lambda,
					Rand:   rand.New(rand.NewSource(900 + seed)), // same worker seeds both runs
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.W
		}

		w1 := run(xs[alt], ys[alt])
		w2 := run(nx, ny)
		if dist := vec.Dist(w1, w2); dist > bound+1e-9 {
			t.Fatalf("seed %d: empirical sharded sensitivity %v exceeds bound %v", seed, dist, bound)
		}
	}
}

// Same property for the convex constant-step bound 2kLη/(bP).
func TestShardedEmpiricalSensitivityConvex(t *testing.T) {
	f := loss.NewLogistic(0, 0) // plain convex logistic
	p := f.Params()
	const (
		m, d    = 90, 3
		workers = 3
		passes  = 2
		batch   = 3
	)
	eta := math.Min(1/math.Sqrt(float64(m/workers)), 2/p.Beta)
	step := sgd.Constant(eta)
	bound := SensitivityShardedConvexConstant(p.L, eta, passes, batch, workers)

	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(600 + seed))
		xs := make([][]float64, m)
		ys := make([]float64, m)
		for i := range xs {
			x := make([]float64, d)
			for j := range x {
				x[j] = r.NormFloat64()
			}
			vec.Normalize(x)
			xs[i] = x
			ys[i] = math.Copysign(1, r.NormFloat64())
		}
		alt := r.Intn(m)
		nx := []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		vec.Normalize(nx)

		run := func(ax []float64, ay float64) []float64 {
			x2 := make([][]float64, m)
			y2 := make([]float64, m)
			copy(x2, xs)
			copy(y2, ys)
			x2[alt], y2[alt] = ax, ay
			res, err := engine.Run(&sgd.SliceSamples{X: x2, Y: y2}, engine.Config{
				Strategy: engine.Sharded,
				Workers:  workers,
				SGD: sgd.Config{
					Loss: f, Step: step, Passes: passes, Batch: batch,
					Rand: rand.New(rand.NewSource(1200 + seed)),
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.W
		}

		w1 := run(xs[alt], ys[alt])
		w2 := run(nx, math.Copysign(1, r.NormFloat64()))
		if dist := vec.Dist(w1, w2); dist > bound+1e-9 {
			t.Fatalf("seed %d: empirical convex sharded sensitivity %v exceeds bound %v", seed, dist, bound)
		}
	}
}
