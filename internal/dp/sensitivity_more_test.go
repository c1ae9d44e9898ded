package dp

// Brute-force empirical validation of the remaining sensitivity bounds:
// Corollary 2 (decreasing convex steps), Corollary 3 (square-root
// convex steps), and the growth recursion of Lemma 4 that underlies
// them.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

func runPair(t *testing.T, f loss.Function, step sgd.Schedule, S, Sp *sgd.SliceSamples, k, b int, radius float64, perm []int) float64 {
	t.Helper()
	cfg := sgd.Config{Loss: f, Step: step, Passes: k, Batch: b, Radius: radius, Perm: perm}
	w1, err := sgd.Run(S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := sgd.Run(Sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return vec.Dist(w1.W, w2.W)
}

func TestEmpiricalSensitivityConvexDecreasingProperty(t *testing.T) {
	f := loss.NewLogistic(0, 0)
	p := f.Params()
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 20 + r.Intn(30)
		k := 1 + r.Intn(3)
		b := 1 + r.Intn(2)
		c := 0.3 + 0.4*r.Float64()
		S := randomSet(r, m, 3)
		Sp := neighbor(r, S, r.Intn(m))
		d := runPair(t, f, sgd.DecreasingConvex(p.Beta, m, c), S, Sp, k, b, 0, r.Perm(m))
		return d <= sensitivityConvexDecreasing(p.L, p.Beta, k, m, b, c)+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestEmpiricalSensitivityConvexSqrtProperty(t *testing.T) {
	f := loss.NewLogistic(0, 0)
	p := f.Params()
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 20 + r.Intn(30)
		k := 1 + r.Intn(3)
		b := 1 + r.Intn(2)
		c := 0.3 + 0.4*r.Float64()
		S := randomSet(r, m, 3)
		Sp := neighbor(r, S, r.Intn(m))
		d := runPair(t, f, sgd.SqrtConvex(p.Beta, m, c), S, Sp, k, b, 0, r.Perm(m))
		return d <= sensitivityConvexSqrt(p.L, p.Beta, k, m, b, c)+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Direct validation of the Growth Recursion Lemma (Lemma 4): track δ_t
// along a pair of real SGD trajectories on neighboring datasets, and
// check that at every step the recursion's bound holds:
//
//	same update (Gt = G′t, ρ-expansive):   δ_t ≤ ρ·δ_{t−1}
//	differing update (σ-bounded, ρ-exp.):  δ_t ≤ min(ρ,1)·δ_{t−1} + 2σ_t
func TestGrowthRecursionLemma(t *testing.T) {
	lambda := 0.05
	f := loss.NewLogistic(lambda, 0)
	p := f.Params()
	eta := 1 / p.Beta
	rho := 1 - eta*p.Gamma // Lemma 2
	sigma := eta * p.L     // Lemma 3

	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		m, d := 25, 3
		S := randomSet(r, m, d)
		Sp := neighbor(r, S, r.Intn(m))
		diffIdx := -1
		for i := 0; i < m; i++ {
			x1, y1 := S.At(i)
			x2, y2 := Sp.At(i)
			if y1 != y2 || !vec.Equal(x1, x2, 0) {
				diffIdx = i
				break
			}
		}
		if diffIdx < 0 {
			t.Fatal("neighbor() produced identical datasets")
		}
		perm := r.Perm(m)

		w1 := make([]float64, d)
		w2 := make([]float64, d)
		g := make([]float64, d)
		prev := 0.0
		for pass := 0; pass < 2; pass++ {
			for _, i := range perm {
				x, y := S.At(i)
				loss.Grad(f, g, w1, x, y)
				vec.Axpy(w1, -eta, g)
				x, y = Sp.At(i)
				loss.Grad(f, g, w2, x, y)
				vec.Axpy(w2, -eta, g)
				cur := vec.Dist(w1, w2)
				var bound float64
				if i == diffIdx {
					bound = math.Min(rho, 1)*prev + 2*sigma
				} else {
					bound = rho * prev
				}
				if cur > bound+1e-9 {
					t.Fatalf("seed %d: growth recursion violated at i=%d: δ=%v > %v", seed, i, cur, bound)
				}
				prev = cur
			}
		}
	}
}

// Mini-batching improves sensitivity by the factor b (§3.2.3): compare
// the empirical sensitivity of b=1 and b=5 runs at the same k and m
// against their respective bounds, and confirm the b=5 bound is 5×
// smaller.
func TestMiniBatchFactorProperty(t *testing.T) {
	f := loss.NewLogistic(0, 0)
	p := f.Params()
	eta := 1 / p.Beta
	b1 := SensitivityConvexConstant(p.L, eta, 2, 1)
	b5 := SensitivityConvexConstant(p.L, eta, 2, 5)
	if math.Abs(b1/b5-5) > 1e-9 {
		t.Fatalf("batch factor: %v / %v != 5", b1, b5)
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 20 + 5*r.Intn(5) // multiple of 5 so batches align
		S := randomSet(r, m, 3)
		Sp := neighbor(r, S, r.Intn(m))
		perm := r.Perm(m)
		d5 := runPair(t, f, sgd.Constant(eta), S, Sp, 2, 5, 0, perm)
		return d5 <= b5+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
