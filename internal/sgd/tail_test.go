package sgd

import (
	"math"
	"math/rand"
	"testing"

	"boltondp/internal/loss"
	"boltondp/internal/vec"
)

func TestAverageTailMatchesManual(t *testing.T) {
	const m, k = 30, 2
	r := rand.New(rand.NewSource(1))
	s := separable(r, m, 3)
	f := loss.NewLogistic(0, 0)
	perm := rand.New(rand.NewSource(2)).Perm(m)
	res, err := Run(s, Config{
		Loss: f, Step: Constant(0.2), Passes: k, Batch: 1, Perm: perm, AverageTail: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WAvg == nil {
		t.Fatal("AverageTail produced no WAvg")
	}
	// Manual replication: T = 60, tail = ceil(ln 60) = 5 last iterates.
	T := k * m
	n := int(math.Ceil(math.Log(float64(T))))
	w := make([]float64, 3)
	g := make([]float64, 3)
	sum := make([]float64, 3)
	cnt := 0
	for tt := 1; tt <= T; tt++ {
		x, y := s.At(perm[(tt-1)%m])
		loss.Grad(f, g, w, x, y)
		vec.Axpy(w, -0.2, g)
		if tt >= T-n+1 {
			vec.Axpy(sum, 1, w)
			cnt++
		}
	}
	vec.Scale(sum, 1/float64(cnt))
	if cnt != n {
		t.Fatalf("manual tail count %d, want %d", cnt, n)
	}
	if !vec.Equal(res.WAvg, sum, 1e-12) {
		t.Errorf("tail average %v != manual %v", res.WAvg, sum)
	}
	// Tail average of the end of the run should differ from the full
	// average and from the last iterate in general.
	if vec.Equal(res.WAvg, res.W, 0) {
		t.Error("tail average identical to last iterate (n>1 expected)")
	}
}

func TestAverageTailValidation(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := separable(r, 20, 2)
	f := loss.NewLogistic(0, 0)
	if _, err := Run(s, Config{
		Loss: f, Step: Constant(0.1), Passes: 1, Rand: r, Average: true, AverageTail: true,
	}); err == nil {
		t.Error("Average+AverageTail accepted")
	}
}

func TestAverageTailSingleUpdate(t *testing.T) {
	// T = 1: tail covers exactly the single iterate; WAvg == W.
	r := rand.New(rand.NewSource(4))
	s := separable(r, 10, 2)
	res, err := Run(s, Config{
		Loss: loss.NewLogistic(0, 0), Step: Constant(0.1), Passes: 1, Batch: 10,
		Rand: r, AverageTail: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(res.WAvg, res.W, 0) {
		t.Errorf("T=1 tail average %v != last iterate %v", res.WAvg, res.W)
	}
}

// Tail averaging keeps the sensitivity bound (Lemma 10: δt
// non-decreasing ⇒ any averaging is bounded by δT).
func TestAverageTailSensitivityProperty(t *testing.T) {
	f := loss.NewLogistic(0, 0)
	p := f.Params()
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := 20 + r.Intn(20)
		eta := 1 / p.Beta
		S := separable(r, m, 3)
		// Neighbor differing at a random index.
		Sp := &SliceSamples{X: make([][]float64, m), Y: make([]float64, m)}
		copy(Sp.X, S.X)
		copy(Sp.Y, S.Y)
		i := r.Intn(m)
		nx := []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		vec.Normalize(nx)
		Sp.X[i] = nx
		Sp.Y[i] = math.Copysign(1, r.NormFloat64())

		perm := r.Perm(m)
		cfg := Config{Loss: f, Step: Constant(eta), Passes: 2, Batch: 1, Perm: perm, AverageTail: true}
		w1, err := Run(S, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := Run(Sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bound := 2 * 2 * p.L * eta // 2kLη, k=2
		if d := vec.Dist(w1.WAvg, w2.WAvg); d > bound+1e-9 {
			t.Fatalf("seed %d: tail-averaged sensitivity %v exceeds bound %v", seed, d, bound)
		}
	}
}
