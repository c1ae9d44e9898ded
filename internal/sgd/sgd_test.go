package sgd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"boltondp/internal/loss"
	"boltondp/internal/vec"
)

// separable builds a linearly separable binary dataset: y = sign(x[0]).
func separable(r *rand.Rand, m, d int) *SliceSamples {
	s := &SliceSamples{X: make([][]float64, m), Y: make([]float64, m)}
	for i := 0; i < m; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		if math.Abs(x[0]) < 0.3 {
			x[0] = math.Copysign(0.3, x[0]) // margin
		}
		vec.Normalize(x)
		s.X[i] = x
		s.Y[i] = math.Copysign(1, x[0])
	}
	return s
}

func TestRunReducesRisk(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	s := separable(r, 500, 5)
	f := loss.NewLogistic(0, 0)
	w0risk := EmpiricalRisk(s, f, make([]float64, 5))
	res, err := Run(s, Config{
		Loss:   f,
		Step:   Constant(1 / math.Sqrt(500)),
		Passes: 10,
		Batch:  1,
		Rand:   r,
	})
	if err != nil {
		t.Fatal(err)
	}
	risk := EmpiricalRisk(s, f, res.W)
	if risk >= w0risk {
		t.Errorf("risk did not decrease: %v -> %v", w0risk, risk)
	}
	if risk > 0.3 {
		t.Errorf("risk on separable data = %v, want < 0.3", risk)
	}
	if res.Updates != 5000 {
		t.Errorf("Updates = %d, want 5000", res.Updates)
	}
	if res.Passes != 10 {
		t.Errorf("Passes = %d, want 10", res.Passes)
	}
}

func TestRunDeterministicUnderSeed(t *testing.T) {
	f := loss.NewLogistic(1e-2, 0)
	mk := func() []float64 {
		r := rand.New(rand.NewSource(77))
		s := separable(r, 200, 4)
		res, err := Run(s, Config{
			Loss:   f,
			Step:   StronglyConvexPaper(f.Params().Beta, f.Params().Gamma),
			Passes: 3,
			Batch:  10,
			Rand:   rand.New(rand.NewSource(5)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.W
	}
	a, b := mk(), mk()
	if !vec.Equal(a, b, 0) {
		t.Error("Run is not deterministic under fixed seeds")
	}
}

func TestRunFixedPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	s := separable(r, 50, 3)
	f := loss.NewLogistic(0, 0)
	perm := make([]int, 50)
	for i := range perm {
		perm[i] = 49 - i
	}
	cfg := Config{Loss: f, Step: Constant(0.1), Passes: 2, Batch: 1, Perm: perm}
	a, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(a.W, b.W, 0) {
		t.Error("fixed-permutation runs differ")
	}
}

func TestRunValidation(t *testing.T) {
	f := loss.NewLogistic(0, 0)
	s := &SliceSamples{X: [][]float64{{1}}, Y: []float64{1}}
	cases := []struct {
		name string
		cfg  Config
		s    Samples
	}{
		{"no loss", Config{Step: Constant(1), Passes: 1, Rand: rand.New(rand.NewSource(1))}, s},
		{"no step", Config{Loss: f, Passes: 1, Rand: rand.New(rand.NewSource(1))}, s},
		{"zero passes", Config{Loss: f, Step: Constant(1), Rand: rand.New(rand.NewSource(1))}, s},
		{"empty data", Config{Loss: f, Step: Constant(1), Passes: 1, Rand: rand.New(rand.NewSource(1))}, &SliceSamples{}},
		{"no rand no perm", Config{Loss: f, Step: Constant(1), Passes: 1}, s},
		{"bad perm len", Config{Loss: f, Step: Constant(1), Passes: 1, Perm: []int{0, 1}}, s},
		{"bad w0", Config{Loss: f, Step: Constant(1), Passes: 1, Perm: []int{0}, W0: []float64{1, 2}}, s},
		{"negative batch", Config{Loss: f, Step: Constant(1), Passes: 1, Batch: -1, Perm: []int{0}}, s},
	}
	for _, c := range cases {
		if _, err := Run(c.s, c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestProjectionRespected(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := separable(r, 100, 4)
	f := loss.NewLogistic(0, 0)
	const R = 0.05
	// Large steps would push ‖w‖ way past R without projection.
	res, err := Run(s, Config{
		Loss: f, Step: Constant(1.0), Passes: 3, Batch: 1, Radius: R, Rand: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := vec.Norm(res.W); n > R+1e-12 {
		t.Errorf("‖w‖ = %v exceeds radius %v", n, R)
	}
}

func TestFullBatchEqualsGradientDescent(t *testing.T) {
	// Batch = m: one update per pass with the full average gradient,
	// independent of the permutation.
	r := rand.New(rand.NewSource(4))
	s := separable(r, 30, 3)
	f := loss.NewLogistic(0, 0)
	res, err := Run(s, Config{
		Loss: f, Step: Constant(0.5), Passes: 1, Batch: 30,
		Rand: rand.New(rand.NewSource(9)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != 1 {
		t.Fatalf("Updates = %d, want 1", res.Updates)
	}
	// Manual full gradient step from the origin.
	w := make([]float64, 3)
	g := make([]float64, 3)
	gb := make([]float64, 3)
	for i := 0; i < 30; i++ {
		x, y := s.At(i)
		loss.Grad(f, gb, w, x, y)
		vec.Axpy(g, 1.0/30, gb)
	}
	vec.Axpy(w, -0.5, g)
	if !vec.Equal(res.W, w, 1e-12) {
		t.Errorf("full-batch step %v != manual %v", res.W, w)
	}
}

func TestBatchLargerThanMClamped(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := separable(r, 10, 2)
	f := loss.NewLogistic(0, 0)
	res, err := Run(s, Config{Loss: f, Step: Constant(0.1), Passes: 2, Batch: 100, Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != 2 {
		t.Errorf("Updates = %d, want 2 (one per pass)", res.Updates)
	}
}

func TestAveragingMatchesManual(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	s := separable(r, 20, 2)
	f := loss.NewLogistic(0, 0)
	perm := rand.New(rand.NewSource(7)).Perm(20)
	cfg := Config{Loss: f, Step: Constant(0.2), Passes: 1, Batch: 1, Perm: perm, Average: true}
	res, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Manual replication of the iterate average.
	w := make([]float64, 2)
	sum := make([]float64, 2)
	g := make([]float64, 2)
	for t1 := 0; t1 < 20; t1++ {
		x, y := s.At(perm[t1])
		loss.Grad(f, g, w, x, y)
		vec.Axpy(w, -0.2, g)
		vec.Axpy(sum, 1, w)
	}
	vec.Scale(sum, 1.0/20)
	if !vec.Equal(res.WAvg, sum, 1e-12) {
		t.Errorf("WAvg = %v, want %v", res.WAvg, sum)
	}
	if res.Model() == nil || !vec.Equal(res.Model(), res.WAvg, 0) {
		t.Error("Model() should prefer WAvg when averaging")
	}
}

func TestModelWithoutAveraging(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	s := separable(r, 20, 2)
	res, err := Run(s, Config{
		Loss: loss.NewLogistic(0, 0), Step: Constant(0.1), Passes: 1, Rand: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WAvg != nil {
		t.Error("WAvg should be nil without Average")
	}
	if !vec.Equal(res.Model(), res.W, 0) {
		t.Error("Model() should be W without averaging")
	}
}

func TestGradNoiseHookInvoked(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s := separable(r, 40, 3)
	var calls []int
	_, err := Run(s, Config{
		Loss: loss.NewLogistic(0, 0), Step: Constant(0.1), Passes: 2, Batch: 10, Rand: r,
		GradNoise: func(t int, g []float64) { calls = append(calls, t) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 8 { // 40/10 batches × 2 passes
		t.Fatalf("hook called %d times, want 8", len(calls))
	}
	for i, c := range calls {
		if c != i+1 {
			t.Fatalf("hook counter sequence %v not 1..8", calls)
		}
	}
}

func TestFreshPermChangesTrajectory(t *testing.T) {
	mk := func(fresh bool) []float64 {
		r := rand.New(rand.NewSource(12))
		s := separable(r, 100, 3)
		res, err := Run(s, Config{
			Loss: loss.NewLogistic(0, 0), Step: Constant(0.3), Passes: 5, Batch: 1,
			Rand: rand.New(rand.NewSource(13)), FreshPerm: fresh,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.W
	}
	if vec.Equal(mk(false), mk(true), 1e-15) {
		t.Error("fresh permutations produced the identical trajectory (suspicious)")
	}
}

// Lemma 1.1: for convex β-smooth loss and η ≤ 2/β the gradient update
// is 1-expansive.
func TestConvexUpdateIsOneExpansiveProperty(t *testing.T) {
	f := loss.NewLogistic(0, 0)
	beta := f.Params().Beta
	eta := 2 / beta
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(5)
		u := make([]float64, d)
		v := make([]float64, d)
		x := make([]float64, d)
		for i := 0; i < d; i++ {
			u[i], v[i], x[i] = r.NormFloat64(), r.NormFloat64(), r.NormFloat64()
		}
		vec.Normalize(x)
		y := math.Copysign(1, r.NormFloat64())
		gu := make([]float64, d)
		gv := make([]float64, d)
		loss.Grad(f, gu, u, x, y)
		loss.Grad(f, gv, v, x, y)
		before := vec.Dist(u, v)
		vec.Axpy(u, -eta, gu)
		vec.Axpy(v, -eta, gv)
		return vec.Dist(u, v) <= before+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Lemma 2: for γ-strongly convex β-smooth loss and η ≤ 1/β the update
// is (1−ηγ)-expansive.
func TestStronglyConvexContractionProperty(t *testing.T) {
	f := loss.NewLogistic(0.1, 0)
	p := f.Params()
	eta := 1 / p.Beta
	rho := 1 - eta*p.Gamma
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(5)
		u := make([]float64, d)
		v := make([]float64, d)
		x := make([]float64, d)
		for i := 0; i < d; i++ {
			u[i], v[i], x[i] = r.NormFloat64(), r.NormFloat64(), r.NormFloat64()
		}
		vec.Normalize(x)
		y := math.Copysign(1, r.NormFloat64())
		gu := make([]float64, d)
		gv := make([]float64, d)
		loss.Grad(f, gu, u, x, y)
		loss.Grad(f, gv, v, x, y)
		before := vec.Dist(u, v)
		vec.Axpy(u, -eta, gu)
		vec.Axpy(v, -eta, gv)
		return vec.Dist(u, v) <= rho*before+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Lemma 3: the update is (ηL)-bounded: ‖G(w)−w‖ ≤ ηL.
func TestBoundednessProperty(t *testing.T) {
	f := loss.NewHuber(0.1, 0, 0)
	L := f.Params().L
	eta := 0.37
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(5)
		w := make([]float64, d)
		x := make([]float64, d)
		for i := 0; i < d; i++ {
			w[i], x[i] = r.NormFloat64(), r.NormFloat64()
		}
		vec.Normalize(x)
		y := math.Copysign(1, r.NormFloat64())
		g := make([]float64, d)
		loss.Grad(f, g, w, x, y)
		return eta*vec.Norm(g) <= eta*L+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEmpiricalRiskEmpty(t *testing.T) {
	if r := EmpiricalRisk(&SliceSamples{}, loss.NewLogistic(0, 0), nil); r != 0 {
		t.Errorf("risk of empty set = %v, want 0", r)
	}
}

func TestSchedules(t *testing.T) {
	if got := Constant(0.5).Eta(10); got != 0.5 {
		t.Errorf("Constant = %v", got)
	}
	if got := InvT(2).Eta(4); math.Abs(got-1.0/8) > 1e-15 {
		t.Errorf("InvT = %v", got)
	}
	sc := StronglyConvexPaper(4, 2) // min(1/4, 1/(2t))
	if got := sc.Eta(1); got != 0.25 {
		t.Errorf("StronglyConvexPaper(t=1) = %v, want 1/β cap 0.25", got)
	}
	if got := sc.Eta(100); math.Abs(got-1.0/200) > 1e-15 {
		t.Errorf("StronglyConvexPaper(t=100) = %v", got)
	}
	if got := InvSqrtT(1).Eta(4); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("InvSqrtT = %v", got)
	}
	dc := DecreasingConvex(2, 100, 0.5) // 2/(2(t+10)) = 1/(t+10)
	if got := dc.Eta(5); math.Abs(got-1.0/15) > 1e-12 {
		t.Errorf("DecreasingConvex = %v", got)
	}
	sq := SqrtConvex(2, 100, 0.5) // 1/(√t+10)
	if got := sq.Eta(4); math.Abs(got-1.0/12) > 1e-12 {
		t.Errorf("SqrtConvex = %v", got)
	}
	// Names are non-empty and distinct enough for logs.
	for _, s := range []Schedule{Constant(1), InvT(1), sc, InvSqrtT(1), dc, sq} {
		if s.Name() == "" {
			t.Error("empty schedule name")
		}
	}
}

func TestSchedulePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Constant(0)":             func() { Constant(0) },
		"InvT(0)":                 func() { InvT(0) },
		"StronglyConvexPaper bad": func() { StronglyConvexPaper(0, 1) },
		"InvSqrtT(0)":             func() { InvSqrtT(0) },
		"DecreasingConvex c=1":    func() { DecreasingConvex(1, 10, 1) },
		"SqrtConvex m=0":          func() { SqrtConvex(1, 0, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Monotone decay of the decreasing schedules.
func TestScheduleMonotonicityProperty(t *testing.T) {
	scheds := []Schedule{
		InvT(0.5),
		StronglyConvexPaper(2, 0.5),
		InvSqrtT(1),
		DecreasingConvex(1, 50, 0.3),
		SqrtConvex(1, 50, 0.3),
	}
	for _, s := range scheds {
		prev := s.Eta(1)
		for tt := 2; tt <= 1000; tt++ {
			cur := s.Eta(tt)
			if cur > prev+1e-15 {
				t.Errorf("%s increased at t=%d: %v -> %v", s.Name(), tt, prev, cur)
				break
			}
			prev = cur
		}
	}
}
