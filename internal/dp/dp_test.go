package dp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

func TestBudgetValidate(t *testing.T) {
	good := []Budget{{1, 0}, {0.1, 1e-6}, {4, 0.01}}
	for _, b := range good {
		if err := b.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", b, err)
		}
	}
	bad := []Budget{{0, 0}, {-1, 0}, {1, -0.1}, {1, 1}}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("%v: expected error", b)
		}
	}
}

func TestBudgetPureAndString(t *testing.T) {
	if !(Budget{1, 0}).Pure() {
		t.Error("δ=0 should be pure")
	}
	if (Budget{1, 1e-6}).Pure() {
		t.Error("δ>0 should not be pure")
	}
	if s := (Budget{1, 0}).String(); s == "" {
		t.Error("empty String")
	}
	if s := (Budget{1, 1e-6}).String(); s == "" {
		t.Error("empty String")
	}
}

func TestBudgetSplit(t *testing.T) {
	b := Budget{Epsilon: 1, Delta: 1e-4}.Split(10)
	if math.Abs(b.Epsilon-0.1) > 1e-15 || math.Abs(b.Delta-1e-5) > 1e-20 {
		t.Errorf("Split = %v", b)
	}
	defer func() {
		if recover() == nil {
			t.Error("Split(0) did not panic")
		}
	}()
	Budget{Epsilon: 1}.Split(0)
}

func TestPerturbPure(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	w := []float64{1, 2, 3}
	out, err := Budget{Epsilon: 1}.Perturb(r, w, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if vec.Equal(out, w, 0) {
		t.Error("pure Perturb added no noise")
	}
	if !vec.Equal(w, []float64{1, 2, 3}, 0) {
		t.Error("Perturb modified its input")
	}
	// ‖κ‖ mean over many draws ≈ d·Δ/ε.
	const n = 30000
	var sum float64
	for i := 0; i < n; i++ {
		o, _ := Budget{Epsilon: 2}.Perturb(r, w, 0.5)
		diff := make([]float64, 3)
		vec.Sub(diff, o, w)
		sum += vec.Norm(diff)
	}
	want := 3 * 0.5 / 2.0
	if mean := sum / n; math.Abs(mean-want) > 0.05*want {
		t.Errorf("mean noise norm %v, want ~%v", mean, want)
	}
}

func TestPerturbGaussian(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	w := make([]float64, 5)
	b := Budget{Epsilon: 0.5, Delta: 1e-5}
	const n = 50000
	var sum2 float64
	for i := 0; i < n; i++ {
		o, err := b.Perturb(r, w, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range o {
			sum2 += x * x
		}
	}
	sigma := math.Sqrt(2*math.Log(1.25/b.Delta)) / b.Epsilon
	variance := sum2 / float64(n*5)
	if math.Abs(variance-sigma*sigma) > 0.05*sigma*sigma {
		t.Errorf("component variance %v, want ~%v", variance, sigma*sigma)
	}
}

func TestPerturbErrors(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	if _, err := (Budget{Epsilon: 0}).Perturb(r, []float64{1}, 1); err == nil {
		t.Error("expected error for ε=0")
	}
	if _, err := (Budget{Epsilon: 1}).Perturb(r, []float64{1}, -1); err == nil {
		t.Error("expected error for negative sensitivity")
	}
	if _, err := (Budget{Epsilon: 1}).Perturb(nil, []float64{1}, 1); err == nil {
		t.Error("expected error for nil rand")
	}
}

func TestPerturbZeroSensitivityIsIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	w := []float64{1, 2}
	out, err := Budget{Epsilon: 1}.Perturb(r, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(out, w, 0) {
		t.Errorf("zero sensitivity should add no noise: %v", out)
	}
}

func TestNoiseScale(t *testing.T) {
	// Pure: d·Δ/ε.
	if got := (Budget{Epsilon: 2}).NoiseScale(10, 1); math.Abs(got-5) > 1e-12 {
		t.Errorf("pure NoiseScale = %v, want 5", got)
	}
	// Gaussian grows like √d, so for large d it is far below the pure scale.
	g := Budget{Epsilon: 2, Delta: 1e-6}
	if g.NoiseScale(10000, 1) >= (Budget{Epsilon: 2}).NoiseScale(10000, 1) {
		t.Error("Gaussian noise scale should beat pure ε-DP at high d")
	}
}

func TestSensitivityClosedForms(t *testing.T) {
	// Corollary 1: 2kLη/b.
	if got := SensitivityConvexConstant(1, 0.01, 10, 1); math.Abs(got-0.2) > 1e-15 {
		t.Errorf("convex constant = %v, want 0.2", got)
	}
	if got := SensitivityConvexConstant(1, 0.01, 10, 50); math.Abs(got-0.004) > 1e-15 {
		t.Errorf("convex constant b=50 = %v, want 0.004", got)
	}
	// Lemma 8 (sound batch-aware form): 2L/(γm).
	if got := SensitivityStronglyConvex(2, 0.01, 1000); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("strongly convex = %v, want 0.4", got)
	}
	// Corollary 2: (4L/β)(1/m^c + ln k/m)/b.
	L, beta := 1.0, 1.0
	k, m, c := 4, 100, 0.5
	want := 4 * L / beta * (1/math.Sqrt(100) + math.Log(4)/100)
	if got := sensitivityConvexDecreasing(L, beta, k, m, 1, c); math.Abs(got-want) > 1e-12 {
		t.Errorf("convex decreasing = %v, want %v", got, want)
	}
	// Corollary 3 exact sum.
	var sum float64
	for j := 0; j < k; j++ {
		sum += 1 / math.Sqrt(float64(j*m)+1+math.Sqrt(100))
	}
	want = 4 * L / beta * sum
	if got := sensitivityConvexSqrt(L, beta, k, m, 1, c); math.Abs(got-want) > 1e-12 {
		t.Errorf("convex sqrt = %v, want %v", got, want)
	}
}

func TestSensitivityMonotonicity(t *testing.T) {
	// Convex constant grows with k; larger batches shrink everything;
	// strongly convex shrinks with m.
	if SensitivityConvexConstant(1, 0.01, 20, 1) <= SensitivityConvexConstant(1, 0.01, 10, 1) {
		t.Error("convex sensitivity should grow with passes")
	}
	if SensitivityConvexConstant(1, 0.01, 10, 50) >= SensitivityConvexConstant(1, 0.01, 10, 10) {
		t.Error("batching should shrink sensitivity")
	}
	if SensitivityStronglyConvex(1, 0.01, 10000) >= SensitivityStronglyConvex(1, 0.01, 1000) {
		t.Error("strongly convex sensitivity should shrink with m")
	}
}

func TestSensitivityPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"convex constant eta=0": func() { SensitivityConvexConstant(1, 0, 1, 1) },
		"convex constant k=0":   func() { SensitivityConvexConstant(1, 0.1, 0, 1) },
		"decreasing c=1":        func() { sensitivityConvexDecreasing(1, 1, 1, 10, 1, 1) },
		"sqrt beta=0":           func() { sensitivityConvexSqrt(1, 0, 1, 10, 1, 0.5) },
		"strongly gamma=0":      func() { SensitivityStronglyConvex(1, 0, 10) },
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

func TestSolveEps1Inverse(t *testing.T) {
	for _, c := range []struct {
		eps    float64
		T      int
		delta1 float64
	}{
		{1, 1000, 1e-8},
		{0.1, 60000, 1e-10},
		{4, 100, 1e-6},
	} {
		e1 := SolveEps1(c.eps, c.T, c.delta1)
		back := advancedCompositionEpsilon(e1, c.T, c.delta1)
		if math.Abs(back-c.eps) > 1e-6*c.eps {
			t.Errorf("SolveEps1(%v,%d,%v) = %v composes back to %v", c.eps, c.T, c.delta1, e1, back)
		}
		// Per-step budget must be far below the total for large T.
		if e1 >= c.eps {
			t.Errorf("eps1 = %v should be < eps = %v", e1, c.eps)
		}
	}
}

func TestAdvancedCompositionMonotone(t *testing.T) {
	prev := 0.0
	for _, e := range []float64{0.001, 0.01, 0.1, 0.5, 1} {
		cur := advancedCompositionEpsilon(e, 1000, 1e-8)
		if cur <= prev {
			t.Errorf("composition not increasing at ε₁=%v", e)
		}
		prev = cur
	}
}

// The central scientific check of the package: the closed-form bounds
// really do dominate the empirical L2 distance between PSGD outputs on
// neighboring datasets run with the same randomness (Lemma 5 + Lemma 6
// / Lemma 8). We brute-force random neighboring datasets, positions and
// permutations, run the actual engine, and compare.
func TestEmpiricalSensitivityConvexProperty(t *testing.T) {
	f := loss.NewLogistic(0, 0)
	p := f.Params()
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 20 + r.Intn(30)
		d := 2 + r.Intn(4)
		k := 1 + r.Intn(3)
		b := 1 + r.Intn(3)
		eta := (0.2 + 0.8*r.Float64()) * 2 / p.Beta // any η ≤ 2/β
		S := randomSet(r, m, d)
		Sp := neighbor(r, S, r.Intn(m))
		perm := r.Perm(m)
		cfg := sgd.Config{Loss: f, Step: sgd.Constant(eta), Passes: k, Batch: b, Perm: perm}
		w1, err := sgd.Run(S, cfg)
		if err != nil {
			return false
		}
		w2, err := sgd.Run(Sp, cfg)
		if err != nil {
			return false
		}
		bound := SensitivityConvexConstant(p.L, eta, k, b)
		return vec.Dist(w1.W, w2.W) <= bound+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEmpiricalSensitivityStronglyConvexProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lambda := []float64{0.01, 0.05, 0.1}[r.Intn(3)]
		f := loss.NewLogistic(lambda, 0)
		p := f.Params()
		m := 20 + r.Intn(30)
		d := 2 + r.Intn(4)
		k := 1 + r.Intn(3)
		b := 1 + r.Intn(3)
		S := randomSet(r, m, d)
		Sp := neighbor(r, S, r.Intn(m))
		perm := r.Perm(m)
		cfg := sgd.Config{
			Loss: f, Step: sgd.StronglyConvexPaper(p.Beta, p.Gamma),
			Passes: k, Batch: b, Perm: perm, Radius: 1 / lambda,
		}
		w1, err := sgd.Run(S, cfg)
		if err != nil {
			return false
		}
		w2, err := sgd.Run(Sp, cfg)
		if err != nil {
			return false
		}
		bound := SensitivityStronglyConvex(p.L, p.Gamma, m)
		return vec.Dist(w1.W, w2.W) <= bound+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Model averaging must not increase sensitivity (Lemma 10).
func TestEmpiricalSensitivityAveragingProperty(t *testing.T) {
	f := loss.NewLogistic(0, 0)
	p := f.Params()
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 20 + r.Intn(20)
		k := 1 + r.Intn(2)
		eta := 1 / p.Beta
		S := randomSet(r, m, 3)
		Sp := neighbor(r, S, r.Intn(m))
		perm := r.Perm(m)
		cfg := sgd.Config{Loss: f, Step: sgd.Constant(eta), Passes: k, Batch: 1, Perm: perm, Average: true}
		w1, err := sgd.Run(S, cfg)
		if err != nil {
			return false
		}
		w2, err := sgd.Run(Sp, cfg)
		if err != nil {
			return false
		}
		bound := SensitivityConvexConstant(p.L, eta, k, 1)
		return vec.Dist(w1.WAvg, w2.WAvg) <= bound+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// randomSet builds m unit-ball points with ±1 labels.
func randomSet(r *rand.Rand, m, d int) *sgd.SliceSamples {
	s := &sgd.SliceSamples{X: make([][]float64, m), Y: make([]float64, m)}
	for i := 0; i < m; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		vec.Normalize(x)
		s.X[i] = x
		s.Y[i] = math.Copysign(1, r.NormFloat64())
	}
	return s
}

// neighbor returns a copy of s with example i replaced by a fresh one.
func neighbor(r *rand.Rand, s *sgd.SliceSamples, i int) *sgd.SliceSamples {
	out := &sgd.SliceSamples{X: make([][]float64, len(s.X)), Y: make([]float64, len(s.Y))}
	copy(out.X, s.X)
	copy(out.Y, s.Y)
	x := make([]float64, len(s.X[i]))
	for j := range x {
		x[j] = r.NormFloat64()
	}
	vec.Normalize(x)
	out.X[i] = x
	out.Y[i] = math.Copysign(1, r.NormFloat64())
	return out
}

// Empirical check of Lemma 11: the measured risk gap between the
// private and non-private model is within L‖κ‖ for every trial.
func TestRiskDueToPrivacyLemma11(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m, d := 500, 5
	xs := make([][]float64, m)
	ys := make([]float64, m)
	for i := 0; i < m; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		vec.Normalize(x)
		xs[i] = x
		ys[i] = math.Copysign(1, x[0])
	}
	s := &sgd.SliceSamples{X: xs, Y: ys}
	f := loss.NewLogistic(0, 0)
	L := f.Params().L
	res, err := sgd.Run(s, sgd.Config{
		Loss: f, Step: sgd.Constant(0.05), Passes: 2, Rand: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := sgd.EmpiricalRisk(s, f, res.W)
	for trial := 0; trial < 50; trial++ {
		priv, err := (Budget{Epsilon: 1}).Perturb(r, res.W, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		diff := make([]float64, d)
		vec.Sub(diff, priv, res.W)
		kappa := vec.Norm(diff)
		gap := math.Abs(sgd.EmpiricalRisk(s, f, priv) - base)
		if gap > L*kappa+1e-9 {
			t.Fatalf("risk gap %v exceeds L‖κ‖ = %v (Lemma 11)", gap, L*kappa)
		}
	}
}
