package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"boltondp/internal/dp"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

func separable(r *rand.Rand, m, d int) *sgd.SliceSamples {
	s := &sgd.SliceSamples{X: make([][]float64, m), Y: make([]float64, m)}
	for i := 0; i < m; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		if math.Abs(x[0]) < 0.3 {
			x[0] = math.Copysign(0.3, x[0])
		}
		vec.Normalize(x)
		s.X[i] = x
		s.Y[i] = math.Copysign(1, x[0])
	}
	return s
}

func TestPrivateConvexPSGDBasic(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	s := separable(r, 2000, 5)
	f := loss.NewLogistic(0, 0)
	res, err := TrainCtx(context.Background(), s, f, WithConvexity(ConvexityConvex),
		WithBudget(dp.Budget{Epsilon: 1}),
		WithPasses(2),
		WithBatch(50),
		WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	// Sensitivity = 2kLη/b with η = 1/√m.
	want := 2 * 2 * 1 * (1 / math.Sqrt(2000)) / 50
	if math.Abs(res.Sensitivity-want) > 1e-12 {
		t.Errorf("Sensitivity = %v, want %v", res.Sensitivity, want)
	}
	if res.NoiseNorm <= 0 {
		t.Error("no noise was added")
	}
	if vec.Equal(res.W, res.NonPrivate, 0) {
		t.Error("private model equals non-private model")
	}
	if res.Updates != 2*2000/50 {
		t.Errorf("Updates = %d", res.Updates)
	}
	// The private model should still beat the zero model on this easy task.
	risk0 := sgd.EmpiricalRisk(s, f, make([]float64, 5))
	risk := sgd.EmpiricalRisk(s, f, res.W)
	if risk >= risk0 {
		t.Errorf("private model risk %v not better than zero model %v", risk, risk0)
	}
}

func TestPrivateConvexStepFamilies(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	s := separable(r, 500, 4)
	f := loss.NewLogistic(0, 0)
	for _, kind := range []StepKind{StepConstant, StepDecreasing, StepSqrt} {
		res, err := TrainCtx(context.Background(), s, f, WithConvexity(ConvexityConvex),
			WithBudget(dp.Budget{Epsilon: 1}),
			WithPasses(3),
			WithStep(kind),
			WithRand(r))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Sensitivity <= 0 {
			t.Errorf("%v: sensitivity %v", kind, res.Sensitivity)
		}
	}
	// Unknown kind rejected.
	if _, err := TrainCtx(context.Background(), s, f, WithConvexity(ConvexityConvex),
		WithBudget(dp.Budget{Epsilon: 1}), WithStep(StepKind(99)), WithRand(r)); err == nil {
		t.Error("unknown StepKind accepted")
	}
}

func TestPrivateConvexEtaClamped(t *testing.T) {
	// Huber with h = 0.01 has β = 50, so 2/β = 0.04 < 1/√m for small m.
	r := rand.New(rand.NewSource(3))
	s := separable(r, 100, 3)
	f := loss.NewHuber(0.01, 0, 0)
	res, err := TrainCtx(context.Background(), s, f, WithConvexity(ConvexityConvex),
		WithBudget(dp.Budget{Epsilon: 1}), WithPasses(1), WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	// Sensitivity must reflect the clamped step 2/β, not 1/√m = 0.1.
	want := 2 * 1 * 1 * (2.0 / 50.0) / 1
	if math.Abs(res.Sensitivity-want) > 1e-12 {
		t.Errorf("Sensitivity = %v, want clamped %v", res.Sensitivity, want)
	}
}

func TestPrivateStronglyConvexPSGDBasic(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := separable(r, 3000, 5)
	lambda := 1e-3
	f := loss.NewLogistic(lambda, 0)
	p := f.Params()
	res, err := TrainCtx(context.Background(), s, f, WithConvexity(ConvexityStronglyConvex),
		WithBudget(dp.Budget{Epsilon: 1}),
		WithPasses(5),
		WithBatch(50),
		WithRadius(1/lambda),
		WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	// Default: the sound b-independent bound 2L/(γm) (see the
	// reproduction finding on dp.SensitivityStronglyConvex).
	want := 2 * p.L / (p.Gamma * 3000)
	if math.Abs(res.Sensitivity-want) > 1e-15 {
		t.Errorf("Sensitivity = %v, want %v", res.Sensitivity, want)
	}
	if res.Passes != 5 {
		t.Errorf("Passes = %d", res.Passes)
	}
	// Opt-in paper calibration divides by b.
	pres, err := TrainCtx(context.Background(), s, f, WithConvexity(ConvexityStronglyConvex),
		WithBudget(dp.Budget{Epsilon: 1}),
		WithPasses(5), WithBatch(50), WithRadius(1/lambda), WithRand(r),
		WithPaperBatchSensitivity())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pres.Sensitivity-want/50) > 1e-15 {
		t.Errorf("paper calibration sensitivity = %v, want %v", pres.Sensitivity, want/50)
	}
}

func TestStronglyConvexSensitivityIndependentOfK(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	s := separable(r, 500, 3)
	f := loss.NewLogistic(1e-2, 0)
	var sens []float64
	for _, k := range []int{1, 5, 20} {
		res, err := TrainCtx(context.Background(), s, f, WithConvexity(ConvexityStronglyConvex),
			WithBudget(dp.Budget{Epsilon: 1}), WithPasses(k), WithRand(r))
		if err != nil {
			t.Fatal(err)
		}
		sens = append(sens, res.Sensitivity)
	}
	if sens[0] != sens[1] || sens[1] != sens[2] {
		t.Errorf("strongly convex sensitivity varies with k: %v", sens)
	}
}

func TestConvexSensitivityGrowsWithK(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := separable(r, 500, 3)
	f := loss.NewLogistic(0, 0)
	get := func(k int) float64 {
		res, err := TrainCtx(context.Background(), s, f, WithConvexity(ConvexityConvex),
			WithBudget(dp.Budget{Epsilon: 1}), WithPasses(k), WithRand(r))
		if err != nil {
			t.Fatal(err)
		}
		return res.Sensitivity
	}
	if !(get(1) < get(10) && get(10) < get(20)) {
		t.Error("convex sensitivity should grow with passes")
	}
}

func TestStronglyConvexRequiresStrongConvexity(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	s := separable(r, 50, 2)
	_, err := TrainCtx(context.Background(), s, loss.NewLogistic(0, 0), WithConvexity(ConvexityStronglyConvex),
		WithBudget(dp.Budget{Epsilon: 1}), WithRand(r))
	if err == nil {
		t.Error("γ=0 loss accepted by the strongly convex algorithm")
	}
}

func TestTrainDispatch(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	s := separable(r, 200, 3)
	// Strongly convex path.
	res, err := TrainCtx(context.Background(), s, loss.NewLogistic(1e-2, 0),
		WithBudget(dp.Budget{Epsilon: 1}), WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	// Alg 2's sensitivity (2L/γm), not Alg 1's.
	p := loss.NewLogistic(1e-2, 0).Params()
	want := 2 * p.L / (p.Gamma * 200)
	if math.Abs(res.Sensitivity-want) > 1e-12 {
		t.Errorf("Train chose the wrong algorithm: sens %v want %v", res.Sensitivity, want)
	}
	// Convex path.
	res, err = TrainCtx(context.Background(), s, loss.NewLogistic(0, 0),
		WithBudget(dp.Budget{Epsilon: 1}), WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	want = 2 * 1 / math.Sqrt(200)
	if math.Abs(res.Sensitivity-want) > 1e-12 {
		t.Errorf("convex dispatch sens %v want %v", res.Sensitivity, want)
	}
}

func TestGaussianBudgetUsed(t *testing.T) {
	// With δ>0 and a large d the Gaussian mechanism adds much less
	// noise than pure ε-DP at the same sensitivity — check the orders.
	r := rand.New(rand.NewSource(11))
	s := separable(r, 2000, 50)
	f := loss.NewLogistic(0, 0)
	avg := func(b dp.Budget) float64 {
		var sum float64
		for i := 0; i < 20; i++ {
			res, err := TrainCtx(context.Background(), s, f, WithConvexity(ConvexityConvex), WithBudget(b), WithPasses(1), WithBatch(50), WithRand(r))
			if err != nil {
				t.Fatal(err)
			}
			sum += res.NoiseNorm
		}
		return sum / 20
	}
	pure := avg(dp.Budget{Epsilon: 0.1})
	gauss := avg(dp.Budget{Epsilon: 0.1, Delta: 1e-6})
	if gauss >= pure {
		t.Errorf("Gaussian noise (%v) should be below pure ε-DP noise (%v) at d=50", gauss, pure)
	}
}

func TestOptionsValidation(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	s := separable(r, 50, 2)
	f := loss.NewLogistic(0, 0)
	cases := []struct {
		name string
		opts []Option
	}{
		{"bad budget", []Option{WithRand(r)}},
		{"nil rand", []Option{WithBudget(dp.Budget{Epsilon: 1})}},
		{"negative passes", []Option{WithBudget(dp.Budget{Epsilon: 1}), WithPasses(-1), WithRand(r)}},
	}
	for _, c := range cases {
		if _, err := TrainCtx(context.Background(), s, f, append(c.opts, WithConvexity(ConvexityConvex))...); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Empty training set.
	if _, err := TrainCtx(context.Background(), &sgd.SliceSamples{}, f, WithConvexity(ConvexityConvex),
		WithBudget(dp.Budget{Epsilon: 1}), WithRand(r)); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := TrainCtx(context.Background(), &sgd.SliceSamples{}, loss.NewLogistic(1e-2, 0), WithConvexity(ConvexityStronglyConvex),
		WithBudget(dp.Budget{Epsilon: 1}), WithRand(r)); err == nil {
		t.Error("empty set accepted (strongly convex)")
	}
}

func TestNoiseShrinksWithEpsilon(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	s := separable(r, 1000, 10)
	f := loss.NewLogistic(1e-3, 0)
	avg := func(eps float64) float64 {
		var sum float64
		for i := 0; i < 30; i++ {
			res, err := TrainCtx(context.Background(), s, f, WithConvexity(ConvexityStronglyConvex),
				WithBudget(dp.Budget{Epsilon: eps}), WithRand(r))
			if err != nil {
				t.Fatal(err)
			}
			sum += res.NoiseNorm
		}
		return sum / 30
	}
	if lo, hi := avg(4), avg(0.1); lo >= hi {
		t.Errorf("noise at ε=4 (%v) should be below noise at ε=0.1 (%v)", lo, hi)
	}
}

func TestAveragingOption(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	s := separable(r, 300, 3)
	f := loss.NewLogistic(0, 0)
	res, err := TrainCtx(context.Background(), s, f, WithConvexity(ConvexityConvex),
		WithBudget(dp.Budget{Epsilon: 1}), WithAverage(), WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	if res.NonPrivate == nil {
		t.Fatal("missing NonPrivate model")
	}
	// Averaged model norm should be finite and sane.
	if n := vec.Norm(res.NonPrivate); math.IsNaN(n) || n > 100 {
		t.Errorf("averaged model norm = %v", n)
	}
}

func TestStepKindString(t *testing.T) {
	if StepConstant.String() != "constant" || StepDecreasing.String() != "decreasing" ||
		StepSqrt.String() != "sqrt" || StepKind(9).String() == "" {
		t.Error("StepKind.String broken")
	}
}
