package loss

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"boltondp/internal/vec"
)

// numericalGrad approximates ∇ℓ by central differences.
func numericalGrad(f Function, w, x []float64, y float64) []float64 {
	const h = 1e-6
	g := make([]float64, len(w))
	wp := vec.Copy(w)
	for i := range w {
		wp[i] = w[i] + h
		fp := Eval(f, wp, x, y)
		wp[i] = w[i] - h
		fm := Eval(f, wp, x, y)
		wp[i] = w[i]
		g[i] = (fp - fm) / (2 * h)
	}
	return g
}

func randomPoint(r *rand.Rand, d int, scale float64) ([]float64, []float64, float64) {
	w := make([]float64, d)
	x := make([]float64, d)
	for i := 0; i < d; i++ {
		w[i] = r.NormFloat64() * scale
		x[i] = r.NormFloat64()
	}
	vec.Normalize(x)
	y := 1.0
	if r.Float64() < 0.5 {
		y = -1
	}
	return w, x, y
}

func testGradMatchesNumeric(t *testing.T, f Function) {
	t.Helper()
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		w, x, y := randomPoint(r, 4, 0.8)
		got := make([]float64, 4)
		Grad(f, got, w, x, y)
		want := numericalGrad(f, w, x, y)
		if !vec.Equal(got, want, 1e-4) {
			t.Fatalf("%s: analytic grad %v != numeric %v at w=%v x=%v y=%v",
				f.Name(), got, want, w, x, y)
		}
	}
}

func TestLogisticGradient(t *testing.T) {
	testGradMatchesNumeric(t, NewLogistic(0, 0))
	testGradMatchesNumeric(t, NewLogistic(1e-2, 0))
}

func TestHuberGradient(t *testing.T) {
	testGradMatchesNumeric(t, NewHuber(0.1, 0, 0))
	testGradMatchesNumeric(t, NewHuber(0.5, 1e-3, 0))
}

func TestLeastSquaresGradient(t *testing.T) {
	testGradMatchesNumeric(t, NewLeastSquares(0, 1))
	testGradMatchesNumeric(t, NewLeastSquares(1e-2, 0))
}

func TestLogisticParams(t *testing.T) {
	// λ=0: L=β=1, γ=0 (paper §2).
	p := NewLogistic(0, 0).Params()
	if p.L != 1 || p.Beta != 1 || p.Gamma != 0 {
		t.Errorf("unregularized logistic params = %+v", p)
	}
	if p.StronglyConvex() {
		t.Error("unregularized logistic should not be strongly convex")
	}
	// λ>0 with default R=1/λ: L = 1+λR = 2, β = 1+λ, γ = λ.
	lam := 0.01
	p = NewLogistic(lam, 0).Params()
	if math.Abs(p.L-2) > 1e-12 {
		t.Errorf("L = %v, want 2 (R defaults to 1/λ)", p.L)
	}
	if math.Abs(p.Beta-(1+lam)) > 1e-12 || p.Gamma != lam {
		t.Errorf("params = %+v", p)
	}
	if !p.StronglyConvex() {
		t.Error("regularized logistic should be strongly convex")
	}
}

func TestHuberParams(t *testing.T) {
	h := 0.1
	p := NewHuber(h, 0, 0).Params()
	if p.L != 1 || math.Abs(p.Beta-1/(2*h)) > 1e-12 || p.Gamma != 0 {
		t.Errorf("huber params = %+v", p)
	}
}

// Convexity along random segments: f(mid) ≤ (f(a)+f(b))/2 for each loss.
func TestConvexityProperty(t *testing.T) {
	losses := []Function{
		NewLogistic(0, 0),
		NewLogistic(1e-2, 0),
		NewHuber(0.1, 0, 0),
		NewHuber(0.1, 1e-3, 0),
		NewLeastSquares(1e-3, 0),
	}
	for _, f := range losses {
		f := f
		prop := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			d := 1 + r.Intn(6)
			a := make([]float64, d)
			b := make([]float64, d)
			x := make([]float64, d)
			for i := 0; i < d; i++ {
				a[i], b[i], x[i] = r.NormFloat64(), r.NormFloat64(), r.NormFloat64()
			}
			vec.Normalize(x)
			y := 1.0
			if r.Float64() < 0.5 {
				y = -1
			}
			mid := make([]float64, d)
			for i := range mid {
				mid[i] = 0.5 * (a[i] + b[i])
			}
			return Eval(f, mid, x, y) <= 0.5*(Eval(f, a, x, y)+Eval(f, b, x, y))+1e-9
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: convexity violated: %v", f.Name(), err)
		}
	}
}

// Lipschitz property of the unregularized losses: ‖∇ℓ‖ ≤ L when ‖x‖≤1.
func TestGradientNormBoundedByL(t *testing.T) {
	losses := []Function{
		NewLogistic(0, 0),
		NewHuber(0.1, 0, 0),
	}
	r := rand.New(rand.NewSource(33))
	for _, f := range losses {
		L := f.Params().L
		g := make([]float64, 5)
		for trial := 0; trial < 500; trial++ {
			w, x, y := randomPoint(r, 5, 3)
			Grad(f, g, w, x, y)
			if n := vec.Norm(g); n > L+1e-9 {
				t.Fatalf("%s: ‖∇ℓ‖ = %v exceeds L = %v", f.Name(), n, L)
			}
		}
	}
}

// Smoothness: ‖∇ℓ(u)−∇ℓ(v)‖ ≤ β‖u−v‖.
func TestSmoothnessProperty(t *testing.T) {
	losses := []Function{
		NewLogistic(0, 0),
		NewLogistic(1e-2, 0),
		NewHuber(0.1, 0, 0),
		NewLeastSquares(0, 1),
	}
	for _, f := range losses {
		f := f
		beta := f.Params().Beta
		prop := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			d := 1 + r.Intn(6)
			u := make([]float64, d)
			v := make([]float64, d)
			x := make([]float64, d)
			for i := 0; i < d; i++ {
				u[i], v[i], x[i] = r.NormFloat64(), r.NormFloat64(), r.NormFloat64()
			}
			vec.Normalize(x)
			y := 1.0
			if r.Float64() < 0.5 {
				y = -1
			}
			gu := make([]float64, d)
			gv := make([]float64, d)
			Grad(f, gu, u, x, y)
			Grad(f, gv, v, x, y)
			return vec.Dist(gu, gv) <= beta*vec.Dist(u, v)+1e-9
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: smoothness violated: %v", f.Name(), err)
		}
	}
}

// Strong convexity of the regularized logistic loss:
// f(u) ≥ f(v) + <∇f(v), u−v> + (γ/2)‖u−v‖².
func TestStrongConvexityProperty(t *testing.T) {
	lam := 0.05
	f := NewLogistic(lam, 0)
	gamma := f.Params().Gamma
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
		y := -1.0
		g := make([]float64, d)
		Grad(f, g, v, x, y)
		diff := make([]float64, d)
		vec.Sub(diff, u, v)
		lhs := Eval(f, u, x, y)
		rhs := Eval(f, v, x, y) + vec.Dot(g, diff) + 0.5*gamma*vec.Dot(diff, diff)
		return lhs >= rhs-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLogisticEvalStability(t *testing.T) {
	// Very large margins must not produce Inf/NaN.
	f := NewLogistic(0, 0)
	w := []float64{1000}
	x := []float64{1}
	for _, y := range []float64{1, -1} {
		v := Eval(f, w, x, y)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("Eval(y=%v) = %v", y, v)
		}
		g := make([]float64, 1)
		Grad(f, g, w, x, y)
		if math.IsNaN(g[0]) || math.IsInf(g[0], 0) {
			t.Errorf("Grad(y=%v) = %v", y, g[0])
		}
	}
}

func TestHuberPieces(t *testing.T) {
	f := NewHuber(0.1, 0, 0)
	x := []float64{1}
	// z > 1+h: zero loss, zero gradient.
	if v := Eval(f, []float64{2}, x, 1); v != 0 {
		t.Errorf("flat piece loss = %v", v)
	}
	g := make([]float64, 1)
	Grad(f, g, []float64{2}, x, 1)
	if g[0] != 0 {
		t.Errorf("flat piece grad = %v", g[0])
	}
	// z < 1-h: linear piece, loss = 1-z, grad = -y·x.
	if v := Eval(f, []float64{0.5}, x, 1); math.Abs(v-0.5) > 1e-12 {
		t.Errorf("linear piece loss = %v, want 0.5", v)
	}
	Grad(f, g, []float64{0.5}, x, 1)
	if math.Abs(g[0]+1) > 1e-12 {
		t.Errorf("linear piece grad = %v, want -1", g[0])
	}
	// Quadratic piece continuity at the boundaries.
	h := 0.1
	eps := 1e-9
	atLo := Eval(f, []float64{1 - h + eps}, x, 1)
	atLoLin := Eval(f, []float64{1 - h - eps}, x, 1)
	if math.Abs(atLo-atLoLin) > 1e-6 {
		t.Errorf("discontinuity at z=1-h: %v vs %v", atLo, atLoLin)
	}
	atHi := Eval(f, []float64{1 + h - eps}, x, 1)
	if math.Abs(atHi) > 1e-6 {
		t.Errorf("loss at z=1+h should approach 0, got %v", atHi)
	}
}

func TestConstructorsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"logistic negative lambda": func() { NewLogistic(-1, 0) },
		"huber zero h":             func() { NewHuber(0, 0, 0) },
		"huber negative lambda":    func() { NewHuber(0.1, -1, 0) },
		"ls negative lambda":       func() { NewLeastSquares(-1, 0) },
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

func TestLossNames(t *testing.T) {
	cases := map[string]Function{
		"logistic":            NewLogistic(0, 0),
		"logistic(λ=0.01)":    NewLogistic(0.01, 0),
		"huber(h=0.1)":        NewHuber(0.1, 0, 0),
		"huber(h=0.1,λ=0.01)": NewHuber(0.1, 0.01, 0),
		"leastsquares(λ=0)":   NewLeastSquares(0, 1),
	}
	for want, f := range cases {
		if got := f.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestLeastSquaresParams(t *testing.T) {
	// Unregularized, R defaults to 1: L = R+1 = 2, β = 1, γ = 0.
	p := NewLeastSquares(0, 0).Params()
	if p.L != 2 || p.Beta != 1 || p.Gamma != 0 {
		t.Errorf("unregularized params %+v", p)
	}
	// λ>0 with default R = 1/λ: L = R+1+λR = 1/λ+2, β = 1+λ, γ = λ.
	lam := 0.1
	p = NewLeastSquares(lam, 0).Params()
	if math.Abs(p.L-(1/lam+2)) > 1e-12 || math.Abs(p.Beta-1.1) > 1e-12 || p.Gamma != lam {
		t.Errorf("regularized params %+v", p)
	}
}

func TestHuberGradBigH(t *testing.T) {
	// h > 1: z=0 sits inside the quadratic piece |1-z| <= h.
	f := NewHuber(1.5, 0, 0)
	g := make([]float64, 1)
	Grad(f, g, []float64{0}, []float64{1}, 1)
	// dz = -(1+h-z)/(2h) = -2.5/3.
	if math.Abs(g[0]+2.5/3) > 1e-12 {
		t.Errorf("quadratic-piece grad %v", g[0])
	}
}

func TestGradLengthMismatchPanics(t *testing.T) {
	fs := []Function{NewLogistic(0, 0), NewHuber(0.1, 0, 0), NewLeastSquares(0, 1)}
	for _, f := range fs {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Grad length mismatch did not panic", f.Name())
				}
			}()
			Grad(f, make([]float64, 2), make([]float64, 3), make([]float64, 3), 1)
		}()
	}
}

// Deriv must be the analytic derivative of EvalDot in p.
func TestDerivMatchesEvalDotNumerically(t *testing.T) {
	losses := []Function{
		NewLogistic(0, 0), NewHuber(0.1, 0, 0), NewLeastSquares(0, 0),
	}
	r := rand.New(rand.NewSource(9))
	const h = 1e-6
	for trial := 0; trial < 200; trial++ {
		p := r.NormFloat64() * 2
		y := 1.0
		if r.Float64() < 0.5 {
			y = -1
		}
		for _, f := range losses {
			num := (f.EvalDot(p+h, y) - f.EvalDot(p-h, y)) / (2 * h)
			if math.Abs(num-f.Deriv(p, y)) > 1e-5 {
				t.Fatalf("%s: Deriv(%v,%v) = %v, numeric %v", f.Name(), p, y, f.Deriv(p, y), num)
			}
		}
	}
}
