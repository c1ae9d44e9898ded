package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{}, []float64{}, 0},
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{[]float64{1, -1}, []float64{1, 1}, 0},
		{[]float64{0.5}, []float64{0.5}, 0.25},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dot(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot did not panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorms(t *testing.T) {
	a := []float64{3, -4}
	if got := Norm(a); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := Norm(nil); got != 0 {
		t.Errorf("Norm(nil) = %v, want 0", got)
	}
}

func TestDist(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{4, 6}
	if got := Dist(a, b); math.Abs(got-5) > 1e-12 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := Dist(a, a); got != 0 {
		t.Errorf("Dist(a,a) = %v, want 0", got)
	}
}

func TestAxpy(t *testing.T) {
	dst := []float64{1, 2, 3}
	Axpy(dst, 2, []float64{10, 20, 30})
	want := []float64{21, 42, 63}
	if !Equal(dst, want, 1e-12) {
		t.Errorf("Axpy = %v, want %v", dst, want)
	}
}

func TestScaleAddSub(t *testing.T) {
	a := []float64{1, 2}
	Scale(a, 3)
	if !Equal(a, []float64{3, 6}, 0) {
		t.Errorf("Scale = %v", a)
	}
	dst := make([]float64, 2)
	Add(dst, []float64{1, 2}, []float64{3, 4})
	if !Equal(dst, []float64{4, 6}, 0) {
		t.Errorf("Add = %v", dst)
	}
	Sub(dst, []float64{1, 2}, []float64{3, 4})
	if !Equal(dst, []float64{-2, -2}, 0) {
		t.Errorf("Sub = %v", dst)
	}
	// Aliasing: dst == a must work.
	x := []float64{1, 1}
	Add(x, x, x)
	if !Equal(x, []float64{2, 2}, 0) {
		t.Errorf("aliased Add = %v", x)
	}
}

func TestCopyIndependent(t *testing.T) {
	a := []float64{1, 2}
	b := Copy(a)
	b[0] = 99
	if a[0] != 1 {
		t.Error("Copy is not independent of the source")
	}
}

func TestZeroFill(t *testing.T) {
	a := []float64{1, 2}
	Zero(a)
	if !Equal(a, []float64{0, 0}, 0) {
		t.Errorf("Zero = %v", a)
	}
}

func TestProjectBall(t *testing.T) {
	w := []float64{3, 4} // norm 5
	ProjectBall(w, 1)
	if math.Abs(Norm(w)-1) > 1e-12 {
		t.Errorf("projected norm = %v, want 1", Norm(w))
	}
	// Direction preserved.
	if math.Abs(w[1]/w[0]-4.0/3.0) > 1e-9 {
		t.Errorf("projection changed direction: %v", w)
	}
	// Inside the ball: untouched.
	w2 := []float64{0.1, 0.1}
	orig := Copy(w2)
	ProjectBall(w2, 1)
	if !Equal(w2, orig, 0) {
		t.Errorf("projection moved interior point: %v", w2)
	}
	// r <= 0 means unconstrained.
	w3 := []float64{100, 100}
	ProjectBall(w3, 0)
	if !Equal(w3, []float64{100, 100}, 0) {
		t.Errorf("r=0 projection should be a no-op: %v", w3)
	}
}

// Projection onto a convex set never increases distances — the property
// the paper's constrained-optimization extension relies on (§3.2.3).
func TestProjectBallNonExpansiveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		d := 1 + rr.Intn(8)
		u := make([]float64, d)
		v := make([]float64, d)
		for i := 0; i < d; i++ {
			u[i] = rr.NormFloat64() * 10
			v[i] = rr.NormFloat64() * 10
		}
		before := Dist(u, v)
		radius := rr.Float64()*5 + 0.01
		ProjectBall(u, radius)
		ProjectBall(v, radius)
		return Dist(u, v) <= before+1e-9
	}
	cfg := &quick.Config{MaxCount: 500, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	a := []float64{3, 4}
	Normalize(a)
	if math.Abs(Norm(a)-1) > 1e-12 {
		t.Errorf("Normalize norm = %v", Norm(a))
	}
	z := []float64{0, 0}
	Normalize(z)
	if !Equal(z, []float64{0, 0}, 0) {
		t.Errorf("Normalize(0) = %v", z)
	}
}

func TestMean(t *testing.T) {
	dst := make([]float64, 2)
	Mean(dst, []float64{1, 2}, []float64{3, 4}, []float64{5, 6})
	if !Equal(dst, []float64{3, 4}, 1e-12) {
		t.Errorf("Mean = %v", dst)
	}
}

func TestMatrix(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(0, 2, 3)
	m.Set(1, 0, 4)
	m.Set(1, 1, 5)
	m.Set(1, 2, 6)
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v", m.At(1, 2))
	}
	if !Equal(m.Row(1), []float64{4, 5, 6}, 0) {
		t.Errorf("Row(1) = %v", m.Row(1))
	}
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1, 1})
	if !Equal(dst, []float64{6, 15}, 1e-12) {
		t.Errorf("MulVec = %v", dst)
	}
}

func TestMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(0,1) did not panic")
		}
	}()
	NewMatrix(0, 1)
}

// Cauchy-Schwarz as a property: |<a,b>| <= ||a||*||b||.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		d := 1 + rr.Intn(10)
		a := make([]float64, d)
		b := make([]float64, d)
		for i := range a {
			a[i] = rr.NormFloat64()
			b[i] = rr.NormFloat64()
		}
		return math.Abs(Dot(a, b)) <= Norm(a)*Norm(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Triangle inequality for Dist.
func TestTriangleInequalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		d := 1 + rr.Intn(6)
		a := make([]float64, d)
		b := make([]float64, d)
		c := make([]float64, d)
		for i := 0; i < d; i++ {
			a[i], b[i], c[i] = rr.NormFloat64(), rr.NormFloat64(), rr.NormFloat64()
		}
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
