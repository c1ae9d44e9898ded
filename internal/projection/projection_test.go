package projection

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"boltondp/internal/vec"
)

func TestNewShapes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := New(r, 784, 50)
	if p.T.Cols != 784 || p.OutDim() != 50 {
		t.Fatalf("dims %d -> %d", p.T.Cols, p.OutDim())
	}
}

func TestNewPanics(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, c := range [][2]int{{0, 1}, {5, 0}, {5, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c[0], c[1])
				}
			}()
			New(r, c[0], c[1])
		}()
	}
}

func TestApplyOutputInUnitBall(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p := New(r, 100, 20)
	for trial := 0; trial < 200; trial++ {
		x := make([]float64, 100)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		vec.Normalize(x)
		out := p.Apply(x)
		if len(out) != 20 {
			t.Fatalf("output dim %d", len(out))
		}
		if n := vec.Norm(out); n > 1+1e-12 {
			t.Fatalf("projected norm %v > 1", n)
		}
	}
}

// Johnson–Lindenstrauss sanity: for unit x, E‖Tx‖² = ‖x‖², so the mean
// squared projected norm over many fresh projections should be close
// to 1.
func TestNormPreservationOnAverage(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	x := make([]float64, 200)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	vec.Normalize(x)
	var sum float64
	const trials = 400
	out := make([]float64, 50)
	for i := 0; i < trials; i++ {
		p := New(r, 200, 50)
		p.T.MulVec(out, x) // raw projection, no clamp
		n := vec.Norm(out)
		sum += n * n
	}
	mean := sum / trials
	if math.Abs(mean-1) > 0.07 {
		t.Errorf("mean squared projected norm %v, want ~1", mean)
	}
}

// Distances between points are approximately preserved (the property
// that keeps classification accuracy close after projecting, §4.3).
func TestDistancePreservation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p := New(r, 784, 50)
	var ratios []float64
	for trial := 0; trial < 100; trial++ {
		a := make([]float64, 784)
		b := make([]float64, 784)
		for i := range a {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		vec.Normalize(a)
		vec.Normalize(b)
		pa := make([]float64, 50)
		pb := make([]float64, 50)
		p.T.MulVec(pa, a)
		p.T.MulVec(pb, b)
		ratios = append(ratios, vec.Dist(pa, pb)/vec.Dist(a, b))
	}
	var mean float64
	for _, x := range ratios {
		mean += x
	}
	mean /= float64(len(ratios))
	if math.Abs(mean-1) > 0.15 {
		t.Errorf("mean distance ratio %v, want ~1", mean)
	}
}

func TestApplyAll(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	p := New(r, 10, 4)
	xs := make([][]float64, 7)
	for i := range xs {
		xs[i] = make([]float64, 10)
		xs[i][i] = 1
	}
	out := p.ApplyAll(xs)
	if len(out) != 7 {
		t.Fatalf("ApplyAll returned %d rows", len(out))
	}
	for _, o := range out {
		if len(o) != 4 {
			t.Fatalf("projected row dim %d", len(o))
		}
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	a := New(rand.New(rand.NewSource(7)), 20, 5)
	b := New(rand.New(rand.NewSource(7)), 20, 5)
	if !vec.Equal(a.T.Data, b.T.Data, 0) {
		t.Error("projection not deterministic under seed")
	}
}

// Linearity of the raw projection: T(αx + y) = αTx + Ty.
func TestLinearityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	p := New(r, 12, 5)
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		x := make([]float64, 12)
		y := make([]float64, 12)
		for i := range x {
			x[i] = rr.NormFloat64()
			y[i] = rr.NormFloat64()
		}
		alpha := rr.NormFloat64()
		comb := make([]float64, 12)
		for i := range comb {
			comb[i] = alpha*x[i] + y[i]
		}
		out1 := make([]float64, 5)
		p.T.MulVec(out1, comb)
		px := make([]float64, 5)
		py := make([]float64, 5)
		p.T.MulVec(px, x)
		p.T.MulVec(py, y)
		out2 := make([]float64, 5)
		for i := range out2 {
			out2[i] = alpha*px[i] + py[i]
		}
		return vec.Equal(out1, out2, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
