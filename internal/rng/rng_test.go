package rng

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"boltondp/internal/vec"
)

func TestGammaMoments(t *testing.T) {
	// Sample mean and variance of Gamma(shape, scale) should approach
	// shape*scale and shape*scale^2.
	cases := []struct{ shape, scale float64 }{
		{0.5, 1.0},
		{1.0, 2.0},
		{3.0, 0.5},
		{50.0, 0.1},
	}
	r := rand.New(rand.NewSource(42))
	const n = 200000
	for _, c := range cases {
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			x := Gamma(r, c.shape, c.scale)
			if x <= 0 {
				t.Fatalf("Gamma(%v,%v) produced non-positive sample %v", c.shape, c.scale, x)
			}
			sum += x
			sum2 += x * x
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		wantMean := c.shape * c.scale
		wantVar := c.shape * c.scale * c.scale
		if math.Abs(mean-wantMean) > 0.05*wantMean+0.01 {
			t.Errorf("Gamma(%v,%v) mean = %v, want ~%v", c.shape, c.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.10*wantVar+0.01 {
			t.Errorf("Gamma(%v,%v) var = %v, want ~%v", c.shape, c.scale, variance, wantVar)
		}
	}
}

func TestGammaPanics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, bad := range [][2]float64{{0, 1}, {-1, 1}, {1, 0}, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gamma(%v,%v) did not panic", bad[0], bad[1])
				}
			}()
			Gamma(r, bad[0], bad[1])
		}()
	}
}

func TestUnitSphereNorm(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, d := range []int{1, 2, 5, 50, 784} {
		v := make([]float64, d)
		unitSphere(r, v)
		if math.Abs(vec.Norm(v)-1) > 1e-9 {
			t.Errorf("d=%d: ‖v‖ = %v, want 1", d, vec.Norm(v))
		}
	}
}

func TestUnitSphereIsotropy(t *testing.T) {
	// Each coordinate of a uniform sphere point has mean 0; the mean of
	// many draws should be near the origin.
	r := rand.New(rand.NewSource(11))
	const d, n = 5, 50000
	mean := make([]float64, d)
	v := make([]float64, d)
	for i := 0; i < n; i++ {
		unitSphere(r, v)
		vec.Axpy(mean, 1.0/n, v)
	}
	if vec.Norm(mean) > 0.02 {
		t.Errorf("mean of sphere draws = %v (norm %v), want ~0", mean, vec.Norm(mean))
	}
}

func TestGammaSphereMagnitudeDistribution(t *testing.T) {
	// ‖κ‖ ~ Gamma(d, Δ/ε): check the sample mean ≈ d·Δ/ε.
	r := rand.New(rand.NewSource(3))
	const d = 10
	sens, eps := 0.5, 2.0
	want := float64(d) * sens / eps
	var sum float64
	const n = 50000
	k := make([]float64, d)
	for i := 0; i < n; i++ {
		GammaSphere(r, k, sens, eps)
		sum += vec.Norm(k)
	}
	mean := sum / n
	if math.Abs(mean-want) > 0.05*want {
		t.Errorf("mean ‖κ‖ = %v, want ~%v", mean, want)
	}
}

func TestGammaSphereZeroSensitivity(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	k := []float64{1, 2, 3}
	GammaSphere(r, k, 0, 1)
	if vec.Norm(k) != 0 {
		t.Errorf("zero-sensitivity noise = %v, want zero vector", k)
	}
}

func TestGammaNoiseTailHolds(t *testing.T) {
	// Theorem 2: P(‖κ‖ > d·ln(d/γ)·Δ/ε) ≤ γ. With γ=0.05 and 2000
	// trials we allow generous slack on the empirical violation rate.
	r := rand.New(rand.NewSource(9))
	const d = 8
	sens, eps, gamma := 1.0, 1.0, 0.05
	bound := d * math.Log(d/gamma) * sens / eps
	k := make([]float64, d)
	viol := 0
	const n = 2000
	for i := 0; i < n; i++ {
		GammaSphere(r, k, sens, eps)
		if vec.Norm(k) > bound {
			viol++
		}
	}
	if rate := float64(viol) / n; rate > 2*gamma {
		t.Errorf("tail violation rate %v exceeds 2γ = %v", rate, 2*gamma)
	}
}

func TestGaussianVecMoments(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const d = 4
	sigma := 2.5
	var sum, sum2 float64
	const n = 100000
	v := make([]float64, d)
	for i := 0; i < n; i++ {
		GaussianVec(r, v, sigma)
		for _, x := range v {
			sum += x
			sum2 += x * x
		}
	}
	total := float64(n * d)
	mean := sum / total
	variance := sum2/total - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("Gaussian mean = %v, want ~0", mean)
	}
	if math.Abs(variance-sigma*sigma) > 0.05*sigma*sigma {
		t.Errorf("Gaussian var = %v, want ~%v", variance, sigma*sigma)
	}
}

func TestPermIsPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(200)
		p := Perm(rr, n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, i := range p {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGaussianSigma(t *testing.T) {
	// Known value: Δ=1, ε=1, δ=1e-5 → σ = sqrt(2 ln(1.25e5)).
	got := GaussianSigma(1, 1, 1e-5)
	want := math.Sqrt(2 * math.Log(1.25e5))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("GaussianSigma = %v, want %v", got, want)
	}
	// Scales linearly with sensitivity, inversely with epsilon.
	if got2 := GaussianSigma(2, 1, 1e-5); math.Abs(got2-2*want) > 1e-9 {
		t.Errorf("sigma should double with sensitivity: %v vs %v", got2, want)
	}
	if got3 := GaussianSigma(1, 2, 1e-5); math.Abs(got3-want/2) > 1e-9 {
		t.Errorf("sigma should halve with epsilon: %v vs %v", got3, want)
	}
}

func TestGaussianSigmaPanics(t *testing.T) {
	for _, bad := range [][3]float64{{1, 0, 0.1}, {1, 1, 0}, {1, 1, 1}, {-1, 1, 0.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GaussianSigma(%v) did not panic", bad)
				}
			}()
			GaussianSigma(bad[0], bad[1], bad[2])
		}()
	}
}

func TestDeterminismUnderSeed(t *testing.T) {
	a := rand.New(rand.NewSource(99))
	b := rand.New(rand.NewSource(99))
	va := make([]float64, 6)
	vb := make([]float64, 6)
	GammaSphere(a, va, 1, 1)
	GammaSphere(b, vb, 1, 1)
	if !vec.Equal(va, vb, 0) {
		t.Error("GammaSphere is not deterministic under a fixed seed")
	}
}

func TestGaussianVecPanics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	defer func() {
		if recover() == nil {
			t.Error("GaussianVec(σ<0) did not panic")
		}
	}()
	GaussianVec(r, make([]float64, 2), -1)
}

func TestGammaSpherePanics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	defer func() {
		if recover() == nil {
			t.Error("GammaSphere(ε=0) did not panic")
		}
	}()
	GammaSphere(r, make([]float64, 2), 1, 0)
}

func TestGammaSphereEmptyDst(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	GammaSphere(r, nil, 1, 1) // must not panic
}
