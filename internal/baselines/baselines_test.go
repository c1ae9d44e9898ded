package baselines

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"boltondp/internal/data"
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

func accuracy(s sgd.Samples, w []float64) float64 {
	correct := 0
	for i := 0; i < s.Len(); i++ {
		x, y := s.At(i)
		if math.Copysign(1, vec.Dot(w, x)) == y {
			correct++
		}
	}
	return float64(correct) / float64(s.Len())
}

func TestNoiselessConvex(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	s := separable(r, 1000, 5)
	res, err := Noiseless(s, loss.NewLogistic(0, 0), Options{Passes: 5, Batch: 10, Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(s, res.W); acc < 0.95 {
		t.Errorf("noiseless accuracy %v on separable data", acc)
	}
	if res.NoiseDraws != 0 {
		t.Errorf("noiseless drew noise %d times", res.NoiseDraws)
	}
	if res.Updates != 5*100 {
		t.Errorf("Updates = %d", res.Updates)
	}
}

func TestNoiselessStronglyConvexUsesInvT(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	s := separable(r, 1000, 5)
	res, err := Noiseless(s, loss.NewLogistic(1e-3, 0), Options{Passes: 5, Batch: 10, Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(s, res.W); acc < 0.9 {
		t.Errorf("noiseless strongly convex accuracy %v", acc)
	}
}

func TestSCS13PureAndApprox(t *testing.T) {
	for _, budget := range []dp.Budget{{Epsilon: 1}, {Epsilon: 1, Delta: 1e-6}} {
		r := rand.New(rand.NewSource(3))
		s := separable(r, 2000, 5)
		res, err := SCS13(s, loss.NewLogistic(0, 0), Options{
			Budget: budget, Passes: 2, Batch: 50, Rand: r,
		})
		if err != nil {
			t.Fatalf("%v: %v", budget, err)
		}
		wantUpdates := 2 * 2000 / 50
		if res.Updates != wantUpdates {
			t.Errorf("%v: Updates = %d, want %d", budget, res.Updates, wantUpdates)
		}
		if res.NoiseDraws != wantUpdates {
			t.Errorf("%v: NoiseDraws = %d, want one per batch (%d)", budget, res.NoiseDraws, wantUpdates)
		}
	}
}

func TestSCS13NoiseShrinksWithBatch(t *testing.T) {
	// With larger batches the per-iteration sensitivity drops by b, so
	// accuracy at fixed ε should (statistically) improve. We check the
	// weaker invariant that large-batch SCS13 beats batch-1 SCS13 on
	// average over a few seeds.
	avg := func(b int) float64 {
		var sum float64
		for seed := int64(0); seed < 5; seed++ {
			r := rand.New(rand.NewSource(seed))
			s := separable(r, 2000, 5)
			res, err := SCS13(s, loss.NewLogistic(0, 0), Options{
				Budget: dp.Budget{Epsilon: 0.5}, Passes: 2, Batch: b, Rand: r,
			})
			if err != nil {
				t.Fatal(err)
			}
			sum += accuracy(s, res.W)
		}
		return sum / 5
	}
	if a1, a50 := avg(1), avg(50); a50 <= a1-0.05 {
		t.Errorf("batch-50 SCS13 accuracy %v unexpectedly below batch-1 %v", a50, a1)
	}
}

func TestBST14RequiresDelta(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	s := separable(r, 100, 3)
	_, err := BST14(s, loss.NewLogistic(0, 0), Options{
		Budget: dp.Budget{Epsilon: 1}, Radius: 1, Rand: r,
	})
	if err == nil {
		t.Error("BST14 accepted pure ε-DP")
	}
}

func TestBST14RequiresRadius(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := separable(r, 100, 3)
	_, err := BST14(s, loss.NewLogistic(0, 0), Options{
		Budget: dp.Budget{Epsilon: 1, Delta: 1e-6}, Rand: r,
	})
	if err == nil {
		t.Error("BST14 accepted Radius <= 0")
	}
}

func TestBST14ConvexRuns(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	s := separable(r, 2000, 5)
	res, err := BST14(s, loss.NewLogistic(0, 0), Options{
		Budget: dp.Budget{Epsilon: 2, Delta: 1e-6},
		Passes: 2, Batch: 50, Radius: 10, Rand: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantT := 2 * 2000 / 50
	if res.Updates != wantT {
		t.Errorf("Updates = %d, want %d", res.Updates, wantT)
	}
	if res.NoiseDraws != wantT {
		t.Errorf("NoiseDraws = %d, want %d", res.NoiseDraws, wantT)
	}
	if n := vec.Norm(res.W); n > 10+1e-9 {
		t.Errorf("‖w‖ = %v violates the radius", n)
	}
}

func TestBST14StronglyConvexRuns(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := separable(r, 2000, 5)
	lambda := 1e-2
	res, err := BST14(s, loss.NewLogistic(lambda, 0), Options{
		Budget: dp.Budget{Epsilon: 2, Delta: 1e-6},
		Passes: 2, Batch: 50, Radius: 1 / lambda, Rand: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != 2*2000/50 {
		t.Errorf("Updates = %d", res.Updates)
	}
}

func TestBST14Dispatch(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	s := separable(r, 500, 3)
	// Strongly convex loss routes to Algorithm 5 (finishes and projects
	// to R = 1/λ).
	if _, err := BST14(s, loss.NewLogistic(1e-2, 0), Options{
		Budget: dp.Budget{Epsilon: 1, Delta: 1e-6}, Radius: 100, Rand: r,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := BST14(s, loss.NewLogistic(0, 0), Options{
		Budget: dp.Budget{Epsilon: 1, Delta: 1e-6}, Radius: 1, Rand: r,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBST14NoiseDerivation(t *testing.T) {
	// The derived σ must shrink as ε grows and grow with T (smaller
	// per-step budget).
	_, s1 := bst14Noise(0.1, 1e-6, 1, 10000, 1)
	_, s2 := bst14Noise(1.0, 1e-6, 1, 10000, 1)
	if s2 >= s1 {
		t.Errorf("σ(ε=1) = %v should be < σ(ε=0.1) = %v", s2, s1)
	}
	T1, _ := bst14Noise(1, 1e-6, 1, 10000, 1)
	T2, _ := bst14Noise(1, 1e-6, 10, 10000, 1)
	if T1 != 10000 || T2 != 100000 {
		t.Errorf("T = %d, %d; want 10000, 100000", T1, T2)
	}
}

func TestErrorPaths(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	s := separable(r, 10, 2)
	empty := &sgd.SliceSamples{}
	f := loss.NewLogistic(0, 0)
	if _, err := Noiseless(empty, f, Options{Rand: r}); err == nil {
		t.Error("Noiseless accepted empty data")
	}
	if _, err := Noiseless(s, f, Options{}); err == nil {
		t.Error("Noiseless accepted nil Rand")
	}
	if _, err := SCS13(empty, f, Options{Budget: dp.Budget{Epsilon: 1}, Rand: r}); err == nil {
		t.Error("SCS13 accepted empty data")
	}
	if _, err := SCS13(s, f, Options{Budget: dp.Budget{Epsilon: 0}, Rand: r}); err == nil {
		t.Error("SCS13 accepted ε=0")
	}
	if _, err := SCS13(s, f, Options{Budget: dp.Budget{Epsilon: 1}}); err == nil {
		t.Error("SCS13 accepted nil Rand")
	}
	if _, err := BST14(empty, f, Options{
		Budget: dp.Budget{Epsilon: 1, Delta: 1e-6}, Radius: 1, Rand: r,
	}); err == nil {
		t.Error("BST14 accepted empty data")
	}
	if _, err := BST14(s, f, Options{
		Budget: dp.Budget{Epsilon: 1, Delta: 1e-6}, Radius: 1,
	}); err == nil {
		t.Error("BST14 accepted nil Rand")
	}
}

// The headline comparison of the paper, in miniature: at moderate ε on
// a well-separated problem, output perturbation (tested in core) should
// beat SCS13 because SCS13 pays noise every iteration. Here we only
// lock in that SCS13's accuracy degrades as ε shrinks — the shape of
// every accuracy figure.
func TestSCS13DegradesWithSmallEpsilon(t *testing.T) {
	avg := func(eps float64) float64 {
		var sum float64
		for seed := int64(0); seed < 6; seed++ {
			r := rand.New(rand.NewSource(100 + seed))
			s := separable(r, 1000, 10)
			res, err := SCS13(s, loss.NewLogistic(0, 0), Options{
				Budget: dp.Budget{Epsilon: eps}, Passes: 1, Batch: 10, Rand: r,
			})
			if err != nil {
				t.Fatal(err)
			}
			sum += accuracy(s, res.W)
		}
		return sum / 6
	}
	hi, lo := avg(4), avg(0.01)
	if hi <= lo {
		t.Errorf("accuracy at ε=4 (%v) should exceed accuracy at ε=0.01 (%v)", hi, lo)
	}
}

// TestSCS13BatchAboveRows pins SCS13's noise to the batch the engine
// runs. sgd.Run clamps b to m, so at b = 4m every update averages the
// same m rows as at b = m and must get the same noise: the same seed
// gives the same W bit for bit and the same number of draws. Noise
// calibrated to the unclamped b would be 4× too small.
func TestSCS13BatchAboveRows(t *testing.T) {
	train, _ := data.CovtypeSim(rand.New(rand.NewSource(3)), 0.001)
	m := train.Len()
	run := func(b int) *Result {
		res, err := SCS13(train, loss.NewLogistic(1e-3, 0), Options{
			Budget: dp.Budget{Epsilon: 1}, Passes: 2, Batch: b, Radius: 1000,
			Rand: rand.New(rand.NewSource(5)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	atM, above := run(m), run(4*m)
	if above.NoiseDraws != atM.NoiseDraws {
		t.Errorf("b=4m drew noise %d times, b=m %d times", above.NoiseDraws, atM.NoiseDraws)
	}
	for j := range atM.W {
		if math.Float64bits(above.W[j]) != math.Float64bits(atM.W[j]) {
			t.Fatalf("b=4m: W[%d] = %v, b=m: %v; the noise is not calibrated to the batch the engine runs (m=%d)",
				j, above.W[j], atM.W[j], m)
		}
	}
}

// TestNegativePassesOrBatch: every baseline rejects a negative Passes
// or Batch with an error naming the field, before SCS13 splits the
// budget by k or BST14 derives its iteration count from k and b.
func TestNegativePassesOrBatch(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	s := separable(r, 50, 3)
	f := loss.NewLogistic(1e-2, 0)
	algs := map[string]func(sgd.Samples, loss.Function, Options) (*Result, error){
		"noiseless": Noiseless, "scs13": SCS13, "bst14": BST14,
	}
	for name, run := range algs {
		for field, o := range map[string]Options{
			"Passes": {Passes: -1, Batch: 5},
			"Batch":  {Passes: 2, Batch: -1},
		} {
			o.Budget, o.Radius, o.Rand = dp.Budget{Epsilon: 1, Delta: 1e-5}, 10, r
			if _, err := run(s, f, o); err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%s with negative %s: err = %v, want one naming %s", name, field, err, field)
			}
		}
	}
}
