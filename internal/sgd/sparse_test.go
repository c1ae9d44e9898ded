package sgd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"boltondp/internal/loss"
	"boltondp/internal/vec"
)

// randomSparseSamples builds matching sparse and dense views of one
// random classification set: m rows in d dimensions with nnz non-zeros
// each, rows normalized into the unit ball.
func randomSparseSamples(r *rand.Rand, m, d, nnz int) (*SparseSliceSamples, *SliceSamples) {
	sp := &SparseSliceSamples{D: d}
	de := &SliceSamples{}
	for i := 0; i < m; i++ {
		dense := make([]float64, d)
		for k := 0; k < nnz; k++ {
			dense[r.Intn(d)] = 0.5 + r.Float64()
		}
		if n := vec.Norm(dense); n > 1 {
			vec.Scale(dense, 1/n)
		}
		y := 1.0
		if r.Float64() < 0.5 {
			y = -1
		}
		sp.X = append(sp.X, vec.DenseToSparse(dense))
		sp.Y = append(sp.Y, y)
		de.X = append(de.X, dense)
		de.Y = append(de.Y, y)
	}
	return sp, de
}

// TestSparseDenseParity is the tentpole property test: the sparse
// kernel and the dense kernel must produce models equal within 1e-12
// for every loss, batch size, and combination of projection and
// averaging, with the same randomness consumption.
func TestSparseDenseParity(t *testing.T) {
	losses := map[string]loss.Function{
		"logistic":         loss.NewLogistic(0, 0),
		"logistic-l2":      loss.NewLogistic(1e-2, 0),
		"huber-l2":         loss.NewHuber(0.1, 1e-2, 0),
		"leastsquares-l2":  loss.NewLeastSquares(1e-2, 0),
		"logistic-bigstep": loss.NewLogistic(0.3, 0), // aggressive shrink exercises α folding
		"huber":            loss.NewHuber(0.1, 0, 0), // flat regions exercise zero data terms
		"leastsquares":     loss.NewLeastSquares(0, 0),
	}
	type variant struct {
		name    string
		radius  float64
		average bool
		tail    bool
	}
	variants := []variant{
		{"plain", 0, false, false},
		{"projected", 0.7, false, false},
		{"averaged", 0, true, false},
		{"projected-averaged", 0.7, true, false},
		{"tail-averaged", 0.7, false, true},
	}
	for lname, f := range losses {
		for _, b := range []int{1, 10} {
			for _, v := range variants {
				t.Run(fmt.Sprintf("%s/b=%d/%s", lname, b, v.name), func(t *testing.T) {
					r := rand.New(rand.NewSource(11))
					sp, de := randomSparseSamples(r, 173, 60, 6)
					mk := func() Config {
						p := f.Params()
						var step Schedule
						if p.Gamma > 0 {
							step = StronglyConvexPaper(p.Beta, p.Gamma)
						} else {
							step = Constant(0.3)
						}
						return Config{
							Loss: f, Step: step, Passes: 3, Batch: b,
							Radius: v.radius, Average: v.average, AverageTail: v.tail,
							FreshPerm: true,
						}
					}
					cs := mk()
					cs.Rand = rand.New(rand.NewSource(42))
					cd := mk()
					cd.Rand = rand.New(rand.NewSource(42))
					if !UsesSparseKernel(sp, cs) {
						t.Fatal("sparse source did not dispatch to the sparse kernel")
					}
					if UsesSparseKernel(de, cd) {
						t.Fatal("dense source dispatched to the sparse kernel")
					}
					rs, err := Run(sp, cs)
					if err != nil {
						t.Fatal(err)
					}
					rd, err := Run(de, cd)
					if err != nil {
						t.Fatal(err)
					}
					if rs.Updates != rd.Updates || rs.Passes != rd.Passes {
						t.Fatalf("bookkeeping mismatch: sparse %d/%d dense %d/%d",
							rs.Updates, rs.Passes, rd.Updates, rd.Passes)
					}
					if !vec.Equal(rs.W, rd.W, 1e-12) {
						t.Errorf("W diverged: max|Δ| = %g", maxAbsDiff(rs.W, rd.W))
					}
					if (rs.WAvg == nil) != (rd.WAvg == nil) {
						t.Fatalf("WAvg presence mismatch")
					}
					if rs.WAvg != nil && !vec.Equal(rs.WAvg, rd.WAvg, 1e-12) {
						t.Errorf("WAvg diverged: max|Δ| = %g", maxAbsDiff(rs.WAvg, rd.WAvg))
					}
				})
			}
		}
	}
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Parity must also hold for the remaining Config features the engine
// strategies exercise: NoPerm (streaming), T0 offsets (sharded epoch
// continuation), W0 warm starts and fixed Perm.
func TestSparseDenseParityEngineFeatures(t *testing.T) {
	f := loss.NewLogistic(1e-2, 0)
	p := f.Params()
	r := rand.New(rand.NewSource(3))
	sp, de := randomSparseSamples(r, 120, 40, 5)

	w0 := make([]float64, 40)
	for i := range w0 {
		w0[i] = r.NormFloat64() * 0.1
	}
	perm := rand.New(rand.NewSource(77)).Perm(120)

	cases := map[string]Config{
		"noperm-t0": {Loss: f, Step: StronglyConvexPaper(p.Beta, p.Gamma),
			Passes: 1, Batch: 4, NoPerm: true, T0: 57, Radius: 2, W0: w0},
		"fixed-perm": {Loss: f, Step: StronglyConvexPaper(p.Beta, p.Gamma),
			Passes: 2, Batch: 1, Perm: perm, Average: true},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			rs, err := Run(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := Run(de, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Passes != rd.Passes || rs.Updates != rd.Updates {
				t.Fatalf("bookkeeping mismatch: sparse %d/%d dense %d/%d",
					rs.Updates, rs.Passes, rd.Updates, rd.Passes)
			}
			if !vec.Equal(rs.W, rd.W, 1e-12) {
				t.Errorf("W diverged: max|Δ| = %g", maxAbsDiff(rs.W, rd.W))
			}
		})
	}
}

// A GradNoise hook needs a materialized dense gradient, so it must
// force the dense path even on a sparse source.
func TestGradNoiseForcesDensePath(t *testing.T) {
	f := loss.NewLogistic(0, 0)
	cfg := Config{Loss: f, Step: Constant(0.1), Passes: 1,
		GradNoise: func(t int, g []float64) {}}
	sp := &SparseSliceSamples{D: 3, X: []*vec.Sparse{vec.DenseToSparse([]float64{1, 0, 0})}, Y: []float64{1}}
	if UsesSparseKernel(sp, cfg) {
		t.Error("GradNoise run dispatched to the sparse kernel")
	}
}

// EmpiricalRisk must agree across representations (it dispatches on
// the same two-tier contract).
func TestSparseEmpiricalRiskParity(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sp, de := randomSparseSamples(r, 80, 30, 4)
	w := make([]float64, 30)
	for i := range w {
		w[i] = r.NormFloat64()
	}
	for _, f := range []loss.Function{
		loss.NewLogistic(1e-2, 0), loss.NewHuber(0.1, 0, 0), loss.NewLeastSquares(0, 0),
	} {
		rsp := EmpiricalRisk(sp, f, w)
		rde := EmpiricalRisk(de, f, w)
		if math.Abs(rsp-rde) > 1e-12 {
			t.Errorf("%s: sparse risk %v dense %v", f.Name(), rsp, rde)
		}
	}
}

// The steady-state sparse update must not allocate: row access hands
// out views, the batch scalar buffer is preallocated, and the scaled
// representation never materializes w. This is the CI alloc gate.
func TestSparseUpdateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	sp, _ := randomSparseSamples(r, 512, 800, 40)
	st := newSparseState(loss.NewLogistic(1e-2, 0), 800, 16, 1.0, true, nil)
	st.cs = 1 // exercise the iterate-sum maintenance branch too
	eta := 0.05
	start := 0
	allocs := testing.AllocsPerRun(1000, func() {
		st.batch(sp, nil, start, start+16, eta)
		st.cs += st.alpha
		start = (start + 16) % 496
	})
	if allocs > 0 {
		t.Fatalf("steady-state sparse update allocates: %v allocs/op", allocs)
	}
}

// Folding must keep the model exact: drive α to the fold threshold via
// an extreme shrink and check against the dense path.
func TestSparseAlphaFoldParity(t *testing.T) {
	// λη per step shrinks α by 0.5: after ~350 steps α < 1e-100 and the
	// kernel must fold without disturbing parity.
	f := loss.NewLeastSquares(5, 0) // λ = 5
	r := rand.New(rand.NewSource(13))
	sp, de := randomSparseSamples(r, 400, 20, 3)
	cfg := Config{Loss: f, Step: Constant(0.1), Passes: 1, Batch: 1, NoPerm: true}
	rs, err := Run(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Run(de, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(rs.W, rd.W, 1e-12) {
		t.Errorf("fold parity: max|Δ| = %g", maxAbsDiff(rs.W, rd.W))
	}
}
