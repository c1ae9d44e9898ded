package sgd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"boltondp/internal/loss"
	"boltondp/internal/vec"
)

// bitsEqual is the parallel kernel's equality notion: float64 bit
// patterns, not tolerances. Parallel execution is advertised as
// BIT-IDENTICAL to sequential, so anything short of this is a failure.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestParKernelDenseBatchBitIdentical drives the dense batch executor
// directly against the sequential accumulation loop it replaces — the
// strongest form of the engagement check, since a nil kernel would fail
// the Fatalf rather than silently compare sequential to sequential.
func TestParKernelDenseBatchBitIdentical(t *testing.T) {
	const m, d, n, start = 64, 33, 21, 17
	r := rand.New(rand.NewSource(7))
	_, de := randomSparseSamples(r, m, d, 5)
	f := loss.NewHuber(0.1, 1e-2, 0) // piecewise regions stress per-row purity
	w := make([]float64, d)
	for i := range w {
		w[i] = r.NormFloat64() * 0.3
	}
	perm := rand.New(rand.NewSource(9)).Perm(m)

	want := make([]float64, d)
	gbuf := make([]float64, d)
	for i := start; i < start+n; i++ {
		x, y := de.At(perm[i])
		loss.Grad(f, gbuf, w, x, y)
		vec.Axpy(want, 1, gbuf)
	}

	// Worker counts beyond NumCPU and beyond the batch size must both
	// stay exact: the split only moves work, never the fold order.
	for _, workers := range []int{2, 3, 4, 7, 32} {
		grad := make([]float64, d)
		dk := newDenseKernel(de, workers, n, d, f, w, grad)
		if dk == nil {
			t.Fatalf("W=%d: dense kernel did not engage", workers)
		}
		dk.batch(perm, start, start+n)
		dk.close()
		if !bitsEqual(grad, want) {
			t.Errorf("W=%d: parallel batch gradient is not bit-identical (max|Δ| = %g)",
				workers, maxAbsDiff(grad, want))
		}
	}
}

// TestParKernelRunParity is the sgd-level slice of the parity wall:
// whole runs under KernelWorkers ∈ {1, 2, 4} must reproduce the
// sequential run bit for bit, on both kernels, across the Config
// features that interact with the batch loop (projection, averaging,
// tail averaging, the GradNoise hook).
func TestParKernelRunParity(t *testing.T) {
	losses := map[string]loss.Function{
		"logistic-l2":  loss.NewLogistic(1e-2, 0),
		"logistic":     loss.NewLogistic(0, 0),
		"huber-l2":     loss.NewHuber(0.1, 1e-2, 0),
		"leastsquares": loss.NewLeastSquares(1e-2, 0),
	}
	type variant struct {
		name    string
		radius  float64
		average bool
		tail    bool
		noise   bool
	}
	variants := []variant{
		{"plain", 0, false, false, false},
		{"projected-averaged", 0.7, true, false, false},
		{"tail-averaged", 0.7, false, true, false},
		{"gradnoise", 0.7, false, false, true},
	}
	r := rand.New(rand.NewSource(11))
	sp, de := randomSparseSamples(r, 173, 60, 6)

	for lname, f := range losses {
		for _, v := range variants {
			t.Run(fmt.Sprintf("%s/%s", lname, v.name), func(t *testing.T) {
				mk := func(kernelWorkers int) Config {
					p := f.Params()
					var step Schedule
					if p.Gamma > 0 {
						step = StronglyConvexPaper(p.Beta, p.Gamma)
					} else {
						step = Constant(0.3)
					}
					cfg := Config{
						Loss: f, Step: step, Passes: 3, Batch: 10,
						Radius: v.radius, Average: v.average, AverageTail: v.tail,
						FreshPerm: true, KernelWorkers: kernelWorkers,
						Rand: rand.New(rand.NewSource(42)),
					}
					if v.noise {
						// Deterministic stand-in for the SCS13 hook: runs
						// post-reduce on one thread, so it must see the
						// identical gradient at the identical update index.
						cfg.GradNoise = func(t int, g []float64) {
							for i := range g {
								g[i] += 1e-3 * math.Sin(float64(t+i))
							}
						}
					}
					return cfg
				}
				check := func(name string, s Samples) {
					base, err := Run(s, mk(0))
					if err != nil {
						t.Fatal(err)
					}
					for _, kw := range []int{1, 2, 4} {
						res, err := Run(s, mk(kw))
						if err != nil {
							t.Fatal(err)
						}
						if res.Updates != base.Updates || res.Passes != base.Passes {
							t.Fatalf("%s/W=%d: bookkeeping %d/%d, sequential %d/%d",
								name, kw, res.Updates, res.Passes, base.Updates, base.Passes)
						}
						if !bitsEqual(res.W, base.W) {
							t.Errorf("%s/W=%d: W not bit-identical (max|Δ| = %g)",
								name, kw, maxAbsDiff(res.W, base.W))
						}
						if (res.WAvg == nil) != (base.WAvg == nil) {
							t.Fatalf("%s/W=%d: WAvg presence mismatch", name, kw)
						}
						if res.WAvg != nil && !bitsEqual(res.WAvg, base.WAvg) {
							t.Errorf("%s/W=%d: WAvg not bit-identical (max|Δ| = %g)",
								name, kw, maxAbsDiff(res.WAvg, base.WAvg))
						}
					}
				}
				check("dense", de)
				// GradNoise forces the dense path even on sparse sources;
				// the sparse rows then exercise the dense kernel's At views.
				if !v.noise && !UsesSparseKernel(sp, mk(2)) {
					t.Fatal("sparse source did not dispatch to the sparse kernel")
				}
				check("sparse", sp)
			})
		}
	}
}

// TestParKernelDispatch pins the (pure-performance) dispatch rules: no
// kernel below two workers or minParBatch, and no dense kernel past the
// gradient-buffer cap. These can never change results — the parity
// tests above prove both paths bit-equal — but silently losing them
// would regress either speed or memory.
func TestParKernelDispatch(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	sp, de := randomSparseSamples(r, 64, 16, 4)
	f := loss.NewLogistic(1e-2, 0)
	w := make([]float64, 16)
	g := make([]float64, 16)

	if dk := newDenseKernel(de, 1, 64, 16, f, w, g); dk != nil {
		dk.close()
		t.Error("dense kernel engaged at W=1")
	}
	if dk := newDenseKernel(de, 4, minParBatch-1, 16, f, w, g); dk != nil {
		dk.close()
		t.Error("dense kernel engaged below minParBatch")
	}
	if dk := newDenseKernel(de, 4, 4096, 2048, f, w, g); dk != nil {
		dk.close()
		t.Error("dense kernel engaged past maxParGradFloats")
	}
	if dk := newDenseKernel(de, 4, 64, 16, f, w, g); dk == nil {
		t.Error("dense kernel refused a qualifying configuration")
	} else {
		dk.close()
	}

	st := newSparseState(loss.NewLogistic(1e-2, 0), 16, 64, 1.0, false, nil)
	if sk := newSparseKernel(sp, 1, 64, st); sk != nil {
		sk.close()
		t.Error("sparse kernel engaged at W=1")
	}
	if sk := newSparseKernel(sp, 4, minParBatch-1, st); sk != nil {
		sk.close()
		t.Error("sparse kernel engaged below minParBatch")
	}
	if sk := newSparseKernel(sp, 4, 64, st); sk == nil {
		t.Error("sparse kernel refused a qualifying configuration")
	} else {
		sk.close()
	}
}

func TestKernelWorkersValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	_, de := randomSparseSamples(r, 32, 8, 3)
	cfg := Config{
		Loss: loss.NewLogistic(1e-2, 0), Step: Constant(0.1), Passes: 1,
		KernelWorkers: -1, Rand: rand.New(rand.NewSource(2)),
	}
	if _, err := Run(de, cfg); err == nil {
		t.Error("negative KernelWorkers accepted")
	}
}

// TestParKernelAllocs is the CI alloc gate: once a kernel is built, the
// per-batch steady state — pool handshake included — must allocate
// nothing, matching the sparse kernel's existing 0-allocs discipline.
func TestParKernelAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sp, de := randomSparseSamples(r, 512, 200, 20)
	f := loss.NewLogistic(1e-2, 0)

	w := make([]float64, 200)
	grad := make([]float64, 200)
	dk := newDenseKernel(de, 4, 16, 200, f, w, grad)
	if dk == nil {
		t.Fatal("dense kernel did not engage")
	}
	defer dk.close()
	start := 0
	if allocs := testing.AllocsPerRun(500, func() {
		dk.batch(nil, start, start+16)
		start = (start + 16) % 496
	}); allocs > 0 {
		t.Errorf("steady-state dense parallel batch allocates: %v allocs/op", allocs)
	}

	st := newSparseState(loss.NewLogistic(1e-2, 0), 200, 16, 1.0, true, nil)
	sk := newSparseKernel(sp, 4, 16, st)
	if sk == nil {
		t.Fatal("sparse kernel did not engage")
	}
	defer sk.close()
	start = 0
	if allocs := testing.AllocsPerRun(500, func() {
		sk.deriv(nil, start, 16)
		start = (start + 16) % 496
	}); allocs > 0 {
		t.Errorf("steady-state sparse parallel deriv allocates: %v allocs/op", allocs)
	}
}

// splitRange must cover [0, n) exactly once, in order, for every
// worker count — including more workers than items.
func TestSplitRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 5, 16, 173} {
			lo := make([]int, workers)
			hi := make([]int, workers)
			splitRange(lo, hi, n)
			pos := 0
			for k := 0; k < workers; k++ {
				if lo[k] != pos || hi[k] < lo[k] {
					t.Fatalf("w=%d n=%d: range %d is [%d,%d), expected to start at %d",
						workers, n, k, lo[k], hi[k], pos)
				}
				pos = hi[k]
			}
			if pos != n {
				t.Fatalf("w=%d n=%d: ranges cover %d items", workers, n, pos)
			}
		}
	}
}
