package sgd

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"boltondp/internal/loss"
	"boltondp/internal/vec"
)

func gpBase() Config {
	return Config{
		Loss:   loss.NewLogistic(1e-2, 0),
		Step:   Constant(0.1),
		Passes: 3,
		Batch:  25,
		Radius: 10,
	}
}

func TestGradPerturbValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	s := separable(rand.New(rand.NewSource(2)), 100, 5)
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero clip", func(c *Config) { c.GradPerturb = &GradPerturb{Clip: 0, Sigma: 1, Rand: r} }, "Clip"},
		{"negative sigma", func(c *Config) { c.GradPerturb = &GradPerturb{Clip: 1, Sigma: -1, Rand: r} }, "Sigma"},
		{"no rand", func(c *Config) { c.GradPerturb = &GradPerturb{Clip: 1, Sigma: 1} }, "Rand"},
		{"with gradnoise", func(c *Config) {
			c.GradPerturb = &GradPerturb{Clip: 1, Sigma: 1, Rand: r}
			c.GradNoise = func(int, []float64) {}
		}, "mutually exclusive"},
		{"with progress", func(c *Config) {
			c.GradPerturb = &GradPerturb{Clip: 1, Sigma: 1, Rand: r}
			c.Progress = func(int, float64) {}
		}, "Progress"},
		{"poisson with perm", func(c *Config) {
			c.GradPerturb = &GradPerturb{Clip: 1, Sigma: 1, Rand: r, Poisson: true}
			c.Perm = make([]int, 100)
		}, "Poisson"},
		{"poisson with noperm", func(c *Config) {
			c.GradPerturb = &GradPerturb{Clip: 1, Sigma: 1, Rand: r, Poisson: true}
			c.NoPerm = true
		}, "Poisson"},
		{"poisson with freshperm", func(c *Config) {
			c.GradPerturb = &GradPerturb{Clip: 1, Sigma: 1, Rand: r, Poisson: true}
			c.FreshPerm = true
		}, "Poisson"},
	}
	for _, tc := range cases {
		cfg := gpBase()
		cfg.Rand = rand.New(rand.NewSource(3))
		tc.mut(&cfg)
		_, err := Run(s, cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestGradPerturbLooseClipMatchesPlain: with Sigma = 0 and a clip far
// above any per-example gradient norm, gradient perturbation is a
// no-op — the run must be bit-identical to a plain run, pinning that
// the mode rides the same sequential kernel and update rule.
func TestGradPerturbLooseClipMatchesPlain(t *testing.T) {
	s := separable(rand.New(rand.NewSource(7)), 200, 8)
	plain := gpBase()
	plain.Rand = rand.New(rand.NewSource(11))
	base, err := Run(s, plain)
	if err != nil {
		t.Fatal(err)
	}
	gp := gpBase()
	gp.Rand = rand.New(rand.NewSource(11))
	gp.GradPerturb = &GradPerturb{Clip: 1e6} // logistic grads on unit rows are ≤ 1+λR
	got, err := Run(s, gp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.W {
		if base.W[i] != got.W[i] {
			t.Fatalf("w[%d]: plain %v vs loose-clip gradperturb %v", i, base.W[i], got.W[i])
		}
	}
}

// TestGradPerturbClipBoundsStep: with a binding clip and no noise, each
// update moves w by at most η·C (the averaged clipped sum has norm
// ≤ C), regardless of the loss's own gradient norms.
func TestGradPerturbClipBoundsStep(t *testing.T) {
	s := separable(rand.New(rand.NewSource(3)), 100, 5)
	const clip = 0.01
	const eta = 0.5
	cfg := gpBase()
	cfg.Step = Constant(eta)
	cfg.Passes = 1
	cfg.Batch = 10
	cfg.Rand = rand.New(rand.NewSource(4))
	cfg.GradPerturb = &GradPerturb{Clip: clip}
	cfg.Batch = 100 // one full-batch update isolates the per-step bound
	res, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != 1 {
		t.Fatalf("Updates = %d, want 1", res.Updates)
	}
	if n := vec.Norm(res.W); n > eta*clip*(1+1e-12) {
		t.Fatalf("one clipped update moved ‖w‖ to %v, bound is η·C = %v", n, eta*clip)
	}
	// Sanity: the unclipped update moves further.
	cfg.GradPerturb = nil
	cfg.Rand = rand.New(rand.NewSource(4))
	free, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vec.Norm(free.W) <= eta*clip {
		t.Fatal("clip was not binding; test is vacuous")
	}
}

// TestGradPerturbNoiseDeterministicAndEffective: same seeds → identical
// model; different noise seed → different model; noise actually lands
// in the iterate.
func TestGradPerturbNoiseDeterministicAndEffective(t *testing.T) {
	s := separable(rand.New(rand.NewSource(5)), 150, 6)
	run := func(permSeed, noiseSeed int64, sigma float64) []float64 {
		cfg := gpBase()
		cfg.Rand = rand.New(rand.NewSource(permSeed))
		cfg.GradPerturb = &GradPerturb{Clip: 1, Sigma: sigma, Rand: rand.New(rand.NewSource(noiseSeed))}
		res, err := Run(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.W
	}
	a := run(1, 2, 0.5)
	b := run(1, 2, 0.5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seeds, different models at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(1, 3, 0.5)
	if vec.Equal(a, c, 0) {
		t.Fatal("different noise seed produced an identical model")
	}
	quiet := run(1, 2, 0)
	if vec.Equal(a, quiet, 0) {
		t.Fatal("σ=0.5 model identical to σ=0 model; noise never applied")
	}
	if math.IsNaN(vec.Norm(a)) {
		t.Fatal("noisy model has NaNs")
	}
}

// TestGradPerturbPoisson: Poisson mode runs the planned Passes·⌊m/b⌋
// updates over independently drawn batches — deterministic under fixed
// seeds, different from permutation batching under the same seeds (the
// whole point: the batches are random subsamples, not a partition),
// and robust to empty draws at tiny sampling rates.
func TestGradPerturbPoisson(t *testing.T) {
	s := separable(rand.New(rand.NewSource(13)), 200, 6)
	run := func(poisson bool, seed int64, sigma float64) *Result {
		cfg := gpBase()
		cfg.Rand = rand.New(rand.NewSource(seed))
		cfg.GradPerturb = &GradPerturb{Clip: 1, Sigma: sigma, Rand: rand.New(rand.NewSource(seed + 1)), Poisson: poisson}
		res, err := Run(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(true, 5, 0.5)
	if want := 3 * (200 / 25); a.Updates != want {
		t.Fatalf("Poisson Updates = %d, want the calibrated %d", a.Updates, want)
	}
	b := run(true, 5, 0.5)
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatalf("same seeds, different Poisson models at %d", i)
		}
	}
	if perm := run(false, 5, 0.5); vec.Equal(a.W, perm.W, 0) {
		t.Fatal("Poisson batching produced the permutation-batching model; batches are not being subsampled")
	}
	if math.IsNaN(vec.Norm(a.W)) {
		t.Fatal("Poisson model has NaNs")
	}

	// Rate 1/m: most draws are empty, each update is then pure noise
	// over the expected lot size — must stay finite and still run the
	// planned number of updates.
	cfg := gpBase()
	cfg.Batch = 1
	cfg.Passes = 1
	cfg.Rand = rand.New(rand.NewSource(17))
	cfg.GradPerturb = &GradPerturb{Clip: 1, Sigma: 0.5, Rand: rand.New(rand.NewSource(18)), Poisson: true}
	res, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != 200 {
		t.Fatalf("Updates = %d, want 200", res.Updates)
	}
	if n := vec.Norm(res.W); math.IsNaN(n) || math.IsInf(n, 0) {
		t.Fatalf("tiny-rate Poisson model norm = %v", n)
	}
}

// TestGradPerturbDisablesFastKernels: gradient perturbation must route
// around both the sparse kernel (clipping needs dense per-example
// gradients) and the parallel dense kernel (sequential accumulation),
// and KernelWorkers > 1 must not change the result.
func TestGradPerturbDisablesFastKernels(t *testing.T) {
	sp, dense := randomSparseSamples(rand.New(rand.NewSource(9)), 120, 6, 3)
	cfg := gpBase()
	cfg.GradPerturb = &GradPerturb{Clip: 1}
	if UsesSparseKernel(sp, cfg) {
		t.Fatal("gradperturb run routed to the sparse kernel")
	}
	cfg.Rand = rand.New(rand.NewSource(10))
	seq, err := Run(dense, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par := gpBase()
	par.GradPerturb = &GradPerturb{Clip: 1}
	par.KernelWorkers = 4
	par.Rand = rand.New(rand.NewSource(10))
	got, err := Run(dense, par)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.W {
		if seq.W[i] != got.W[i] {
			t.Fatalf("KernelWorkers changed a gradperturb result at %d", i)
		}
	}
	// The sparse source must produce the same model as the dense one
	// (dense fallback on the CSR rows).
	spCfg := gpBase()
	spCfg.GradPerturb = &GradPerturb{Clip: 1}
	spCfg.Rand = rand.New(rand.NewSource(10))
	spRes, err := Run(sp, spCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(seq.W, spRes.W, 1e-12) {
		t.Fatal("sparse-source gradperturb diverged from dense")
	}
}
