// Package baselines implements the comparison algorithms of the
// paper's evaluation: noiseless PSGD, SCS13 (Song, Chaudhuri and
// Sarwate 2013 — per-iteration noise), and the paper's extended BST14
// (Bassily, Smith and Thakurta 2014) variants for a constant number of
// passes, reproduced verbatim from Algorithms 4 and 5.
//
// SCS13 and BST14 are "white box": they must inject noise into every
// mini-batch gradient update. SCS13 is expressed through the PSGD
// GradNoise hook — the code-level analogue of the deep changes to
// Bismarck's transition function that Figure 1(C) illustrates. BST14
// cannot reuse the PSGD engine at all because it samples examples
// uniformly with replacement rather than by permutation, so it carries
// its own update loop; its batch gradient is still summed by the
// engine's row fold (sgd.Fold), the same one the dense kernel and the
// Bismarck aggregate use.
//
// All permutation-based runs here execute through internal/engine:
// Noiseless honors Options.Strategy/Workers (so it remains the
// like-for-like baseline for sharded and streaming private runs),
// while the white-box algorithms are pinned to the Sequential strategy
// — their per-batch noise has no sharded or streaming sensitivity
// analysis.
package baselines

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"boltondp/internal/account"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/rng"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

// Options configures a baseline run.
type Options struct {
	// Budget is the privacy guarantee. Noiseless ignores it. BST14
	// requires Delta > 0 (it has no pure ε-DP form — §4.1).
	Budget dp.Budget
	// Passes is k (default 1).
	Passes int
	// Batch is the mini-batch size b (default 1).
	Batch int
	// Radius is the projection radius R. BST14 requires it (its step
	// size is 2R/(G√t)); for the others non-positive means
	// unconstrained.
	Radius float64
	// Strategy selects the execution-engine strategy for Noiseless
	// (default Sequential). The white-box algorithms reject anything
	// but Sequential: their per-batch noise has no sharded or streaming
	// analysis.
	Strategy engine.Strategy
	// Workers is the shard count for Noiseless under the Sharded
	// strategy (default 1).
	Workers int
	// KernelWorkers is the intra-batch parallelism degree of the SGD
	// kernel for Noiseless (sgd.Config.KernelWorkers; 0 or 1 =
	// sequential). Bit-identical to sequential for every value, so the
	// baseline stays like-for-like with private runs at any setting.
	KernelWorkers int
	// Rand is the randomness source (permutations, sampling, noise).
	Rand *rand.Rand
	// Ctx, when non-nil, makes the run cancellable: every baseline
	// checks it once per mini-batch update (the engine-backed ones
	// through sgd.Config.Ctx, BST14 inside its own loop) and returns
	// ctx.Err() on cancellation.
	Ctx context.Context
	// Accountant, when non-nil, is the privacy-budget accountant the
	// private baselines (SCS13, BST14) reserve Budget from before any
	// training work, failing closed on overdraw. Noiseless spends no
	// privacy and never draws from it.
	Accountant *account.Accountant
}

// reserve debits the run's budget from its accountant under label, when
// one is attached.
func (o *Options) reserve(label string) error {
	if o.Accountant == nil {
		return nil
	}
	return o.Accountant.Reserve(label, o.Budget)
}

// withDefaults rejects a negative Passes or Batch and sets a zero one
// to 1.
func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.Passes < 0 {
		return out, fmt.Errorf("baselines: negative Passes (%d)", out.Passes)
	}
	if out.Batch < 0 {
		return out, fmt.Errorf("baselines: negative Batch (%d)", out.Batch)
	}
	if out.Passes == 0 {
		out.Passes = 1
	}
	if out.Batch == 0 {
		out.Batch = 1
	}
	return out, nil
}

// Result reports a baseline training run.
type Result struct {
	// W is the trained (for SCS13/BST14: differentially private) model.
	W []float64
	// Updates is the number of gradient updates performed.
	Updates int
	// NoiseDraws counts d-dimensional noise vectors sampled during the
	// run — the per-batch sampling cost responsible for the runtime
	// overhead the paper measures in Figure 5.
	NoiseDraws int
}

// Noiseless runs plain PSGD with the noiseless step sizes of Table 4:
// constant 1/√m for convex losses, 1/(γt) for strongly convex ones. It
// honors Options.Strategy/Workers, making it the like-for-like speed
// and accuracy baseline for the engine's sharded and streaming private
// runs.
func Noiseless(s sgd.Samples, f loss.Function, opt Options) (*Result, error) {
	o, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if o.Rand == nil {
		return nil, errors.New("baselines: Options.Rand is required")
	}
	m := s.Len()
	if m == 0 {
		return nil, errors.New("baselines: empty training set")
	}
	if o.Workers > 1 && o.Strategy != engine.Sharded {
		return nil, fmt.Errorf("baselines: Workers=%d requires the Sharded strategy, got %v", o.Workers, o.Strategy)
	}
	p := f.Params()
	n := m // schedule size: the smallest shard for sharded runs
	if o.Strategy == engine.Sharded && o.Workers > 1 {
		if n, err = engine.ShardSize(m, o.Workers); err != nil {
			return nil, err
		}
	}
	var step sgd.Schedule
	if p.StronglyConvex() {
		step = sgd.InvT(p.Gamma)
	} else {
		step = sgd.Constant(1 / math.Sqrt(float64(n)))
	}
	res, err := engine.Run(s, engine.Config{
		Strategy: o.Strategy,
		Workers:  o.Workers,
		SGD: sgd.Config{
			Loss: f, Step: step, Passes: o.Passes, Batch: o.Batch,
			Radius: o.Radius, KernelWorkers: o.KernelWorkers, Rand: o.Rand, Ctx: o.Ctx,
		},
	})
	if err != nil {
		return nil, err
	}
	return &Result{W: res.W, Updates: res.Updates}, nil
}

// SCS13 runs the per-iteration-noise private SGD of Song, Chaudhuri and
// Sarwate (GlobalSIP 2013), extended to k passes as in §4.1 of the
// paper. Each averaged mini-batch gradient (per-batch L2-sensitivity
// 2L/b) is released with noise calibrated to a per-pass budget of
// (ε/k, δ/k): within one pass the mini-batches partition the data, so
// parallel composition charges each pass once, and simple composition
// sums the k passes. The step size is 1/√t (Table 4).
func SCS13(s sgd.Samples, f loss.Function, opt Options) (*Result, error) {
	o, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if o.Strategy != engine.Sequential || o.Workers > 1 {
		return nil, errors.New("baselines: SCS13 injects per-batch noise and is sequential-only; Strategy/Workers do not apply")
	}
	if err := o.Budget.Validate(); err != nil {
		return nil, err
	}
	if o.Rand == nil {
		return nil, errors.New("baselines: Options.Rand is required")
	}
	m := s.Len()
	if m == 0 {
		return nil, errors.New("baselines: empty training set")
	}
	if err := o.reserve("scs13"); err != nil {
		return nil, err
	}
	p := f.Params()
	perPass := o.Budget.Split(o.Passes)
	// sgd.Run clamps the batch to m, and the noise is calibrated to the
	// batch it averages.
	sens := 2 * p.L / float64(min(o.Batch, m))

	draws := 0
	noise := make([]float64, s.Dim())
	hook := func(t int, grad []float64) {
		if perPass.Pure() {
			rng.GammaSphere(o.Rand, noise, sens, perPass.Epsilon)
		} else {
			sigma := rng.GaussianSigma(sens, perPass.Epsilon, perPass.Delta)
			rng.GaussianVec(o.Rand, noise, sigma)
		}
		draws++
		vec.Axpy(grad, 1, noise)
	}

	res, err := engine.Run(s, engine.Config{
		Strategy: engine.Sequential, // white-box noise is sequential-only
		SGD: sgd.Config{
			Loss: f, Step: sgd.InvSqrtT(1), Passes: o.Passes, Batch: o.Batch,
			Radius: o.Radius, Rand: o.Rand, GradNoise: hook, Ctx: o.Ctx,
		},
	})
	if err != nil {
		return nil, err
	}
	return &Result{W: res.W, Updates: res.Updates, NoiseDraws: draws}, nil
}

// BST14NoiseParams exposes the per-iteration noise derivation of
// Algorithms 4–5 (lines 2–7) so other integrations — notably the
// Bismarck UDA in internal/bismarck — can calibrate the same noise.
func BST14NoiseParams(eps, delta float64, k, m, b int) (T int, sigma float64) {
	return bst14Noise(eps, delta, k, m, b)
}

// bst14Noise derives the per-iteration noise level of Algorithms 4–5,
// lines 2–7: T = k·m/b iterations, δ₁ = δ/T, ε₁ from the advanced
// composition solver, ε₂ = min(1, m·ε₁/2) (the subsampling
// amplification step of BST14), σ² = 2 ln(1.25/δ₁)/ε₂².
func bst14Noise(eps, delta float64, k, m, b int) (T int, sigma float64) {
	T = k * m / b
	if T < 1 {
		T = 1
	}
	delta1 := delta / float64(T)
	eps1 := dp.SolveEps1(eps, T, delta1)
	eps2 := math.Min(1, float64(m)*eps1/2)
	sigma = math.Sqrt(2*math.Log(1.25/delta1)) / eps2
	return T, sigma
}

// BST14 is Algorithm 4 ("Convex BST14 with Constant Epochs") for a
// convex loss and Algorithm 5 for a strongly convex one, mirroring
// core.TrainCtx's dispatch: T uniformly-with-replacement sampled
// mini-batches, per-iteration Gaussian noise N(0, σ²I_d) added to the
// summed batch gradient, and step size η_t = 2R/(G√t) with
// G = √(dσ² + b²L²) (Alg 4) or η_t = 1/(γt) (Alg 5). Requires δ > 0 and
// a positive Radius (W must be bounded for the step size to exist).
func BST14(s sgd.Samples, f loss.Function, opt Options) (*Result, error) {
	o, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if o.Strategy != engine.Sequential || o.Workers > 1 {
		return nil, errors.New("baselines: BST14 injects per-iteration noise and is sequential-only; Strategy/Workers do not apply")
	}
	if err := o.Budget.Validate(); err != nil {
		return nil, err
	}
	if o.Budget.Pure() {
		return nil, errors.New("baselines: BST14 supports only (ε,δ)-DP with δ > 0 (advanced composition)")
	}
	if o.Rand == nil {
		return nil, errors.New("baselines: Options.Rand is required")
	}
	if o.Radius <= 0 {
		return nil, errors.New("baselines: BST14 requires a positive Radius (bounded hypothesis space)")
	}
	m := s.Len()
	if m == 0 {
		return nil, errors.New("baselines: empty training set")
	}
	p := f.Params()
	d := s.Dim()
	b := min(o.Batch, m)
	if err := o.reserve("bst14"); err != nil {
		return nil, err
	}
	T, sigma := bst14Noise(o.Budget.Epsilon, o.Budget.Delta, o.Passes, m, b)
	// G bounds the norm of the noisy summed batch gradient (Alg 4,
	// line 12): √(dσ² + b²L²).
	G := math.Sqrt(float64(d)*sigma*sigma + float64(b*b)*p.L*p.L)

	w := make([]float64, d)
	grad := make([]float64, d)
	fold := sgd.NewFold(f, d)
	z := make([]float64, d)
	draws := 0
	for t := 1; t <= T; t++ {
		if o.Ctx != nil {
			if err := o.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		vec.Zero(grad)
		for i := 0; i < b; i++ {
			// Line 10: i_t ~ [m] uniformly (with replacement).
			x, y := s.At(o.Rand.Intn(m))
			fold.Add(grad, w, x, y)
		}
		fold.Flush(grad, w)
		// Line 11: z ~ N(0, σ²·ι·I_d), ι = 1 for logistic regression.
		rng.GaussianVec(o.Rand, z, sigma)
		draws++
		vec.Axpy(grad, 1, z)
		var eta float64
		if p.StronglyConvex() {
			eta = 1 / (p.Gamma * float64(t)) // Alg 5, line 12
		} else {
			eta = 2 * o.Radius / (G * math.Sqrt(float64(t))) // Alg 4, line 12
		}
		vec.Axpy(w, -eta, grad)
		vec.ProjectBall(w, o.Radius)
	}
	return &Result{W: w, Updates: T, NoiseDraws: draws}, nil
}
