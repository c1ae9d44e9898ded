// Package core implements the paper's primary contribution: the bolt-on
// differentially private PSGD algorithms — Algorithm 1 (convex) and
// Algorithm 2 (strongly convex) — together with all the extensions of
// §3.2.3 (mini-batching, model averaging, fresh permutations,
// constrained optimization, (ε,δ)-DP via Gaussian noise) and the three
// convex step-size families of Corollaries 1–3.
//
// The defining property of the approach is preserved structurally: this
// package calls the execution engine strictly as a black box
// (engine.Run with no GradNoise hook) and perturbs only the returned
// model, with noise calibrated by the sensitivity calculus in
// internal/dp. The engine strategy — sequential, sharded across
// workers, or streaming — is a run-time choice (WithStrategy), and
// the calibration here is the only place that has to know about it:
// sharded runs evaluate the per-shard bound at the smallest shard and
// divide by the worker count (see dp.SensitivityShardedStronglyConvex),
// streaming runs are pinned to a single pass. Swapping in any other
// conforming SGD implementation — e.g. the Bismarck-style in-RDBMS
// engine in internal/bismarck — requires no change here, which is the
// paper's "ease of integration" claim in code form.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"boltondp/internal/account"
	"boltondp/internal/dist"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/rng"
	"boltondp/internal/sgd"
)

// StepKind selects the convex step-size family (Table 4 + Cors 2–3).
type StepKind int

const (
	// StepConstant is η_t = η (Algorithm 1; default η = 1/√m).
	StepConstant StepKind = iota
	// StepDecreasing is η_t = 2/(β(t+m^c)) (Corollary 2).
	StepDecreasing
	// StepSqrt is η_t = 2/(β(√t+m^c)) (Corollary 3).
	StepSqrt
)

// String implements fmt.Stringer.
func (k StepKind) String() string {
	switch k {
	case StepConstant:
		return "constant"
	case StepDecreasing:
		return "decreasing"
	case StepSqrt:
		return "sqrt"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// Convexity selects which of the paper's two algorithms a TrainCtx run
// uses. The zero value (convexityAuto) derives it from the loss — the
// right choice everywhere outside reproduction studies that need
// Algorithm 1's noise on a strongly convex objective.
type Convexity int

const (
	// convexityAuto derives the algorithm from the loss: Algorithm 2
	// when f.Params().StronglyConvex(), Algorithm 1 otherwise.
	convexityAuto Convexity = iota
	// ConvexityConvex forces Algorithm 1 (the convex trainer). Legal
	// for any convex loss, including strongly convex ones — Algorithm 2
	// would give strictly less noise there, which is exactly why a
	// reproduction might force the comparison.
	ConvexityConvex
	// ConvexityStronglyConvex forces Algorithm 2; the run fails if the
	// loss is not strongly convex (γ = 0).
	ConvexityStronglyConvex
)

// String implements fmt.Stringer.
func (c Convexity) String() string {
	switch c {
	case convexityAuto:
		return "auto"
	case ConvexityConvex:
		return "convex"
	case ConvexityStronglyConvex:
		return "strongly-convex"
	default:
		return fmt.Sprintf("Convexity(%d)", int(c))
	}
}

// config is the resolved configuration of one training run: the zero
// value with every Option applied in order. Its fields are exactly the
// independently settable training values — each is written by the one
// With* option that documents it (options.go), and there is no other
// way to configure a run.
type config struct {
	budget     dp.Budget           // WithBudget; zero with an accountant = draw the remainder
	accountant *account.Accountant // WithAccountant
	accounting string              // WithAccounting
	spendLabel string              // WithSpendLabel
	rand       *rand.Rand          // WithRand (required)

	passes int       // WithPasses: k (default 1)
	batch  int       // WithBatch: b (default 1); plan clamps it to the per-shard size
	radius float64   // WithRadius
	w0     []float64 // WithWarmStart

	convexity             Convexity        // WithConvexity
	step                  StepKind         // WithStep
	paperBatchSensitivity bool             // WithPaperBatchSensitivity
	gradPerturb           *gradPerturbSpec // WithGradPerturb

	average     bool // WithAverage
	averageTail bool // WithAverageTail
	freshPerm   bool // WithFreshPerm

	strategy      engine.Strategy // WithStrategy
	workers       int             // WithStrategy: shard count under Sharded
	kernelWorkers int             // WithKernelWorkers

	progress func(epoch int, risk float64) // WithProgress
}

// stepOffsetC is c, the m^c offset exponent of the StepDecreasing and
// StepSqrt families (Corollaries 2–3; the paper's experiments fix 0.5).
const stepOffsetC = 0.5

// Result reports one private training run.
type Result struct {
	// W is the differentially private model — the only field safe to
	// release under the stated budget.
	W []float64

	// NonPrivate is the pre-noise SGD output. It is NOT private and is
	// exposed only so experiments can report the accuracy cost of the
	// perturbation. Never publish it.
	NonPrivate []float64

	// Sensitivity is the L2-sensitivity Δ₂ the noise was calibrated to.
	Sensitivity float64

	// NoiseNorm is ‖κ‖, the realized noise magnitude.
	NoiseNorm float64

	// Updates and Passes echo the underlying engine run. Under the
	// Sharded strategy Updates is summed across workers and Passes
	// counts merge epochs.
	Updates int
	Passes  int
}

// newConfig applies opts in order over the zero config.
func newConfig(opts []Option) *config {
	c := new(config)
	for _, fn := range opts {
		fn(c)
	}
	return c
}

// resolve draws a zero budget from the accountant, validates, and fills
// the defaults that do not depend on the data (one pass, batch 1).
func (c *config) resolve() error {
	if err := c.fillBudget(); err != nil {
		return err
	}
	if err := c.validate(); err != nil {
		return err
	}
	if c.passes == 0 {
		c.passes = 1
	}
	if c.batch == 0 {
		c.batch = 1
	}
	return nil
}

func (c *config) validate() error {
	if err := c.budget.Validate(); err != nil {
		return err
	}
	if c.passes < 0 || c.batch < 0 {
		return fmt.Errorf("core: negative passes (%d) or batch (%d)", c.passes, c.batch)
	}
	if c.rand == nil {
		return errors.New("core: WithRand is required")
	}
	if c.workers < 0 {
		return fmt.Errorf("core: negative workers (%d)", c.workers)
	}
	if c.kernelWorkers < 0 {
		return fmt.Errorf("core: negative kernel workers (%d)", c.kernelWorkers)
	}
	if c.workers > 1 && c.strategy != engine.Sharded {
		return fmt.Errorf("core: %d workers require the Sharded strategy, got %v", c.workers, c.strategy)
	}
	if c.convexity < convexityAuto || c.convexity > ConvexityStronglyConvex {
		return fmt.Errorf("core: unknown Convexity %v", c.convexity)
	}
	if _, err := c.accountingRule(); err != nil {
		return err
	}
	return nil
}

// fillBudget resolves a zero budget against the accountant (draw
// everything that remains). Must run before validate, which rejects a
// zero budget. An exhausted accountant fails closed here with
// ErrOverdraw — the same error identity every other over-budget path
// reports — rather than leaking a zero-ε validation error.
func (c *config) fillBudget() error {
	if c.accountant == nil || c.budget != (dp.Budget{}) {
		return nil
	}
	rem := c.accountant.Remaining()
	if rem.Epsilon <= 0 {
		return fmt.Errorf("%w: drawing the remainder of an exhausted accountant (total %v)",
			account.ErrOverdraw, c.accountant.Total())
	}
	c.budget = rem
	return nil
}

// plan is the one place a configuration becomes a step schedule and the
// L2-sensitivity Δ₂ its output noise is calibrated to; TrainCtx,
// TrainDistributed and gradient perturbation all price their run here.
// m is the dataset size. The schedule comes back as a dist.StepSpec —
// the resolved numbers of an sgd schedule constructor — so a local run
// (spec.Build()) and a distributed one (the wire) consume one value.
//
// Algorithm 2 (ConvexityStronglyConvex, or convexityAuto on a γ > 0
// loss) steps at η_t = min(1/β, 1/(γt)) with Δ₂ = 2L/(γm) (Lemma 8,
// sound batch-aware form) — independent of k (§4.3 "the number of
// passes k is oblivious to private SGD").
// Algorithm 1 runs the selected convex family:
//
//	Δ₂ = 2kLη/b                               (constant, Corollary 1)
//	Δ₂ = (4L/β)(1/(b·m^c) + ln k/m)           (decreasing, Corollary 2, batch-aware)
//	Δ₂ = (4L/(bβ))Σ_j 1/√(j·m/b+1+m^c)        (square-root, Corollary 3, batch-aware)
//
// with η = 1/√m (Table 4) clamped to 2/β, the validity boundary of
// Lemma 1.1 — the clamped value enters Δ₂ too, so privacy never
// degrades. Gradient perturbation takes Algorithm 1's schedule
// unchanged and Δ₂ = 2·clip: the clip, not the step size, bounds its
// per-step sensitivity.
//
// Under the Sharded strategy the schedule and the bounds are evaluated
// at the smallest shard (the largest per-shard bound) and divided by the
// worker count — the averaged-model sensitivity, which for Algorithm 2
// and equal shards is exactly the sequential 2L/(γm): parallelism is
// privacy-free (the paper's multicore punchline). Streaming runs are
// pinned to one pass. plan also clamps c.batch to that size, mirroring
// the engine's clamp, so Δ₂ is never over-divided and every executor
// sees the b the noise was calibrated for.
func (c *config) plan(f loss.Function, m int) (dist.StepSpec, float64, error) {
	var spec dist.StepSpec
	if m == 0 {
		return spec, 0, errors.New("core: empty training set")
	}
	if c.strategy == engine.Streaming && c.passes != 1 {
		return spec, 0, fmt.Errorf("core: Streaming execution is single-pass; got %d passes (leave WithPasses unset or at 1)", c.passes)
	}
	p := f.Params()
	strongly := c.gradPerturb == nil &&
		(c.convexity == ConvexityStronglyConvex || c.convexity == convexityAuto && p.StronglyConvex())
	if strongly && !p.StronglyConvex() {
		return spec, 0, fmt.Errorf("core: loss %q is not strongly convex (γ=0); use the convex algorithm (WithConvexity(ConvexityConvex))", f.Name())
	}
	n, workers := m, 1
	if c.strategy == engine.Sharded && c.workers > 1 {
		var err error
		if n, err = engine.ShardSize(m, c.workers); err != nil {
			return spec, 0, err
		}
		workers = c.workers
	}
	c.batch = min(c.batch, n)

	if strongly {
		spec = dist.StepSpec{Kind: dist.StepStronglyConvex, Beta: p.Beta, Gamma: p.Gamma}
		if c.paperBatchSensitivity {
			return spec, dp.SensitivityStronglyConvexPaperBatch(p.L, p.Gamma, n, c.batch) / float64(workers), nil
		}
		return spec, dp.SensitivityShardedStronglyConvex(p.L, p.Gamma, n, workers), nil
	}
	var sens float64
	switch c.step {
	case StepConstant:
		eta := math.Min(1/math.Sqrt(float64(n)), 2/p.Beta)
		spec = dist.StepSpec{Kind: dist.StepConstant, Eta: eta}
		sens = dp.SensitivityShardedConvexConstant(p.L, eta, c.passes, c.batch, workers)
	case StepDecreasing:
		spec = dist.StepSpec{Kind: dist.StepDecreasing, Beta: p.Beta, M: n, C: stepOffsetC}
		sens = dp.SensitivityShardedConvexDecreasing(p.L, p.Beta, c.passes, n, c.batch, stepOffsetC, workers)
	case StepSqrt:
		spec = dist.StepSpec{Kind: dist.StepSqrt, Beta: p.Beta, M: n, C: stepOffsetC}
		sens = dp.SensitivityShardedConvexSqrt(p.L, p.Beta, c.passes, n, c.batch, stepOffsetC, workers)
	default:
		return spec, 0, fmt.Errorf("core: unknown StepKind %v", c.step)
	}
	if c.gradPerturb != nil {
		sens = 2 * c.gradPerturb.clip
	}
	return spec, sens, nil
}

// reserve debits the run's budget from its accountant, when one is
// attached. Called after all parameter validation and before the engine
// touches a single row, so an over-budget request fails closed with no
// training work done. Reservations are never refunded: the ledger
// records intent to release, the conservative reading of simple
// composition (a failed run after this point still forfeits its spend).
//
// The reservation is typed so the accountant's composition rule can
// price it tightly: a pure release as an ε-DP event (advanced/RDP give
// it a sublinear composed cost), an approximate one as the Gaussian
// mechanism at the multiplier the calibration in dp.Budget.Perturb
// actually uses. Under the simple rule both downgrade to the plain
// (ε, δ) entry this method always recorded — bit-identical ledgers.
func (c *config) reserve(f loss.Function) error {
	if c.accountant == nil {
		return nil
	}
	label := c.spendLabel
	if label == "" {
		label = "train(" + f.Name() + ")"
	}
	if c.budget.Pure() {
		return c.accountant.ReservePure(label, c.budget.Epsilon)
	}
	return c.accountant.ReserveGaussian(label,
		rng.GaussianSigma(1, c.budget.Epsilon, c.budget.Delta), 1, c.budget)
}

// run executes the planned SGD on the in-process engine, strictly as a
// black box; gp is non-nil only for gradient perturbation.
func (c *config) run(ctx context.Context, s sgd.Samples, f loss.Function, step sgd.Schedule, gp *sgd.GradPerturb) (*engine.Result, error) {
	return engine.Run(s, engine.Config{
		Strategy: c.strategy,
		Workers:  c.workers,
		SGD: sgd.Config{
			Loss:          f,
			Step:          step,
			Passes:        c.passes,
			Batch:         c.batch,
			Radius:        c.radius,
			Average:       c.average,
			AverageTail:   c.averageTail,
			FreshPerm:     c.freshPerm,
			KernelWorkers: c.kernelWorkers,
			Rand:          c.rand,
			Ctx:           ctx,
			Progress:      c.progress,
			W0:            c.w0,
			GradPerturb:   gp,
		},
	})
}

// perturb applies the output perturbation step (lines 3–5 of
// Algorithms 1–2) to the black-box SGD result.
func (c *config) perturb(res *sgd.Result, sens float64) (*Result, error) {
	model := res.Model()
	private, err := c.budget.Perturb(c.rand, model, sens)
	if err != nil {
		return nil, err
	}
	var noise float64
	for i := range model {
		d := private[i] - model[i]
		noise += d * d
	}
	return &Result{
		W:           private,
		NonPrivate:  model,
		Sensitivity: sens,
		NoiseNorm:   math.Sqrt(noise),
		Updates:     res.Updates,
		Passes:      res.Passes,
	}, nil
}

// TrainCtx is the training entry point: it runs the bolt-on private
// PSGD appropriate for the loss (or the one forced with WithConvexity,
// or gradient perturbation with WithGradPerturb), cancellable through
// ctx (checked once per mini-batch update by every execution strategy;
// the run returns ctx.Err() within one epoch slice of cancellation or
// deadline expiry).
//
//	acct, _ := account.New(dp.Budget{Epsilon: 1})
//	res, err := core.TrainCtx(ctx, train, f,
//		core.WithAccountant(acct),
//		core.WithPasses(10), core.WithBatch(50), core.WithRadius(1/lambda),
//		core.WithRand(r))
//
// It is the only way to train in-process; TrainDistributed and
// ContinualTrainer take the same options.
func TrainCtx(ctx context.Context, s sgd.Samples, f loss.Function, opts ...Option) (*Result, error) {
	c := newConfig(opts)
	if err := c.resolve(); err != nil {
		return nil, err
	}
	if c.gradPerturb != nil {
		return c.trainGradPerturb(ctx, s, f)
	}
	spec, sens, err := c.plan(f, s.Len())
	if err != nil {
		return nil, err
	}
	step, err := spec.Build()
	if err != nil {
		return nil, err
	}
	if err := c.reserve(f); err != nil {
		return nil, err
	}
	res, err := c.run(ctx, s, f, step, nil)
	if err != nil {
		return nil, err
	}
	return c.perturb(&res.Result, sens)
}
