package core

import (
	"math/rand"

	"boltondp/internal/account"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
)

// Option is a functional option for TrainCtx, TrainDistributed and
// ContinualTrainer — the only way to configure a run. Options are
// applied in order over the zero configuration (one pass, batch 1,
// constant step, sequential execution), so later options win.
type Option func(*config)

// WithBudget sets the privacy budget the release is calibrated to:
// Delta = 0 gives pure ε-DP (Theorem 4 / 5), Delta > 0 gives (ε,δ)-DP
// via Gaussian noise (Theorem 6 / 7). Combined with WithAccountant, the
// budget is reserved against the accountant before training; alone, it
// is the stand-alone guarantee.
func WithBudget(b dp.Budget) Option {
	return func(c *config) { c.budget = b }
}

// WithAccountant attaches the privacy-budget accountant the run draws
// from. Without WithBudget the entire remaining budget is drawn; either
// way the spend is recorded in the accountant's ledger and an
// over-budget request fails closed before any training work.
func WithAccountant(a *account.Accountant) Option {
	return func(c *config) { c.accountant = a }
}

// WithSpendLabel names this run's entry in the accountant's ledger
// (default "train(<loss name>)").
func WithSpendLabel(label string) Option {
	return func(c *config) { c.spendLabel = label }
}

// WithPasses sets k, the number of passes over the data (default 1).
func WithPasses(k int) Option {
	return func(c *config) { c.passes = k }
}

// WithBatch sets the mini-batch size b (default 1). The convex
// constant-step sensitivity improves by the factor b (§3.2.3); for the
// other schedules see the batch-aware forms in internal/dp.
func WithBatch(b int) Option {
	return func(c *config) { c.batch = b }
}

// WithRadius constrains the hypothesis space to the L2 ball of radius
// r via projected updates (rule (7)); non-positive means unconstrained.
// The paper uses R = 1/λ for strongly convex losses.
func WithRadius(r float64) Option {
	return func(c *config) { c.radius = r }
}

// WithStrategy selects the execution-engine strategy (internal/engine)
// and its worker count: Sequential (the default — Algorithms 1–2
// verbatim), Sharded (workers disjoint shards with per-epoch model
// averaging; the noise is calibrated for the averaged model, and one
// worker executes exactly as Sequential), or Streaming (one in-order
// pass, the online scenario; more than one pass is an error). workers
// is only meaningful for Sharded — more than 1 with any other strategy
// is an error; pass 0 or 1 otherwise.
func WithStrategy(s engine.Strategy, workers int) Option {
	return func(c *config) { c.strategy = s; c.workers = workers }
}

// WithKernelWorkers sets the intra-batch parallelism degree of the SGD
// kernel (0 or 1 = sequential). The parallel kernel is bit-identical
// to the sequential one for every value, so — unlike WithStrategy's
// worker count — it never changes the sensitivity calculus or the
// result; it only changes how many goroutines compute it.
func WithKernelWorkers(w int) Option {
	return func(c *config) { c.kernelWorkers = w }
}

// WithRand sets the randomness source for permutations, worker seeds
// and the privacy noise. Required: the trainers refuse to run without
// an explicit source, so seeds stay reproducible by construction.
func WithRand(r *rand.Rand) Option {
	return func(c *config) { c.rand = r }
}

// WithProgress installs a per-epoch observability hook: fn is invoked
// after every epoch (pass, or sharded merge epoch) with the 1-based
// epoch number and the empirical risk of the current (pre-noise, NOT
// private) iterate, at the cost of one extra pass over the data per
// epoch. Output perturbation keeps the iterates on the trusted side
// until the single noisy release, so the hook is a debug tap: the values
// must not be released under the run's budget — they are for logging
// and live monitoring on the trusted side only. Incompatible with
// WithGradPerturb, whose iterates leave the trusted side as they are
// produced: an exact risk value would be an unaccounted release.
func WithProgress(fn func(epoch int, risk float64)) Option {
	return func(c *config) { c.progress = fn }
}

// WithAccounting names the composition rule ("simple", "advanced",
// "rdp") the run is priced under. Unset defers to the accountant's rule
// (or "simple" stand-alone; "rdp" for gradient perturbation, the rule
// that strategy exists for). With an accountant attached the two must
// agree — one composition authority per run; without one it governs the
// stand-alone calibration (only gradient perturbation consults it
// today).
func WithAccounting(rule string) Option {
	return func(c *config) { c.accounting = rule }
}

// WithGradPerturb switches training to the gradient-perturbation
// strategy: per-example gradients clipped to clip, Gaussian noise at
// noise multiplier noiseMultiplier (σ̃, in units of the 2·clip
// sensitivity) added to every summed mini-batch gradient, priced as T
// subsampled-Gaussian releases under the accounting rule (default rdp).
// Pass noiseMultiplier = 0 to solve the smallest σ̃ that fits the
// budget.
func WithGradPerturb(clip, noiseMultiplier float64) Option {
	return func(c *config) {
		c.gradPerturb = &gradPerturbSpec{clip: clip, noiseMultiplier: noiseMultiplier}
	}
}

// WithConvexity pins TrainCtx/TrainDistributed dispatch to one of the
// paper's two algorithms. The default (convexityAuto) derives the algorithm from
// the loss: Algorithm 2 when it is strongly convex, Algorithm 1
// otherwise. Forcing ConvexityConvex on a strongly convex loss is legal
// (at strictly more noise); forcing ConvexityStronglyConvex on a merely
// convex loss fails. Ignored by gradient perturbation.
func WithConvexity(v Convexity) Option {
	return func(c *config) { c.convexity = v }
}

// WithWarmStart starts the SGD iterate at w0 (copied) instead of the
// origin. The sensitivity bounds hold for any data-independent common
// start, and a previously released private model is data-independent by
// post-processing (which is exactly how ContinualTrainer uses it) —
// pass only such vectors, never an unreleased iterate. w0 must have the
// data's dimension; nil or empty means the origin.
func WithWarmStart(w0 []float64) Option {
	return func(c *config) {
		if len(w0) == 0 {
			c.w0 = nil
			return
		}
		c.w0 = append([]float64(nil), w0...)
	}
}

// WithStep selects the convex step-size family of Corollaries 1–3
// (default StepConstant, η = 1/√m clamped to 2/β). Ignored by
// Algorithm 2, which always steps at min(1/β, 1/(γt)).
func WithStep(kind StepKind) Option {
	return func(c *config) { c.step = kind }
}

// WithAverage releases the uniform iterate average instead of the last
// iterate (Lemma 10: never hurts sensitivity).
func WithAverage() Option {
	return func(c *config) { c.average = true }
}

// WithAverageTail releases the average of the last ⌈ln T⌉ iterates —
// the other scheme Lemma 10 covers. Mutually exclusive with
// WithAverage; not supported under Sharded execution.
func WithAverageTail() Option {
	return func(c *config) { c.averageTail = true }
}

// WithFreshPerm resamples the permutation every pass (§3.2.3; the
// sensitivity analysis is unchanged).
func WithFreshPerm() Option {
	return func(c *config) { c.freshPerm = true }
}

// WithPaperBatchSensitivity calibrates Algorithm 2's noise to the
// paper's Δ₂ = 2L/(γmb) instead of the sound b-independent 2L/(γm)
// (see dp.SensitivityStronglyConvex for why that bound is violated at
// b > 1). For reproducing the paper's figures only; do not rely on it
// for real privacy.
func WithPaperBatchSensitivity() Option {
	return func(c *config) { c.paperBatchSensitivity = true }
}
