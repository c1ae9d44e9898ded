package core

import (
	"context"
	"errors"
	"fmt"

	"boltondp/internal/account/compose"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
)

// gradPerturbSpec configures the gradient-perturbation training
// strategy (DP-SGD, selected with WithGradPerturb): per-example l2
// clipping to clip plus Gaussian noise on every summed mini-batch
// gradient, with the privacy cost accounted per step through the
// subsampled-Gaussian machinery of internal/account/compose instead of
// a single output-perturbation release. It is the other half of the
// private-ERM design space next to the paper's bolt-on output
// perturbation: noisier per step but loss-agnostic (no
// Lipschitz/smoothness constants enter the calibration — the clip
// bounds sensitivity by force) and far cheaper under Rényi accounting.
type gradPerturbSpec struct {
	// clip is the per-example gradient clipping norm C > 0. The l2
	// sensitivity of each clipped batch sum under replace-one adjacency
	// is 2C, which is what the noise is calibrated against.
	clip float64

	// noiseMultiplier is σ̃, the per-step Gaussian noise scale in units
	// of the sensitivity (the per-coordinate noise stddev on a summed
	// batch gradient is 2·clip·σ̃). Zero means "solve it from the
	// budget": the smallest σ̃ whose T steps price within the budget
	// under the accounting rule, found by bisection
	// (compose.SolveSGMSigma).
	noiseMultiplier float64
}

// trainGradPerturb trains with per-step gradient perturbation (DP-SGD)
// under the run's budget:
//
//	w_{t+1} = Π_C( w_t − η_t · (Σ_{i∈B_t} clip_C(∇ℓ_i(w_t)) + N(0, (2C·σ̃)²·I)) / (q·m) )
//
// for T = passes·⌊m/b⌋ steps, each over an INDEPENDENT Poisson
// subsample B_t that includes every example with probability q = b/m
// (sgd.GradPerturb.Poisson) — the sampling scheme the
// subsampled-Gaussian bounds assume. The run is priced as T invocations
// of the subsampled Gaussian mechanism at sampling fraction q under the
// accounting rule (WithAccounting; default rdp — the rule this
// strategy exists for). Deterministic permutation batches would visit
// every example exactly once per pass and admit NO amplification by
// subsampling, so the engine's usual batching is replaced, not reused.
// The spend is reserved against the accountant — or, without one,
// trial-priced against the budget — BEFORE any row is touched, so an
// over-budget run fails closed with zero work done.
//
// Unlike output perturbation every iterate is already private (each
// update is a noisy release and the trajectory is post-processing), so
// Result.NonPrivate is nil and WithAverage / WithAverageTail act on
// private iterates. The strategy is Sequential-only (the
// subsampled-Gaussian accounting assumes one update stream), and every
// data-dependent side channel is rejected: the Progress hook would
// release the exact per-pass empirical risk outside the accounted
// budget. FreshPerm does not apply — there is no permutation to
// resample.
func (c *config) trainGradPerturb(ctx context.Context, s sgd.Samples, f loss.Function) (*Result, error) {
	if c.strategy != engine.Sequential {
		return nil, fmt.Errorf("core: gradient perturbation is Sequential-only (per-step accounting assumes one update stream), got %v", c.strategy)
	}
	if c.progress != nil {
		return nil, errors.New("core: gradient perturbation rejects the Progress hook — the per-pass empirical risk is an exact, unaccounted data-dependent release (only the noisy iterates are covered by the budget)")
	}
	if c.freshPerm {
		return nil, errors.New("core: gradient perturbation draws an independent Poisson batch every step; FreshPerm does not apply")
	}
	if c.budget.Delta <= 0 {
		return nil, fmt.Errorf("core: gradient perturbation is a Gaussian mechanism and needs δ > 0, got %v", c.budget)
	}
	m := s.Len()
	spec, sens, err := c.plan(f, m)
	if err != nil {
		return nil, err
	}
	step, err := spec.Build()
	if err != nil {
		return nil, err
	}

	// The pricing mirrors the engine's Poisson batching exactly: ⌊m/b⌋
	// updates per pass, each an independent Poisson subsample at
	// inclusion probability q = b/m (expected batch size b).
	steps := c.passes * max(m/c.batch, 1)
	q := float64(c.batch) / float64(m)

	rule, err := c.accountingRule()
	if err != nil {
		return nil, err
	}
	sigma := c.gradPerturb.noiseMultiplier
	if sigma == 0 {
		sigma, err = compose.SolveSGMSigma(rule, q, steps, c.budget)
		if err != nil {
			return nil, err
		}
	} else if sigma < 0 {
		return nil, fmt.Errorf("core: NoiseMultiplier must be >= 0, got %v", sigma)
	}

	// Fail closed before any row access: reserve the run against the
	// accountant, or — stand-alone — refuse a (σ̃, q, T) whose composed
	// price exceeds the stated budget.
	if c.accountant != nil {
		label := c.spendLabel
		if label == "" {
			label = "gradperturb(" + f.Name() + ")"
		}
		if err := c.accountant.ReserveSubsampledGaussian(label, sigma, q, steps, c.budget.Delta); err != nil {
			return nil, err
		}
	} else {
		price, err := compose.PriceSGM(rule, sigma, q, steps, c.budget)
		if err != nil {
			return nil, err
		}
		if price.Epsilon > c.budget.Epsilon*(1+1e-9) {
			return nil, fmt.Errorf("core: gradperturb run prices at %v under rule %s, over budget %v (raise the noise multiplier or the budget)",
				price, rule, c.budget)
		}
	}

	res, err := c.run(ctx, s, f, step, &sgd.GradPerturb{
		Clip:    c.gradPerturb.clip,
		Sigma:   sens * sigma,
		Rand:    c.rand,
		Poisson: true,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		W: res.Model(),
		// Every iterate is private; there is no non-private model to
		// withhold and no single output draw to report a norm for.
		NonPrivate:  nil,
		Sensitivity: sens,
		NoiseNorm:   0,
		Updates:     res.Updates,
		Passes:      res.Passes,
	}, nil
}

// accountingRule resolves the composition rule a run calibrates and
// reserves under: WithAccounting's when set (which must then agree with
// the accountant's rule, if one is attached), else the accountant's own
// rule, else — for gradient perturbation only — rdp, the rule the
// strategy exists for.
func (c *config) accountingRule() (string, error) {
	rule := compose.Normalize(c.accounting)
	if c.accounting == "" {
		if c.accountant != nil {
			return c.accountant.Rule(), nil
		}
		if c.gradPerturb != nil {
			return compose.RuleRDP, nil
		}
		return rule, nil
	}
	if _, err := compose.New(rule); err != nil {
		return "", err
	}
	if c.accountant != nil && c.accountant.Rule() != rule {
		return "", fmt.Errorf("core: accounting rule %q disagrees with the accountant's rule %q — one composition authority per run",
			rule, c.accountant.Rule())
	}
	return rule, nil
}
