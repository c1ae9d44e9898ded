package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"boltondp/internal/account/compose"
	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/eval"
	"boltondp/internal/loss"
)

func init() {
	Registry["accounting"] = Accounting
}

// Accounting measures what the pluggable composition rules buy (DESIGN
// §11): the ε each rule charges for the standard KDD subsampled-
// Gaussian workload (T = 1000 steps, b = 50, σ̃ = 1, δ = 1e-6 — the
// acceptance workload: rdp must come in under half of simple), the
// noise multiplier each rule needs to fit a fixed budget, and a
// train-and-score comparison of output perturbation vs gradient
// perturbation under the same (ε, δ) on the protein task.
func Accounting(cfg Config) error {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))

	// Part 1: ε spent per rule on the fixed KDD-sized workload. The row
	// count is the full-scale KDD m regardless of cfg.Scale — this is
	// arithmetic on the accountant, not a training run.
	const (
		kddRows  = 543423.0
		kddBatch = 50.0
		kddSteps = 1000
		kddSigma = 1.0
		kddDelta = 1e-6
	)
	q := kddBatch / kddRows
	fmt.Fprintf(cfg.Out, "Composition-rule pricing, KDD workload (m=%.0f b=%.0f T=%d σ̃=%g δ=%g):\n",
		kddRows, kddBatch, kddSteps, kddSigma, kddDelta)
	tw := newTab(cfg)
	fmt.Fprintf(tw, "rule\tε spent\tvs simple\n")
	var simpleEps float64
	for _, rule := range compose.Rules() {
		price, err := compose.PriceSGM(rule, kddSigma, q, kddSteps, dp.Budget{Epsilon: 1, Delta: kddDelta})
		if err != nil {
			return err
		}
		if rule == compose.RuleSimple {
			simpleEps = price.Epsilon
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%.2f×\n", rule, price.Epsilon, price.Epsilon/simpleEps)
	}
	tw.Flush()

	// Part 2: the noise multiplier each rule needs for the same workload
	// to fit ε = 2 — smaller is a directly usable utility win.
	budget := dp.Budget{Epsilon: 2, Delta: kddDelta}
	fmt.Fprintf(cfg.Out, "\nSolved noise multiplier σ̃ to fit %v over the same T, q:\n", budget)
	tw = newTab(cfg)
	fmt.Fprintf(tw, "rule\tσ̃\n")
	for _, rule := range compose.Rules() {
		sigma, err := compose.SolveSGMSigma(rule, q, kddSteps, budget)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.4f\n", rule, sigma)
	}
	tw.Flush()

	// Part 3: output perturbation vs gradient perturbation at the same
	// budget on the protein task (strongly convex logistic).
	train, test := data.ProteinSim(r, cfg.Scale)
	lambda := compLambda(1e-4, cfg.Scale)
	f := loss.NewLogistic(lambda, 0)
	b := dp.Budget{Epsilon: 1, Delta: deltaFor(train.Len())}
	passes := 10
	if cfg.Quick {
		passes = 3
	}
	fmt.Fprintf(cfg.Out, "\nProtein (m=%d), budget %v, k=%d, b=50: output vs gradient perturbation\n",
		train.Len(), b, passes)
	tw = newTab(cfg)
	fmt.Fprintf(tw, "strategy\taccounting\ttest acc\n")

	outRes, err := core.TrainCtx(context.Background(), train, f,
		core.WithBudget(b), core.WithPasses(passes), core.WithBatch(50), core.WithRadius(1/lambda),
		core.WithRand(rand.New(rand.NewSource(cfg.Seed+1))))
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "output-perturb\tsimple\t%.4f\n",
		eval.Accuracy(test, &eval.Linear{W: outRes.W}))

	gpRes, err := core.TrainCtx(context.Background(), train, f,
		core.WithBudget(b), core.WithPasses(passes), core.WithBatch(50), core.WithRadius(1/lambda),
		core.WithGradPerturb(1, 0),
		core.WithRand(rand.New(rand.NewSource(cfg.Seed+1))))
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "gradperturb\trdp\t%.4f\n",
		eval.Accuracy(test, &eval.Linear{W: gpRes.W}))
	tw.Flush()
	return nil
}
