package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/eval"
)

// Ablations: experiments the paper motivates but does not plot, probing
// the design choices DESIGN.md calls out. Registered alongside the
// paper artifacts under "ablation-*" IDs.

func init() {
	Registry["ablation-steps"] = ablationStepFamilies
	Registry["ablation-averaging"] = ablationAveraging
	Registry["ablation-noise"] = ablationNoiseDimension
	Registry["ablation-freshperm"] = ablationFreshPermutation
}

// ablationStepFamilies compares the three convex step-size families of
// Corollaries 1–3 at equal privacy: the decreasing and square-root
// schedules buy a k-independent (or slower-growing) sensitivity at the
// price of smaller steps. The run prints the calibrated Δ₂ and the test
// accuracy per family and pass count.
func ablationStepFamilies(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "== Ablation: convex step families (Cor 1–3), ε-DP (Protein-sim) ==")
	root := rand.New(rand.NewSource(cfg.Seed))
	train, test := data.ProteinSim(root, cfg.Scale)
	f, _ := lossFor(false, 0, false)
	w := newTab(cfg)
	fmt.Fprintln(w, "step family\tpasses\tΔ₂\taccuracy")
	passes := []int{1, 5, 20}
	if cfg.Quick {
		passes = []int{1, 5}
	}
	for _, kind := range []core.StepKind{core.StepConstant, core.StepDecreasing, core.StepSqrt} {
		for _, k := range passes {
			res, err := core.TrainCtx(context.Background(), train, f,
				core.WithConvexity(core.ConvexityConvex),
				core.WithBudget(dp.Budget{Epsilon: 0.4}),
				core.WithPasses(k), core.WithBatch(50), core.WithStep(kind), core.WithRand(root))
			if err != nil {
				return err
			}
			acc := eval.Accuracy(test, &eval.Linear{W: res.W})
			fmt.Fprintf(w, "%v\t%d\t%.6f\t%.4f\n", kind, k, res.Sensitivity, acc)
		}
	}
	return w.Flush()
}

// ablationAveraging compares the model returned by Algorithm 2 under
// the three release choices Lemma 10 covers: the last iterate, the
// uniform iterate average and the tail (last ⌈ln T⌉) average — all at
// identical sensitivity, so any accuracy difference is pure
// optimization behavior.
func ablationAveraging(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "== Ablation: model averaging schemes (Lemma 10), strongly convex ε-DP (Covtype-sim) ==")
	root := rand.New(rand.NewSource(cfg.Seed))
	train, test := data.CovtypeSim(root, cfg.Scale)
	lambda := compLambda(1e-4, cfg.Scale)
	f, radius := lossFor(true, lambda, false)
	w := newTab(cfg)
	fmt.Fprintln(w, "release\teps\taccuracy")
	for _, eps := range epsGrid(false, cfg.Quick) {
		for _, mode := range []string{"last", "average", "tail"} {
			opts := []core.Option{
				core.WithConvexity(core.ConvexityStronglyConvex),
				core.WithBudget(dp.Budget{Epsilon: eps}),
				core.WithPasses(10), core.WithBatch(50), core.WithRadius(radius), core.WithRand(root),
				core.WithPaperBatchSensitivity(), // figure parity
			}
			switch mode {
			case "average":
				opts = append(opts, core.WithAverage())
			case "tail":
				opts = append(opts, core.WithAverageTail())
			}
			res, err := core.TrainCtx(context.Background(), train, f, opts...)
			if err != nil {
				return err
			}
			acc := eval.Accuracy(test, &eval.Linear{W: res.W})
			fmt.Fprintf(w, "%s\t%g\t%.4f\n", mode, eps, acc)
		}
	}
	return w.Flush()
}

// ablationFreshPermutation compares shuffle-once PSGD against
// resampling the permutation every pass (§3.2.3 "Fresh Permutation at
// Each Pass": the sensitivity analysis is unchanged, so any accuracy
// difference at equal ε is pure optimization variance).
func ablationFreshPermutation(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "== Ablation: shuffle-once vs fresh permutation per pass, strongly convex ε-DP (Protein-sim) ==")
	root := rand.New(rand.NewSource(cfg.Seed))
	train, test := data.ProteinSim(root, cfg.Scale)
	lambda := compLambda(1e-4, cfg.Scale)
	f, radius := lossFor(true, lambda, false)
	w := newTab(cfg)
	fmt.Fprintln(w, "permutation\teps\taccuracy\tΔ₂")
	for _, eps := range epsGrid(false, cfg.Quick) {
		for _, fresh := range []bool{false, true} {
			opts := []core.Option{
				core.WithConvexity(core.ConvexityStronglyConvex),
				core.WithBudget(dp.Budget{Epsilon: eps}),
				core.WithPasses(10), core.WithBatch(50), core.WithRadius(radius), core.WithRand(root),
				core.WithPaperBatchSensitivity(), // figure parity
			}
			name := "shuffle-once"
			if fresh {
				name = "fresh-per-pass"
				opts = append(opts, core.WithFreshPerm())
			}
			res, err := core.TrainCtx(context.Background(), train, f, opts...)
			if err != nil {
				return err
			}
			acc := eval.Accuracy(test, &eval.Linear{W: res.W})
			fmt.Fprintf(w, "%s\t%g\t%.4f\t%.6f\n", name, eps, acc, res.Sensitivity)
		}
	}
	return w.Flush()
}

// ablationNoiseDimension contrasts the two mechanisms' dimension
// dependence (Theorems 1–3): pure ε-DP noise grows like d·ln d while
// the Gaussian mechanism grows like √d — the reason §4.3 random-
// projects MNIST before ε-DP training. Reports the mean realized ‖κ‖
// at fixed sensitivity across dimensions.
func ablationNoiseDimension(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "== Ablation: noise norm vs dimension at Δ₂=0.01, ε=0.1 (δ=1e-6 for Gaussian) ==")
	root := rand.New(rand.NewSource(cfg.Seed))
	w := newTab(cfg)
	fmt.Fprintln(w, "d\tpure ε-DP ‖κ‖\tGaussian ‖κ‖\ttheory pure (dΔ/ε)\ttheory gauss (σ√d)")
	dims := []int{10, 50, 200, 784}
	if cfg.Quick {
		dims = []int{10, 784}
	}
	const sens, eps, delta = 0.01, 0.1, 1e-6
	pure := dp.Budget{Epsilon: eps}
	gauss := dp.Budget{Epsilon: eps, Delta: delta}
	trials := 200
	if cfg.Quick {
		trials = 50
	}
	for _, d := range dims {
		zero := make([]float64, d)
		meanNorm := func(b dp.Budget) (float64, error) {
			var sum float64
			for i := 0; i < trials; i++ {
				out, err := b.Perturb(root, zero, sens)
				if err != nil {
					return 0, err
				}
				var n float64
				for _, v := range out {
					n += v * v
				}
				sum += math.Sqrt(n)
			}
			return sum / float64(trials), nil
		}
		pn, err := meanNorm(pure)
		if err != nil {
			return err
		}
		gn, err := meanNorm(gauss)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%.4f\t%.4f\t%.4f\t%.4f\n",
			d, pn, gn, pure.NoiseScale(d, sens), gauss.NoiseScale(d, sens))
	}
	return w.Flush()
}
