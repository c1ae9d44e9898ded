package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/eval"
	"boltondp/internal/plot"
	"boltondp/internal/sgd"
	"boltondp/internal/tuning"
)

// classifierFor trains a classifier on train under spec: a binary
// linear model, or a one-vs-all model with the budget split across
// classes for multiclass data (§4.3).
func classifierFor(train *data.Dataset, spec trainSpec) (eval.Classifier, error) {
	if train.Classes <= 2 {
		w, err := trainBinary(train, spec)
		if err != nil {
			return nil, err
		}
		return &eval.Linear{W: w}, nil
	}
	sub := spec
	sub.budget = spec.budget.Split(train.Classes)
	return eval.TrainOneVsAllCtx(context.Background(), train, train.Classes, func(view sgd.Samples, class int) ([]float64, error) {
		return trainBinary(view, sub)
	})
}

// namedDataset pairs a generator with its figure label.
type namedDataset struct {
	name string
	gen  func(r *rand.Rand, scale float64) (train, test *data.Dataset)
}

var figure3Datasets = []namedDataset{
	{"MNIST-sim", mnistProjected},
	{"Protein-sim", data.ProteinSim},
	{"Covtype-sim", data.CovtypeSim},
}

var figure8Datasets = []namedDataset{
	{"HIGGS-sim", func(r *rand.Rand, scale float64) (*data.Dataset, *data.Dataset) {
		// HIGGS is 10.5M rows at scale 1; the runner applies a further
		// 1/10 so the default CLI run stays laptop-sized. Pass a larger
		// -scale to approach the paper's full size.
		return data.HIGGSSim(r, scale/10)
	}},
	{"KDDCup99-sim", data.KDDSim},
}

// tuningGrid returns the hyperparameter grid of §4.3: the full paper
// grid (k ∈ {5,10}, λ ∈ {1e-4,1e-3,1e-2}, b = 50) for strongly convex
// scenarios, and the k-only grid for convex ones, where λ does not
// apply.
func tuningGrid(strongly bool) []tuning.Params {
	if strongly {
		return tuning.PaperGrid()
	}
	return tuning.Grid([]int{5, 10}, []int{50}, []float64{0})
}

// runTuned trains one (dataset, scenario, budget, algorithm) cell with
// the requested tuning protocol and returns test accuracy.
//
// tuner is one of:
//
//	"fixed"   — k = 10, b = 50, λ = 1e-4 (the caption of Figure 3)
//	"private" — Algorithm 3 over the §4.3 grid (Figures 6, 7, 9)
//	"public"  — grid search scored on the public test set (Figures 3
//	            companion protocol and Figure 8)
func runTuned(train, test *data.Dataset, sc scenario, budget dp.Budget, algo string, huber bool, tuner string, scale float64, workers int, r *rand.Rand) (float64, error) {
	fit := func(part *data.Dataset, p tuning.Params) (eval.Classifier, error) {
		lambda := compLambda(p.Lambda, scale)
		if !sc.strongly {
			lambda = 0
		}
		f, radius := lossFor(sc.strongly, lambda, huber)
		return classifierFor(part, trainSpec{
			algo: algo, budget: budget, f: f, k: p.K, b: p.B, radius: radius,
			workers: workers, rand: r,
		})
	}
	switch tuner {
	case "fixed":
		m, err := fit(train, tuning.Params{K: 10, B: 50, Lambda: 1e-4})
		if err != nil {
			return 0, err
		}
		return eval.Accuracy(test, m), nil
	case "private":
		res, err := tuning.PrivateCtx(context.Background(), train, tuningGrid(sc.strongly), budget, nil, fit, r)
		if err != nil {
			return 0, err
		}
		return eval.Accuracy(test, res.Model), nil
	case "public":
		res, err := tuning.Public(train, test, tuningGrid(sc.strongly), fit)
		if err != nil {
			return 0, err
		}
		return eval.Accuracy(test, res.Model), nil
	default:
		return 0, fmt.Errorf("experiments: unknown tuner %q", tuner)
	}
}

// accuracySweep is the engine behind Figures 3, 6, 7, 8 and 9: for
// every dataset × scenario × ε it reports the test accuracy of each
// algorithm, with parameters chosen by the given tuner, as a table
// followed by an ASCII chart per dataset×scenario (the actual "figure").
// BST14 is skipped in the pure ε-DP scenarios, exactly as in the paper.
func accuracySweep(cfg Config, datasets []namedDataset, huber bool, tuner string) error {
	cfg = cfg.withDefaults()
	root := rand.New(rand.NewSource(cfg.Seed))
	w := newTab(cfg)
	fmt.Fprintln(w, "dataset\tscenario\teps\talgorithm\taccuracy")
	type chart struct {
		title  string
		xs     []float64
		series []plot.Series
	}
	var charts []chart
	for _, nd := range datasets {
		train, test := nd.gen(root, cfg.Scale)
		delta := deltaFor(train.Len())
		grid := epsGrid(train.Classes > 2, cfg.Quick)
		for _, sc := range scenarios {
			ch := chart{title: fmt.Sprintf("%s — %s (accuracy vs ε)", nd.name, sc.name), xs: grid}
			for _, algo := range algoNames {
				ch.series = append(ch.series, plot.Series{Name: algo, Y: make([]float64, len(grid))})
			}
			for ei, eps := range grid {
				budget := dp.Budget{Epsilon: eps}
				if sc.approx {
					budget.Delta = delta
				}
				for ai, algo := range algoNames {
					if algo == "bst14" && !sc.approx {
						ch.series[ai].Y[ei] = math.NaN()
						continue
					}
					var acc float64
					for rep := 0; rep < cfg.Repeats; rep++ {
						a, err := runTuned(train, test, sc, budget, algo, huber, tuner, cfg.Scale, cfg.Workers, root)
						if err != nil {
							return fmt.Errorf("%s/%s/ε=%g/%s: %w", nd.name, sc.name, eps, algo, err)
						}
						acc += a
					}
					acc /= float64(cfg.Repeats)
					ch.series[ai].Y[ei] = acc
					fmt.Fprintf(w, "%s\t%s\t%g\t%s\t%.4f\n", nd.name, sc.name, eps, algo, acc)
				}
			}
			// Drop all-NaN series (bst14 in pure scenarios).
			kept := ch.series[:0]
			for _, s := range ch.series {
				allNaN := true
				for _, y := range s.Y {
					if !math.IsNaN(y) {
						allNaN = false
						break
					}
				}
				if !allNaN {
					kept = append(kept, s)
				}
			}
			ch.series = kept
			charts = append(charts, ch)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	for _, ch := range charts {
		fmt.Fprintln(cfg.Out)
		if err := plot.Render(cfg.Out, ch.title, ch.xs, ch.series, 10); err != nil {
			return err
		}
	}
	return nil
}

// fig3AccuracyPublic reproduces Figure 3 (test accuracy when tuning
// with public data; the caption fixes k = 10, b = 50, λ = 1e-4, which
// is what every point uses).
func fig3AccuracyPublic(cfg Config) error {
	fmt.Fprintln(cfg.withDefaults().Out, "== Figure 3: accuracy vs ε, tuning with public data (k=10, b=50, λ=1e-4) ==")
	return accuracySweep(cfg, figure3Datasets, false, "fixed")
}

// fig6AccuracyPrivateTuning reproduces Figure 6 (test accuracy with
// the private tuning Algorithm 3 over the §4.3 grid).
func fig6AccuracyPrivateTuning(cfg Config) error {
	fmt.Fprintln(cfg.withDefaults().Out, "== Figure 6: accuracy vs ε, private tuning (Algorithm 3) ==")
	return accuracySweep(cfg, figure3Datasets, false, "private")
}

// fig7HuberSVM reproduces Figure 7 (Huber SVM, h = 0.1, private
// tuning).
func fig7HuberSVM(cfg Config) error {
	fmt.Fprintln(cfg.withDefaults().Out, "== Figure 7: Huber SVM (h=0.1) accuracy vs ε, private tuning ==")
	return accuracySweep(cfg, figure3Datasets, true, "private")
}

// fig8LargeDatasetsPublic reproduces Figure 8 (HIGGS and KDDCup-99,
// tuning with public data): at very large m, privacy is nearly free
// for the bolt-on algorithms.
func fig8LargeDatasetsPublic(cfg Config) error {
	fmt.Fprintln(cfg.withDefaults().Out, "== Figure 8: HIGGS/KDDCup-99 accuracy vs ε, public tuning ==")
	return accuracySweep(cfg, figure8Datasets, false, "public")
}

// fig9LargeDatasetsPrivate reproduces Figure 9 (HIGGS and KDDCup-99,
// private tuning).
func fig9LargeDatasetsPrivate(cfg Config) error {
	fmt.Fprintln(cfg.withDefaults().Out, "== Figure 9: HIGGS/KDDCup-99 accuracy vs ε, private tuning ==")
	return accuracySweep(cfg, figure8Datasets, false, "private")
}

// fig4aPassesConvex reproduces Figure 4(a): in the convex case more
// passes mean more noise (Δ₂ = 2kLη/b grows with k), so accuracy
// degrades with k at fixed ε. MNIST simulation, batch 1, Test 1.
func fig4aPassesConvex(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "== Figure 4(a): passes vs accuracy, convex ε-DP, b=1 (MNIST-sim) ==")
	return passSweep(cfg, false, 1, []int{1, 10, 20})
}

// fig4bPassesStronglyConvex reproduces Figure 4(b): in the strongly
// convex case Δ₂ is independent of k, so extra passes only help
// convergence. MNIST simulation, batch 50, Test 3.
func fig4bPassesStronglyConvex(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "== Figure 4(b): passes vs accuracy, strongly convex ε-DP, b=50 (MNIST-sim) ==")
	return passSweep(cfg, true, 50, []int{1, 10, 20})
}

func passSweep(cfg Config, strongly bool, batch int, passes []int) error {
	root := rand.New(rand.NewSource(cfg.Seed))
	train, test := mnistProjected(root, cfg.Scale)
	w := newTab(cfg)
	fmt.Fprintln(w, "passes\teps\taccuracy")
	f, radius := lossFor(strongly, compLambda(1e-4, cfg.Scale), false)
	grid := epsGrid(true, cfg.Quick)
	var series []plot.Series
	for _, k := range passes {
		s := plot.Series{Name: fmt.Sprintf("%d passes", k), Y: make([]float64, len(grid))}
		for ei, eps := range grid {
			acc, err := accuracyFor(train, test, trainSpec{
				algo: "ours", budget: dp.Budget{Epsilon: eps},
				f: f, k: k, b: batch, radius: radius,
				workers: cfg.Workers, rand: root,
			})
			if err != nil {
				return err
			}
			s.Y[ei] = acc
			fmt.Fprintf(w, "%d\t%g\t%.4f\n", k, eps, acc)
		}
		series = append(series, s)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out)
	return plot.Render(cfg.Out, "accuracy vs ε by pass count", grid, series, 10)
}

// fig4cBatchConvex reproduces Figure 4(c): slightly enlarging the
// mini-batch drastically reduces the convex-case noise (Δ₂ ∝ 1/b),
// rescuing the 20-pass run. MNIST simulation, Test 1.
func fig4cBatchConvex(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "== Figure 4(c): mini-batch size vs accuracy, convex ε-DP, k=20 (MNIST-sim) ==")
	root := rand.New(rand.NewSource(cfg.Seed))
	train, test := mnistProjected(root, cfg.Scale)
	w := newTab(cfg)
	fmt.Fprintln(w, "batch\teps\taccuracy")
	f, radius := lossFor(false, 0, false)
	grid := epsGrid(true, cfg.Quick)
	var series []plot.Series
	for _, b := range []int{1, 10, 50} {
		s := plot.Series{Name: fmt.Sprintf("b=%d", b), Y: make([]float64, len(grid))}
		for ei, eps := range grid {
			acc, err := accuracyFor(train, test, trainSpec{
				algo: "ours", budget: dp.Budget{Epsilon: eps},
				f: f, k: 20, b: b, radius: radius,
				workers: cfg.Workers, rand: root,
			})
			if err != nil {
				return err
			}
			s.Y[ei] = acc
			fmt.Fprintf(w, "%d\t%g\t%.4f\n", b, eps, acc)
		}
		series = append(series, s)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out)
	return plot.Render(cfg.Out, "accuracy vs ε by mini-batch size (k=20, convex ε-DP)", grid, series, 10)
}

// fig10BatchSweep reproduces Figure 10 (Appendix D): batch sizes
// 50–200, strongly convex (ε,δ)-DP on the MNIST simulation, all four
// algorithms.
func fig10BatchSweep(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "== Figure 10: mini-batch size 50–200 vs accuracy, strongly convex (ε,δ)-DP (MNIST-sim) ==")
	root := rand.New(rand.NewSource(cfg.Seed))
	train, test := mnistProjected(root, cfg.Scale)
	delta := deltaFor(train.Len())
	w := newTab(cfg)
	fmt.Fprintln(w, "batch\teps\talgorithm\taccuracy")
	f, radius := lossFor(true, compLambda(1e-4, cfg.Scale), false)
	batches := []int{50, 100, 150, 200}
	if cfg.Quick {
		batches = []int{50, 200}
	}
	grid := epsGrid(true, cfg.Quick)
	type chart struct {
		title  string
		series []plot.Series
	}
	var charts []chart
	for _, b := range batches {
		ch := chart{title: fmt.Sprintf("b = %d (accuracy vs ε)", b)}
		for _, algo := range algoNames {
			ch.series = append(ch.series, plot.Series{Name: algo, Y: make([]float64, len(grid))})
		}
		for ei, eps := range grid {
			for ai, algo := range algoNames {
				acc, err := accuracyFor(train, test, trainSpec{
					algo: algo, budget: dp.Budget{Epsilon: eps, Delta: delta},
					f: f, k: 10, b: b, radius: radius,
					workers: cfg.Workers, rand: root,
				})
				if err != nil {
					return err
				}
				ch.series[ai].Y[ei] = acc
				fmt.Fprintf(w, "%d\t%g\t%s\t%.4f\n", b, eps, algo, acc)
			}
		}
		charts = append(charts, ch)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	for _, ch := range charts {
		fmt.Fprintln(cfg.Out)
		if err := plot.Render(cfg.Out, ch.title, grid, ch.series, 10); err != nil {
			return err
		}
	}
	return nil
}
