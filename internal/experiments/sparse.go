package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/eval"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
)

// sparseKernel measures the sparse-native execution kernel against the
// dense path on the workloads it exists for: a density sweep over
// synthetic high-dimensional data, and the paper's one-hot-heavy
// KDDCup-99 intrusion-detection workload (Appendix C) in its natural
// sparse encoding. Each row trains the same private model twice from
// the same seed — once over the CSR representation (sparse kernel),
// once over its dense materialization — and reports wall time, the
// epoch-time speedup, the calibrated Δ₂ and the test accuracies. The
// punchline columns: Δ₂ is identical by construction (sensitivity is a
// function of (L, β, γ, m, strategy), never of the representation, and
// the shared Rand is consumed identically), accuracy matches to noise
// rounding, and the speedup approaches the inverse density.
func sparseKernel(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "== Sparse kernel: CSR vs dense execution, same seed, same noise ==")

	// Keep γ·m — the strongly convex noise operating point — invariant
	// under scaled-down runs, as the accuracy figures do.
	lambda := compLambda(1e-2, cfg.Scale)
	f := loss.NewLogistic(lambda, 0)

	type workload struct {
		name  string
		train sgd.Samples // must implement sgd.SparseSamples
		test  sgd.Samples
	}
	var loads []workload

	// Density sweep: d = 1000, nnz ∈ {10, 50, 200} → 1%, 5%, 20%.
	root := rand.New(rand.NewSource(cfg.Seed))
	m := scaled(100000, cfg.Scale, 2000)
	nnzGrid := []int{10, 50, 200}
	if cfg.Quick {
		nnzGrid = []int{50}
	}
	for _, nnz := range nnzGrid {
		full := data.SparseSynthetic(rand.New(rand.NewSource(cfg.Seed)), m, 1000, nnz, 0.02)
		tr, te := full.Split(root, 0.9)
		loads = append(loads, workload{
			fmt.Sprintf("synth d=1000 %.0f%%", 100*float64(nnz)/1000), tr, te,
		})
	}

	// The paper's workload: one-hot KDDCup-99 at Table 3 scale.
	kTrain, kTest := data.KDDSimSparse(rand.New(rand.NewSource(cfg.Seed+1)), cfg.Scale)
	loads = append(loads, workload{
		fmt.Sprintf("kdd-onehot d=%d %.0f%%", kTrain.Dim(), 100*kTrain.Density()), kTrain, kTest,
	})

	w := newTab(cfg)
	fmt.Fprintln(w, "workload\trows\tsparse wall\tdense wall\tspeedup\tΔ₂ equal\tacc sparse\tacc dense")
	for _, ld := range loads {
		sp, ok := ld.train.(*data.SparseDataset)
		if !ok {
			return fmt.Errorf("experiments: %s train set is not sparse", ld.name)
		}
		// (ε,δ)-DP: Gaussian noise grows with √d instead of d, the
		// regime the paper itself uses for high-dimensional runs — pure
		// ε-DP noise at d = 1000 would bury any model and make the
		// accuracy columns meaningless.
		train := func(s sgd.Samples) (*core.Result, error) {
			return core.TrainCtx(context.Background(), s, f,
				core.WithBudget(dp.Budget{Epsilon: 1, Delta: deltaFor(ld.train.Len())}),
				core.WithPasses(3), core.WithBatch(10), core.WithRadius(1/lambda),
				core.WithRand(rand.New(rand.NewSource(cfg.Seed+7))))
		}
		if !sgd.UsesSparseKernel(sp, sgd.Config{Loss: f, Step: sgd.Constant(1), Passes: 1, NoPerm: true}) {
			return fmt.Errorf("experiments: %s would not dispatch to the sparse kernel", ld.name)
		}

		startS := time.Now()
		resS, err := train(sp)
		if err != nil {
			return err
		}
		wallS := time.Since(startS)

		de := sp.ToDense()
		startD := time.Now()
		resD, err := train(de)
		if err != nil {
			return err
		}
		wallD := time.Since(startD)

		accS := eval.Accuracy(ld.test, &eval.Linear{W: resS.W})
		accD := eval.Accuracy(ld.test, &eval.Linear{W: resD.W})
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%.1fx\t%t\t%.4f\t%.4f\n",
			ld.name, sp.Len(),
			wallS.Round(time.Millisecond), wallD.Round(time.Millisecond),
			float64(wallD)/float64(wallS),
			resS.Sensitivity == resD.Sensitivity && resS.NoiseNorm == resD.NoiseNorm,
			accS, accD)
	}
	return w.Flush()
}
