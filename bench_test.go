package boltondp

// One benchmark per table/figure of the paper (DESIGN.md §3): each
// drives the same runner as `go run ./cmd/experiments -run <id>`, at a
// small scale with trimmed grids so the full suite stays minutes, not
// hours. Use the CLI with -scale for paper-sized runs.
//
// Micro-benchmarks for the hot substrate operations (gradient update,
// noise sampling, page scan, UDA epoch) follow.

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"boltondp/internal/bismarck"
	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/experiments"
	"boltondp/internal/loss"
	"boltondp/internal/rng"
	"boltondp/internal/sgd"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Scale: 0.002, Seed: 1, Out: io.Discard, Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 2: convergence (excess empirical risk vs m), ours vs BST14.
func BenchmarkTable2Convergence(b *testing.B) { benchExperiment(b, "table2") }

// Table 3: dataset inventory (generation + summary).
func BenchmarkTable3Datasets(b *testing.B) { benchExperiment(b, "table3") }

// Table 4: step-size table.
func BenchmarkTable4StepSizes(b *testing.B) { benchExperiment(b, "table4") }

// Figure 1: UDA integration points and sampling counts.
func BenchmarkFig1Integration(b *testing.B) { benchExperiment(b, "fig1") }

// Figure 2: scalability — runtime/epoch vs dataset size.
func BenchmarkFig2ScalabilityMemory(b *testing.B) { benchExperiment(b, "fig2a") }
func BenchmarkFig2ScalabilityDisk(b *testing.B)   { benchExperiment(b, "fig2b") }

// Figure 3: accuracy vs ε, tuning with public data.
func BenchmarkFig3Accuracy(b *testing.B) { benchExperiment(b, "fig3") }

// Figure 4: number of passes / batch size effects.
func BenchmarkFig4PassesConvex(b *testing.B)         { benchExperiment(b, "fig4a") }
func BenchmarkFig4PassesStronglyConvex(b *testing.B) { benchExperiment(b, "fig4b") }
func BenchmarkFig4BatchConvex(b *testing.B)          { benchExperiment(b, "fig4c") }

// Figure 5: runtime overhead varying epochs and batch size.
func BenchmarkFig5Runtime(b *testing.B) { benchExperiment(b, "fig5") }

// Figure 6: accuracy with the private tuning Algorithm 3.
func BenchmarkFig6PrivateTuning(b *testing.B) { benchExperiment(b, "fig6") }

// Figure 7: Huber SVM accuracy with private tuning.
func BenchmarkFig7HuberSVM(b *testing.B) { benchExperiment(b, "fig7") }

// Figures 8–9: HIGGS/KDDCup-99 accuracy, public and private tuning.
func BenchmarkFig8LargeDatasets(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9LargePrivate(b *testing.B)  { benchExperiment(b, "fig9") }

// Figure 10: mini-batch sizes 50–200.
func BenchmarkFig10BatchSweep(b *testing.B) { benchExperiment(b, "fig10") }

// Ablations (design choices DESIGN.md calls out, beyond the paper's
// own plots): convex step families, model-averaging schemes, and the
// dimension dependence of the two noise mechanisms.
func BenchmarkAblationStepFamilies(b *testing.B)   { benchExperiment(b, "ablation-steps") }
func BenchmarkAblationAveraging(b *testing.B)      { benchExperiment(b, "ablation-averaging") }
func BenchmarkAblationNoiseDimension(b *testing.B) { benchExperiment(b, "ablation-noise") }
func BenchmarkAblationFreshPerm(b *testing.B)      { benchExperiment(b, "ablation-freshperm") }

// ---------------------------------------------------------------------
// Micro-benchmarks.
// ---------------------------------------------------------------------

// BenchmarkSGDPass measures one pass of plain PSGD (m=10k, d=50, b=50)
// — the black box every private algorithm shares.
func BenchmarkSGDPass(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ds := data.ScaleSim(1, 10000, 50)
	f := loss.NewLogistic(1e-3, 0)
	p := f.Params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sgd.Run(ds, sgd.Config{
			Loss: f, Step: sgd.StronglyConvexPaper(p.Beta, p.Gamma),
			Passes: 1, Batch: 50, Rand: r,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(10000 * 50 * 8))
}

// BenchmarkOutputPerturbation measures the entire bolt-on privacy step
// (sensitivity + one noise vector) — the paper's "virtually no
// overhead" claim in microbenchmark form.
func BenchmarkOutputPerturbation(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	w := make([]float64, 50)
	budget := dp.Budget{Epsilon: 0.1}
	sens := dp.SensitivityStronglyConvex(2, 1e-3, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := budget.Perturb(r, w, sens); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerBatchNoise measures one SCS13-style per-batch noise draw
// (d=50): multiply by T = km/b to see the white-box overhead.
func BenchmarkPerBatchNoise(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	noise := make([]float64, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.GammaSphere(r, noise, 0.04, 0.01)
	}
}

// BenchmarkGaussianNoise is the (ε,δ) counterpart.
func BenchmarkGaussianNoise(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	noise := make([]float64, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.GaussianVec(r, noise, 1.5)
	}
}

// BenchmarkTableScan measures a full sequential scan of an in-memory
// page table (m=20k, d=50).
func BenchmarkTableScan(b *testing.B) {
	ds := data.ScaleSim(2, 20000, 50)
	tab := bismarck.NewMemTable("bench", 50)
	if err := tab.InsertAll(ds); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := tab.Scan(func(x []float64, y float64) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != 20000 {
			b.Fatal("short scan")
		}
	}
	b.SetBytes(int64(tab.NumPages() * bismarck.PageSize))
}

// BenchmarkUDAEpoch measures one SGD epoch through the UDA architecture
// (transition-per-tuple), the unit of Figure 5's x-axis.
func BenchmarkUDAEpoch(b *testing.B) {
	ds := data.ScaleSim(3, 20000, 50)
	tab := bismarck.NewMemTable("bench", 50)
	if err := tab.InsertAll(ds); err != nil {
		b.Fatal(err)
	}
	f := loss.NewLogistic(1e-3, 0)
	p := f.Params()
	agg := bismarck.NewSGDAgg(50, f, sgd.StronglyConvexPaper(p.Beta, p.Gamma), 10, 1e3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drv := &bismarck.Driver{Table: tab, Agg: agg, Epochs: 1}
		if _, _, err := drv.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrivateTrainEndToEnd measures a complete Algorithm 2 run
// (m=10k, d=50, k=5, b=50) including the output perturbation.
func BenchmarkPrivateTrainEndToEnd(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ds := data.ScaleSim(4, 10000, 50)
	f := loss.NewLogistic(1e-3, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.TrainCtx(context.Background(), ds, f,
			core.WithBudget(dp.Budget{Epsilon: 0.1}),
			core.WithPasses(5), core.WithBatch(50), core.WithRadius(1000), core.WithRand(r))
		if err != nil {
			b.Fatal(err)
		}
	}
}
