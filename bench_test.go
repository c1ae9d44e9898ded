package boltondp

// One benchmark per table/figure of the paper (DESIGN.md §3): each
// drives the same runner as `go run ./cmd/experiments -run <id>`, at a
// small scale with trimmed grids so the full suite stays minutes, not
// hours. Use the CLI with -scale for paper-sized runs.
//
// Micro-benchmarks for the substrate operations the benchmark harness
// has no row for (noise sampling, page scan) follow.

import (
	"io"
	"math/rand"
	"testing"

	"boltondp/internal/bismarck"
	"boltondp/internal/data"
	"boltondp/internal/experiments"
	"boltondp/internal/rng"
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
