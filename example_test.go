package boltondp_test

// Runnable godoc examples for the public API. Each uses fixed seeds so
// the Output blocks are stable, and prints derived quantities
// (sensitivities, budget splits) rather than noisy accuracies.

import (
	"context"
	"fmt"
	"math/rand"

	"boltondp"
)

// Train a private model and inspect the calibration the bolt-on step
// used. The strongly convex sensitivity 2L/(γm) is a deterministic
// function of the run shape, so it is the same on every execution.
func ExampleTrainCtx() {
	r := rand.New(rand.NewSource(1))
	train, _ := boltondp.ProteinSim(r, 0.02)

	lambda := 0.01
	res, err := boltondp.TrainCtx(context.Background(), train, boltondp.NewLogisticLoss(lambda),
		boltondp.WithBudget(boltondp.Budget{Epsilon: 0.1}),
		boltondp.WithPasses(5), boltondp.WithBatch(50), boltondp.WithRadius(1/lambda),
		boltondp.WithRand(r))
	if err != nil {
		fmt.Println(err)
		return
	}
	// L = 1 + λR = 2, γ = λ = 0.01, m = 1457:
	// Δ₂ = 2·2/(0.01·1457) ≈ 0.27454 — independent of the batch size
	// (the sound form of Lemma 8; see dp.SensitivityStronglyConvex).
	fmt.Printf("m=%d\n", train.Len())
	fmt.Printf("Δ₂=%.5f\n", res.Sensitivity)
	fmt.Printf("model dim=%d\n", len(res.W))
	// Output:
	// m=1457
	// Δ₂=0.27454
	// model dim=74
}

// Splitting a budget across one-vs-all sub-models uses simple
// composition: both ε and δ divide by the number of classes.
func ExampleBudget_Split() {
	total := boltondp.Budget{Epsilon: 4, Delta: 1e-4}
	per := total.Split(4)
	fmt.Println(per)
	// Output:
	// (ε=1, δ=2.5e-05)
}

// Pure ε-DP budgets print without a δ component.
func ExampleBudget_String() {
	fmt.Println(boltondp.Budget{Epsilon: 0.5})
	fmt.Println(boltondp.Budget{Epsilon: 0.5, Delta: 1e-6})
	// Output:
	// ε=0.5
	// (ε=0.5, δ=1e-06)
}

// The paper's hyperparameter grid (§4.3).
func ExamplePaperTuningGrid() {
	for _, p := range boltondp.PaperTuningGrid() {
		fmt.Println(p)
	}
	// Output:
	// (k=5 b=50 λ=0.0001)
	// (k=5 b=50 λ=0.001)
	// (k=5 b=50 λ=0.01)
	// (k=10 b=50 λ=0.0001)
	// (k=10 b=50 λ=0.001)
	// (k=10 b=50 λ=0.01)
}

// A linear classifier is just sign(⟨w, x⟩).
func ExampleLinearClassifier() {
	c := &boltondp.LinearClassifier{W: []float64{1, -1}}
	fmt.Println(c.Predict([]float64{0.9, 0.1}))
	fmt.Println(c.Predict([]float64{0.1, 0.9}))
	// Output:
	// 1
	// -1
}

// The in-RDBMS path gives the identical four-integration choice as the
// paper's Figure 1; here the bolt-on algorithm reports exactly one
// noise draw regardless of epochs and batches.
func ExampleTrainInRDBMS() {
	r := rand.New(rand.NewSource(2))
	train, _ := boltondp.KDDSim(r, 0.005)
	tab := boltondp.NewMemTable("kdd", train.Dim())
	if err := tab.InsertAll(train); err != nil {
		fmt.Println(err)
		return
	}
	res, err := boltondp.TrainInRDBMS(tab, boltondp.NewLogisticLoss(0.01), boltondp.UDATrainConfig{
		Algorithm: boltondp.UDAOutputPerturb,
		Budget:    boltondp.Budget{Epsilon: 1},
		Passes:    4, Batch: 10, Radius: 100,
		Rand: r,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("epochs=%d noise draws=%d\n", res.Epochs, res.NoiseDraws)
	// Output:
	// epochs=4 noise draws=1
}
