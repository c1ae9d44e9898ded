// Fraud scoring: a KDDCup-99-style intrusion/fraud detection workload
// (large, nearly separable, binary) demonstrating two things the paper
// emphasizes:
//
//  1. At large m, differential privacy is nearly free for the bolt-on
//     algorithm (Figure 8): the strongly convex sensitivity 2L/(γm)
//     vanishes with m.
//  2. Private hyperparameter tuning (Algorithm 3) picks (k, λ) without
//     leaking the validation data.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"boltondp"
)

func main() {
	r := rand.New(rand.NewSource(7))
	train, test := boltondp.KDDSim(r, 0.2) // ~99k training rows
	fmt.Printf("fraud dataset: m=%d, d=%d\n", train.Len(), train.Dim())

	budget := boltondp.Budget{Epsilon: 0.2} // a tight budget
	fmt.Printf("budget: %v\n", budget)

	// Show the m-dependence first: the same ε on increasing slices.
	for _, frac := range []float64{0.05, 0.25, 1.0} {
		sub := train
		if frac < 1 {
			sub, _ = train.Split(r, frac)
		}
		lambda := 0.1
		res, err := boltondp.TrainCtx(context.Background(), sub, boltondp.NewLogisticLoss(lambda),
			boltondp.WithBudget(budget), boltondp.WithPasses(5), boltondp.WithBatch(50), boltondp.WithRadius(1/lambda), boltondp.WithRand(r))
		if err != nil {
			log.Fatal(err)
		}
		acc := boltondp.Accuracy(test, &boltondp.LinearClassifier{W: res.W})
		fmt.Printf("m=%6d  Δ₂=%.3g  ‖κ‖=%.4f  test accuracy=%.4f\n",
			sub.Len(), res.Sensitivity, res.NoiseNorm, acc)
	}

	// Now tune (k, λ) privately with Algorithm 3 over the paper's grid.
	tuned, err := boltondp.PrivateTuneCtx(context.Background(), train, boltondp.PaperTuningGrid(), budget, nil,
		func(part *boltondp.Dataset, p boltondp.TuningParams) (boltondp.Classifier, error) {
			res, err := boltondp.TrainCtx(context.Background(), part, boltondp.NewLogisticLoss(p.Lambda),
				boltondp.WithBudget(budget), boltondp.WithPasses(p.K), boltondp.WithBatch(p.B), boltondp.WithRadius(1/p.Lambda), boltondp.WithRand(r))
			if err != nil {
				return nil, err
			}
			return &boltondp.LinearClassifier{W: res.W}, nil
		}, r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("privately tuned params: %v (validation errors: %d)\n", tuned.Params, tuned.Errors)
	fmt.Printf("tuned model test accuracy: %.4f\n", boltondp.Accuracy(test, tuned.Model))
}
