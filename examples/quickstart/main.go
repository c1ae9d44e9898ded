// Quickstart: train an (ε = 0.5)-differentially private logistic
// regression model in a dozen lines, the bolt-on way — run ordinary
// SGD, add calibrated noise to the final model, release it.
//
// The run draws its budget from a privacy-budget accountant (the
// audited owner of the total (ε, δ) guarantee) and is cancellable
// through a context: Ctrl-C, a deadline, or an HTTP request context
// all stop training within one epoch slice.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"

	"boltondp"
)

func main() {
	// Ctrl-C cancels the run mid-epoch instead of finishing all passes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	r := rand.New(rand.NewSource(42))

	// A Protein-sized binary classification task (72k training rows at
	// scale 1; 0.2 keeps the demo fast).
	train, test := boltondp.ProteinSim(r, 0.2)
	fmt.Printf("training on %s: m=%d, d=%d\n", train.Name, train.Len(), train.Dim())

	// The accountant owns the total budget: this run draws all of it,
	// the spend lands in an auditable ledger, and a second draw from
	// the same accountant would fail closed with ErrBudgetOverdraw.
	acct, err := boltondp.NewAccountant(boltondp.Budget{Epsilon: 0.5}) // pure ε-DP
	if err != nil {
		log.Fatal(err)
	}

	// L2-regularized logistic regression: strongly convex, so the
	// sensitivity is 2L/(γm) — independent of the number of passes
	// (and of the batch size; see dp.SensitivityStronglyConvex).
	lambda := 0.05
	f := boltondp.NewLogisticLoss(lambda)

	res, err := boltondp.TrainCtx(ctx, train, f,
		boltondp.WithAccountant(acct),
		boltondp.WithPasses(10),
		boltondp.WithBatch(50),
		boltondp.WithRadius(1/lambda), // the paper's R = 1/λ convention
		boltondp.WithProgress(func(epoch int, risk float64) {
			fmt.Printf("  epoch %2d: empirical risk %.5f (pre-noise — do not publish)\n", epoch, risk)
		}),
		boltondp.WithRand(r))
	if err != nil {
		log.Fatal(err) // ctx.Err() if interrupted, ErrBudgetOverdraw if overdrawn
	}

	private := &boltondp.LinearClassifier{W: res.W}
	baseline := &boltondp.LinearClassifier{W: res.NonPrivate}
	fmt.Printf("sensitivity Δ₂ = %.2g, realized noise ‖κ‖ = %.3f\n", res.Sensitivity, res.NoiseNorm)
	fmt.Printf("non-private test accuracy: %.4f\n", boltondp.Accuracy(test, baseline))
	fmt.Printf("ε=0.5 private accuracy:    %.4f\n", boltondp.Accuracy(test, private))
	fmt.Printf("accountant: spent %v of %v across %d spend(s)\n",
		acct.Spent(), acct.Total(), len(acct.Ledger().Entries))
	fmt.Println("res.W is safe to publish; res.NonPrivate is not.")

	// Without an accountant, boltondp.WithBudget(boltondp.Budget{Epsilon:
	// 0.5}) in place of WithAccountant gives the same guarantee
	// stand-alone — but it records no ledger.
}
