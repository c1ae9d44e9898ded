// Package tuning implements hyperparameter selection for private SGD:
// the private tuning procedure of Algorithm 3 (Chaudhuri–Monteleoni–
// Sarwate's exponential-mechanism selector, as the paper uses it), the
// public-data tuning alternative of §4.1, and the grid construction of
// §4.3 (k ∈ {5,10}, λ ∈ {1e-4, 1e-3, 1e-2}, b fixed at 50).
package tuning

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"boltondp/internal/account"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/eval"
)

// Params is one tuning-parameter tuple θ = (k, b, λ) (§4.1 "we call
// k, b, λ the tuning parameters").
type Params struct {
	K      int     // passes
	B      int     // mini-batch size
	Lambda float64 // L2 regularization
}

// String implements fmt.Stringer.
func (p Params) String() string { return fmt.Sprintf("(k=%d b=%d λ=%g)", p.K, p.B, p.Lambda) }

// Grid returns the cross product of the given candidate values — the
// "standard grid search" of §4.3.
func Grid(ks, bs []int, lambdas []float64) []Params {
	var out []Params
	for _, k := range ks {
		for _, b := range bs {
			for _, l := range lambdas {
				out = append(out, Params{K: k, B: b, Lambda: l})
			}
		}
	}
	return out
}

// PaperGrid is the exact grid of Figures 6, 7 and 9: k ∈ {5, 10},
// b = 50, λ ∈ {0.0001, 0.001, 0.01}.
func PaperGrid() []Params {
	return Grid([]int{5, 10}, []int{50}, []float64{1e-4, 1e-3, 1e-2})
}

// TrainFunc trains a classifier on one data portion under one
// parameter tuple. Implementations are expected to consume the privacy
// budget they are given by the caller; the tuner itself only spends ε
// on the exponential-mechanism pick (Algorithm 3, line 5).
type TrainFunc func(part *data.Dataset, p Params) (eval.Classifier, error)

// Result reports a tuning run.
type Result struct {
	Model  eval.Classifier
	Params Params
	// Errors is the validation error count χ_i of the chosen model.
	Errors int
	// Index is the position of the chosen tuple in the grid.
	Index int
}

// PrivateCtx is Algorithm 3 ("Private Tuning Algorithm for SGD"): split
// S into l+1 equal portions, train hypothesis w_i on portion i with
// parameters θ_i, count validation errors χ_i on portion l+1, and
// release w_i with probability proportional to exp(−ε·χ_i/2). The
// selection is differentially private because each candidate is trained
// on disjoint data (parallel composition) and the pick is the
// exponential mechanism with sensitivity-1 score χ.
//
// The context is checked before each candidate's training run (and
// flows into the runs themselves when train calls core.TrainCtx with
// it), and when acct is non-nil the tuner's own spend — the ε of the
// exponential-mechanism pick, line 5 — is reserved against it before
// any work, failing closed on overdraw.
//
// The candidates' training budgets are the TrainFunc's responsibility:
// Algorithm 3 trains each candidate on a DISJOINT portion, so parallel
// composition charges the portions once, not l times — an accountant-
// backed TrainFunc should reserve its per-candidate budget from a
// child accountant, not from acct, or the ledger would overstate the
// real spend. acct here covers only the selection.
func PrivateCtx(ctx context.Context, d *data.Dataset, grid []Params, budget dp.Budget, acct *account.Accountant, train TrainFunc, r *rand.Rand) (*Result, error) {
	if err := budget.Validate(); err != nil {
		return nil, err
	}
	if len(grid) == 0 {
		return nil, errors.New("tuning: empty parameter grid")
	}
	if train == nil {
		return nil, errors.New("tuning: nil TrainFunc")
	}
	if r == nil {
		return nil, errors.New("tuning: nil rand source")
	}
	l := len(grid)
	if d.Len() < (l+1)*2 {
		return nil, fmt.Errorf("tuning: dataset of %d rows too small for %d+1 portions", d.Len(), l)
	}
	if acct != nil {
		// The exponential mechanism is pure ε-DP, so reserve it as such:
		// under advanced/RDP accounting a pure event composes
		// sublinearly, and under the simple rule ReservePure downgrades
		// to the exact plain entry Reserve always recorded. A δ-carrying
		// budget (not what Algorithm 3 spends) stays a plain reservation.
		label := fmt.Sprintf("tune(%d candidates)", l)
		var err error
		if budget.Pure() {
			err = acct.ReservePure(label, budget.Epsilon)
		} else {
			err = acct.Reserve(label, budget)
		}
		if err != nil {
			return nil, err
		}
	}
	parts := d.Portions(r, l+1)
	validation := parts[l]

	models := make([]eval.Classifier, l)
	chis := make([]int, l)
	for i, p := range grid {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		m, err := train(parts[i], p)
		if err != nil {
			return nil, fmt.Errorf("tuning: candidate %v: %w", p, err)
		}
		models[i] = m
		chis[i] = eval.Errors(validation, m)
	}

	idx := exponentialPick(r, chis, budget.Epsilon)
	return &Result{Model: models[idx], Params: grid[idx], Errors: chis[idx], Index: idx}, nil
}

// exponentialPick samples index i with probability proportional to
// exp(−ε·χ_i/2) (Algorithm 3, line 5), computed stably by shifting by
// the minimum error count.
func exponentialPick(r *rand.Rand, chis []int, eps float64) int {
	min := chis[0]
	for _, c := range chis {
		if c < min {
			min = c
		}
	}
	weights := make([]float64, len(chis))
	var total float64
	for i, c := range chis {
		weights[i] = math.Exp(-eps * float64(c-min) / 2)
		total += weights[i]
	}
	u := r.Float64() * total
	for i, w := range weights {
		u -= w
		if u <= 0 {
			return i
		}
	}
	return len(chis) - 1
}

// Public tunes with public data (§4.1 "Tuning using Public Data"):
// train one candidate per tuple on the full private training set and
// keep the one with the best accuracy on the public validation set.
// No extra privacy cost is charged for the selection because the
// validation data is public; each candidate must still be trained
// under the full stated budget, and the paper's protocol assumes the
// budget covers the released (single) model.
func Public(train *data.Dataset, public *data.Dataset, grid []Params, fit TrainFunc) (*Result, error) {
	if len(grid) == 0 {
		return nil, errors.New("tuning: empty parameter grid")
	}
	if fit == nil {
		return nil, errors.New("tuning: nil TrainFunc")
	}
	best := -1
	bestErr := math.MaxInt
	var bestModel eval.Classifier
	for i, p := range grid {
		m, err := fit(train, p)
		if err != nil {
			return nil, fmt.Errorf("tuning: candidate %v: %w", p, err)
		}
		if e := eval.Errors(public, m); e < bestErr {
			best, bestErr, bestModel = i, e, m
		}
	}
	return &Result{Model: bestModel, Params: grid[best], Errors: bestErr, Index: best}, nil
}
