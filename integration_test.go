package boltondp

// Repository-level integration tests: the paper's headline claims,
// asserted end-to-end through the public API only.

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"
)

// The paper's central accuracy claim (Figures 3/6): at a small budget
// on a realistic strongly convex task, bolt-on output perturbation
// beats the white-box baselines by a wide margin and sits near the
// noiseless model. Averaged over seeds for stability.
func TestHeadlineAccuracyClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison is not short")
	}
	const trials = 4
	lambda := 0.02
	budget := Budget{Epsilon: 0.1, Delta: 1e-9}
	var noiseless, ours, scs13, bst14 float64
	for seed := int64(0); seed < trials; seed++ {
		r := rand.New(rand.NewSource(200 + seed))
		train, test := CovtypeSim(r, 0.02)
		f := NewLogisticLoss(lambda)

		nr, err := NoiselessSGD(train, f, BaselineOptions{
			Passes: 10, Batch: 50, Radius: 1 / lambda, Rand: r,
		})
		if err != nil {
			t.Fatal(err)
		}
		noiseless += Accuracy(test, &LinearClassifier{W: nr.W})

		or, err := TrainCtx(context.Background(), train, f,
			WithBudget(budget), WithPasses(10), WithBatch(50), WithRadius(1/lambda), WithRand(r),
			// This test reproduces the paper's reported comparison, so
			// it uses the paper's Δ₂ = 2L/(γmb) calibration (see the
			// finding on dp.SensitivityStronglyConvex).
			WithPaperBatchSensitivity())
		if err != nil {
			t.Fatal(err)
		}
		ours += Accuracy(test, &LinearClassifier{W: or.W})

		sr, err := SCS13(train, f, BaselineOptions{
			Budget: budget, Passes: 10, Batch: 50, Radius: 1 / lambda, Rand: r,
		})
		if err != nil {
			t.Fatal(err)
		}
		scs13 += Accuracy(test, &LinearClassifier{W: sr.W})

		br, err := BST14(train, f, BaselineOptions{
			Budget: budget, Passes: 10, Batch: 50, Radius: 1 / lambda, Rand: r,
		})
		if err != nil {
			t.Fatal(err)
		}
		bst14 += Accuracy(test, &LinearClassifier{W: br.W})
	}
	noiseless, ours, scs13, bst14 = noiseless/trials, ours/trials, scs13/trials, bst14/trials
	t.Logf("noiseless=%.3f ours=%.3f scs13=%.3f bst14=%.3f", noiseless, ours, scs13, bst14)
	if ours <= scs13 {
		t.Errorf("ours (%.3f) should beat SCS13 (%.3f) at ε=0.1", ours, scs13)
	}
	if ours <= bst14 {
		t.Errorf("ours (%.3f) should beat BST14 (%.3f) at ε=0.1", ours, bst14)
	}
	if noiseless-ours > 0.08 {
		t.Errorf("ours (%.3f) should be near noiseless (%.3f) at ε=0.1 on this m", ours, noiseless)
	}
}

// Tune privately, save the winner with its privacy metadata, reload it
// and verify behavior is preserved — the full deployment loop.
func TestTuneSaveLoadLoop(t *testing.T) {
	r := rand.New(rand.NewSource(300))
	train, test := KDDSim(r, 0.02)
	budget := Budget{Epsilon: 0.5}
	res, err := PrivateTuneCtx(context.Background(), train, PaperTuningGrid(), budget, nil,
		func(part *Dataset, p TuningParams) (Classifier, error) {
			tr, err := TrainCtx(context.Background(), part, NewLogisticLoss(p.Lambda),
				WithBudget(budget), WithPasses(p.K), WithBatch(p.B), WithRadius(1/p.Lambda), WithRand(r),
				WithPaperBatchSensitivity()) // paper-parity comparison
			if err != nil {
				return nil, err
			}
			return &LinearClassifier{W: tr.W}, nil
		}, r)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "model.json")
	meta := map[string]string{"epsilon": "0.5", "tuned": res.Params.String()}
	if err := SaveClassifier(path, res.Model, meta); err != nil {
		t.Fatal(err)
	}
	loaded, gotMeta, err := LoadClassifier(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta["tuned"] != res.Params.String() {
		t.Errorf("meta round trip: %v", gotMeta)
	}
	before := Accuracy(test, res.Model)
	after := Accuracy(test, loaded)
	if before != after {
		t.Errorf("accuracy changed across save/load: %v -> %v", before, after)
	}
	if after < 0.8 {
		t.Errorf("tuned KDD model accuracy %v", after)
	}
}

// The library path (core.TrainCtx via facade) and the in-RDBMS path must
// calibrate the same sensitivity for the same run shape — the bolt-on
// guarantee does not depend on which engine executed SGD.
func TestLibraryAndRDBMSSensitivityAgree(t *testing.T) {
	r := rand.New(rand.NewSource(400))
	train, _ := ProteinSim(r, 0.01)
	lambda := 0.05
	f := NewLogisticLoss(lambda)

	lib, err := TrainCtx(context.Background(), train, f,
		WithBudget(Budget{Epsilon: 1}), WithPasses(3), WithBatch(10), WithRadius(1/lambda), WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	tab := NewMemTable("t", train.Dim())
	if err := tab.InsertAll(train); err != nil {
		t.Fatal(err)
	}
	rdbms, err := TrainInRDBMS(tab, f, UDATrainConfig{
		Algorithm: UDAOutputPerturb, Budget: Budget{Epsilon: 1},
		Passes: 3, Batch: 10, Radius: 1 / lambda, Rand: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lib.Sensitivity != rdbms.Sensitivity {
		t.Errorf("sensitivities diverge: library %v vs RDBMS %v", lib.Sensitivity, rdbms.Sensitivity)
	}
}
