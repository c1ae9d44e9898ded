package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
)

func strategyDataset(seed int64, m, d int) *data.Dataset {
	r := rand.New(rand.NewSource(seed))
	return data.Synthetic(r, data.GenConfig{Name: "t", M: m, D: d, Classes: 2, Spread: 0.4, Flip: 0.02})
}

// Sharded strongly convex training must report exactly the sequential
// sensitivity when the shards are equal — privacy-free parallelism at
// the Options level.
func TestShardedSensitivityMatchesSequential(t *testing.T) {
	ds := strategyDataset(1, 1000, 4)
	lambda := 1e-2
	f := loss.NewLogistic(lambda, 0)
	p := f.Params()

	seq, err := TrainCtx(context.Background(), ds, f,
		WithBudget(dp.Budget{Epsilon: 1}), WithPasses(2), WithBatch(5), WithRadius(1/lambda),
		WithRand(rand.New(rand.NewSource(2))))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := TrainCtx(context.Background(), ds, f,
		WithBudget(dp.Budget{Epsilon: 1}), WithPasses(2), WithBatch(5), WithRadius(1/lambda),
		WithStrategy(engine.Sharded, 5),
		WithRand(rand.New(rand.NewSource(2))))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seq.Sensitivity-sh.Sensitivity) > 1e-15 {
		t.Errorf("sharded Δ₂ %v != sequential %v", sh.Sensitivity, seq.Sensitivity)
	}
	if want := dp.SensitivityStronglyConvex(p.L, p.Gamma, 1000); math.Abs(sh.Sensitivity-want) > 1e-15 {
		t.Errorf("sharded Δ₂ %v, want %v", sh.Sensitivity, want)
	}
}

// The convex constant-step sharded sensitivity gains the full 1/P.
func TestShardedConvexSensitivityDividesByWorkers(t *testing.T) {
	ds := strategyDataset(3, 900, 4)
	f := loss.NewLogistic(0, 0)
	p := f.Params()
	workers := 3
	res, err := TrainCtx(context.Background(), ds, f,
		WithBudget(dp.Budget{Epsilon: 1}), WithPasses(2), WithBatch(5),
		WithStrategy(engine.Sharded, workers),
		WithRand(rand.New(rand.NewSource(4))))
	if err != nil {
		t.Fatal(err)
	}
	// Default η = 1/√minShard, clamped to 2/β.
	eta := math.Min(1/math.Sqrt(300), 2/p.Beta)
	want := dp.SensitivityConvexConstant(p.L, eta, 2, 5) / float64(workers)
	if math.Abs(res.Sensitivity-want) > 1e-15 {
		t.Errorf("convex sharded Δ₂ %v, want %v", res.Sensitivity, want)
	}
}

// Streaming is pinned to one pass and must work without shuffling
// memory: k > 1 is rejected, k = 1 (or defaulted) succeeds with the
// one-pass sensitivity.
func TestStreamingStrategy(t *testing.T) {
	s := data.NewStream(5, 600, 4, 0.4, 0)
	lambda := 1e-2
	f := loss.NewLogistic(lambda, 0)
	p := f.Params()

	if _, err := TrainCtx(context.Background(), s, f,
		WithBudget(dp.Budget{Epsilon: 1}), WithPasses(3), WithRadius(1/lambda),
		WithStrategy(engine.Streaming, 0), WithRand(rand.New(rand.NewSource(6)))); err == nil {
		t.Error("multi-pass streaming accepted")
	}

	res, err := TrainCtx(context.Background(), s, f,
		WithBudget(dp.Budget{Epsilon: 1}), WithBatch(5), WithRadius(1/lambda),
		WithStrategy(engine.Streaming, 0), WithRand(rand.New(rand.NewSource(7))))
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 1 {
		t.Errorf("streaming ran %d passes", res.Passes)
	}
	if want := dp.SensitivityStronglyConvex(p.L, p.Gamma, 600); math.Abs(res.Sensitivity-want) > 1e-15 {
		t.Errorf("streaming Δ₂ %v, want %v", res.Sensitivity, want)
	}
}

// PaperBatchSensitivity must divide by the batch size that actually
// ran, not the requested one: a batch larger than the (shard) size is
// clamped before the Δ₂ = 2L/(γnb) division, so the noise is never
// calibrated to updates that did not happen.
func TestPaperBatchSensitivityClampsBatch(t *testing.T) {
	ds := strategyDataset(20, 1000, 4)
	lambda := 1e-2
	f := loss.NewLogistic(lambda, 0)
	p := f.Params()

	for _, tc := range []struct {
		name              string
		opts              []Option
		workers, wantN, b int // averaging divisor, effective size and clamped batch the Δ₂ must use
	}{
		{"sequential batch>m", []Option{WithBatch(5000)}, 1, 1000, 1000},
		{"sharded batch>minShard", []Option{WithStrategy(engine.Sharded, 10), WithBatch(500)}, 10, 100, 100},
	} {
		res, err := TrainCtx(context.Background(), ds, f, append(tc.opts,
			WithBudget(dp.Budget{Epsilon: 1}),
			WithPasses(2),
			WithRadius(1/lambda),
			WithPaperBatchSensitivity(),
			WithRand(rand.New(rand.NewSource(21))))...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := dp.SensitivityStronglyConvexPaperBatch(p.L, p.Gamma, tc.wantN, tc.b) / float64(tc.workers)
		if math.Abs(res.Sensitivity-want) > 1e-18 {
			t.Errorf("%s: Δ₂ %v, want %v (batch must clamp to %d)", tc.name, res.Sensitivity, want, tc.b)
		}
	}
}

func TestStrategyOptionValidation(t *testing.T) {
	ds := strategyDataset(8, 100, 3)
	f := loss.NewLogistic(1e-2, 0)
	if _, err := TrainCtx(context.Background(), ds, f,
		WithBudget(dp.Budget{Epsilon: 1}), WithStrategy(engine.Sequential, 4), // Sequential + Workers
		WithRand(rand.New(rand.NewSource(9)))); err == nil {
		t.Error("Workers without Sharded strategy accepted")
	}
	if _, err := TrainCtx(context.Background(), ds, f,
		WithBudget(dp.Budget{Epsilon: 1}), WithStrategy(engine.Sharded, 101),
		WithRand(rand.New(rand.NewSource(10)))); err == nil {
		t.Error("more workers than rows accepted")
	}
	if _, err := TrainCtx(context.Background(), ds, f,
		WithBudget(dp.Budget{Epsilon: 1}), WithStrategy(engine.Sequential, -1),
		WithRand(rand.New(rand.NewSource(11)))); err == nil {
		t.Error("negative workers accepted")
	}
}

// A sharded private run should still produce a usable classifier at a
// generous budget — plumbing check from Options down to the engine.
func TestShardedTrainAccuracy(t *testing.T) {
	ds := strategyDataset(12, 2000, 5)
	lambda := 1e-2
	f := loss.NewLogistic(lambda, 0)
	res, err := TrainCtx(context.Background(), ds, f,
		WithBudget(dp.Budget{Epsilon: 5}), WithPasses(5), WithBatch(10), WithRadius(1/lambda),
		WithStrategy(engine.Sharded, 4),
		WithRand(rand.New(rand.NewSource(13))))
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < ds.Len(); i++ {
		x, y := ds.At(i)
		var dot float64
		for j := range x {
			dot += res.W[j] * x[j]
		}
		if math.Copysign(1, dot) == y {
			correct++
		}
	}
	if acc := float64(correct) / float64(ds.Len()); acc < 0.85 {
		t.Errorf("sharded private accuracy %.3f", acc)
	}
}
