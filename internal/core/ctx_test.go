package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"boltondp/internal/account"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
)

// cancelAfterSamples wraps a Samples source and cancels a context the
// n-th time a row is accessed — a deterministic mid-run cancellation
// trigger. The counter is atomic so sharded (concurrent) runs can use
// it too.
type cancelAfterSamples struct {
	s      sgd.Samples
	n      int64
	count  atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAfterSamples) Len() int { return c.s.Len() }
func (c *cancelAfterSamples) Dim() int { return c.s.Dim() }
func (c *cancelAfterSamples) At(i int) ([]float64, float64) {
	if c.count.Add(1) == c.n {
		c.cancel()
	}
	return c.s.At(i)
}

// A mid-run cancellation must stop Train within one epoch slice,
// returning ctx.Err() — pinned for all three execution strategies (the
// third acceptance criterion of the context plumbing).
func TestTrainCtxCancelMidRunPerStrategy(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ds, _ := data.ProteinSim(r, 0.05) // m ≈ 3.6k
	m := int64(ds.Len())
	f := loss.NewLogistic(1e-2, 0)

	for _, tc := range []struct {
		name     string
		strategy engine.Strategy
		workers  int
		passes   int
	}{
		{"sequential", engine.Sequential, 1, 50},
		{"sharded", engine.Sharded, 4, 50},
		{"streaming", engine.Streaming, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Cancel partway through the second epoch (first and only
			// pass for streaming).
			src := &cancelAfterSamples{s: ds, n: m + m/2, cancel: cancel}
			if tc.strategy == engine.Streaming {
				src.n = m / 2
			}
			_, err := TrainCtx(ctx, src, f,
				WithBudget(dp.Budget{Epsilon: 1}),
				WithPasses(tc.passes), WithBatch(10), WithRadius(100),
				WithStrategy(tc.strategy, tc.workers),
				WithRand(rand.New(rand.NewSource(1))))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// "Within one epoch slice": the run must not have plowed
			// through anywhere near all passes·m row accesses after the
			// cancel. Two epochs of slack absorbs the in-flight epoch
			// (sharded workers finish their current pass) plus Progress-style
			// full-set evaluations.
			if got := src.count.Load(); got > src.n+2*m {
				t.Errorf("run continued after cancel: %d row accesses (cancel at %d, m=%d)", got, src.n, m)
			}
		})
	}
}

// An already-expired deadline stops the run before any row is read.
func TestTrainCtxDeadlineBeforeWork(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	ds, _ := data.ProteinSim(r, 0.02)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	src := &cancelAfterSamples{s: ds, n: -1, cancel: func() {}}
	_, err := TrainCtx(ctx, src, loss.NewLogistic(1e-2, 0),
		WithBudget(dp.Budget{Epsilon: 1}),
		WithPasses(3), WithBatch(10), WithRadius(100),
		WithRand(rand.New(rand.NewSource(1))))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := src.count.Load(); got != 0 {
		t.Errorf("expired context still read %d rows", got)
	}
}

// An over-budget accountant draw must fail closed BEFORE any training
// work: the error arrives with zero row accesses (the second
// acceptance criterion).
func TestTrainAccountantOverdrawBeforeWork(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ds, _ := data.ProteinSim(r, 0.02)
	src := &cancelAfterSamples{s: ds, n: -1, cancel: func() {}}

	acct := account.MustNew(dp.Budget{Epsilon: 1})
	if err := acct.Reserve("earlier run", dp.Budget{Epsilon: 0.8}); err != nil {
		t.Fatal(err)
	}
	_, err := TrainCtx(context.Background(), src, loss.NewLogistic(1e-2, 0),
		WithBudget(dp.Budget{Epsilon: 0.5}), // only 0.2 remains
		WithAccountant(acct),
		WithPasses(3), WithBatch(10), WithRadius(100),
		WithRand(rand.New(rand.NewSource(1))))
	if !errors.Is(err, account.ErrOverdraw) {
		t.Fatalf("err = %v, want account.ErrOverdraw", err)
	}
	if got := src.count.Load(); got != 0 {
		t.Errorf("over-budget run still read %d rows", got)
	}
	// The convex algorithm fails closed the same way.
	_, err = TrainCtx(context.Background(), src, loss.NewLogistic(0, 0), WithConvexity(ConvexityConvex),
		WithBudget(dp.Budget{Epsilon: 0.5}), WithAccountant(acct),
		WithPasses(2), WithBatch(10), WithRadius(100),
		WithRand(rand.New(rand.NewSource(1))))
	if !errors.Is(err, account.ErrOverdraw) {
		t.Fatalf("convex err = %v, want account.ErrOverdraw", err)
	}
	if got := src.count.Load(); got != 0 {
		t.Errorf("over-budget convex run still read %d rows", got)
	}

	// Drawing the remainder (no WithBudget) from an EXHAUSTED
	// accountant reports the same error identity, not a zero-ε
	// validation error.
	drained := account.MustNew(dp.Budget{Epsilon: 1})
	if err := drained.Reserve("all", dp.Budget{Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	_, err = TrainCtx(context.Background(), src, loss.NewLogistic(1e-2, 0),
		WithAccountant(drained),
		WithPasses(1), WithBatch(10), WithRadius(100),
		WithRand(rand.New(rand.NewSource(1))))
	if !errors.Is(err, account.ErrOverdraw) {
		t.Fatalf("exhausted-remainder err = %v, want account.ErrOverdraw", err)
	}
	if got := src.count.Load(); got != 0 {
		t.Errorf("exhausted-accountant run still read %d rows", got)
	}
}

// A granted draw debits the accountant, records a ledger entry, and
// still trains correctly; WithAccountant alone draws the remainder.
func TestTrainAccountantDrawsAndLedgers(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	ds, _ := data.ProteinSim(r, 0.02)
	f := loss.NewLogistic(1e-2, 0)
	acct := account.MustNew(dp.Budget{Epsilon: 2})

	res, err := TrainCtx(context.Background(), ds, f,
		WithBudget(dp.Budget{Epsilon: 0.5}), WithAccountant(acct),
		WithSpendLabel("half"),
		WithPasses(2), WithBatch(10), WithRadius(100), WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.W) != ds.Dim() {
		t.Fatalf("model dim %d", len(res.W))
	}
	if got := acct.Spent(); got.Epsilon != 0.5 {
		t.Errorf("Spent = %v", got)
	}

	// Budget-less draw takes everything that remains (ε = 1.5).
	res, err = TrainCtx(context.Background(), ds, f,
		WithAccountant(acct),
		WithPasses(2), WithBatch(10), WithRadius(100), WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.W) != ds.Dim() {
		t.Fatalf("model dim %d", len(res.W))
	}
	if rem := acct.Remaining(); rem.Epsilon != 0 {
		t.Errorf("Remaining = %v", rem)
	}
	l := acct.Ledger()
	if len(l.Entries) != 2 || l.Entries[0].Label != "half" || l.Entries[1].Label != "train("+f.Name()+")" {
		t.Fatalf("ledger: %+v", l.Entries)
	}
	if l.Entries[1].Epsilon != 1.5 {
		t.Errorf("remainder draw ε = %v, want 1.5", l.Entries[1].Epsilon)
	}
}

// The Progress hook reports one (epoch, risk) pair per pass, risks
// non-increasing-ish over a strongly convex run, and TrainCtx with a
// background context behaves exactly like Train.
func TestTrainCtxProgressHook(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ds, _ := data.ProteinSim(r, 0.02)
	f := loss.NewLogistic(1e-2, 0)
	var epochs []int
	var risks []float64
	_, err := TrainCtx(context.Background(), ds, f,
		WithBudget(dp.Budget{Epsilon: 1}),
		WithPasses(4), WithBatch(10), WithRadius(100),
		WithProgress(func(e int, risk float64) {
			epochs = append(epochs, e)
			risks = append(risks, risk)
		}),
		WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 4 {
		t.Fatalf("progress calls: %v", epochs)
	}
	for i, e := range epochs {
		if e != i+1 {
			t.Errorf("epoch numbering: %v", epochs)
			break
		}
	}
	if risks[len(risks)-1] >= risks[0] {
		t.Errorf("risk did not decrease: %v", risks)
	}
}

// The sharded strategy reports progress on the merged model, once per
// merge epoch.
func TestTrainCtxProgressHookSharded(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	ds, _ := data.ProteinSim(r, 0.05)
	calls := 0
	_, err := TrainCtx(context.Background(), ds, loss.NewLogistic(1e-2, 0),
		WithBudget(dp.Budget{Epsilon: 1}),
		WithPasses(3), WithBatch(10), WithRadius(100),
		WithStrategy(engine.Sharded, 4),
		WithProgress(func(e int, risk float64) { calls++ }),
		WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("sharded progress calls = %d, want 3 (one per merge epoch)", calls)
	}
}
