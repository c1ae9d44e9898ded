package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"boltondp/internal/account"
	"boltondp/internal/dp"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
)

// countingSamples wraps a Samples and counts row reads — the probe the
// fail-closed contracts are pinned with.
type countingSamples struct {
	s     sgd.Samples
	reads int
}

func (c *countingSamples) Len() int { return c.s.Len() }
func (c *countingSamples) Dim() int { return c.s.Dim() }
func (c *countingSamples) At(i int) ([]float64, float64) {
	c.reads++
	return c.s.At(i)
}

func wEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestContinualWindowsLedger: N windows spend at most the total, every
// window is audited in the ledger, and the (N+1)-th retrain fails
// closed with ErrOverdraw before a single row read.
func TestContinualWindowsLedger(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := separable(r, 400, 5)
	total := dp.Budget{Epsilon: 2, Delta: 1e-6}
	const N = 3

	tr, err := NewContinualRDP(total, N, loss.NewLogistic(1e-2, 0),
		WithPasses(1), WithBatch(20), WithRadius(100), WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.WindowBudget(); got.Epsilon <= 0 {
		t.Fatalf("WindowBudget = %v", got)
	}

	for i := 0; i < N; i++ {
		res, err := tr.Retrain(context.Background(), s)
		if err != nil {
			t.Fatalf("window %d: %v", i+1, err)
		}
		if res == nil || len(res.W) != s.Dim() {
			t.Fatalf("window %d returned no model", i+1)
		}
		if tr.Window() != i+1 {
			t.Fatalf("Window() = %d after %d retrains", tr.Window(), i+1)
		}
		if !wEqual(tr.Weights(), res.W) {
			t.Fatalf("window %d: trainer warm-start not updated to the released model", i+1)
		}
	}

	l := tr.Ledger()
	if len(l.Entries) != N {
		t.Fatalf("ledger has %d entries, want %d", len(l.Entries), N)
	}
	var sum float64
	for i, e := range l.Entries {
		want := "window[" + string(rune('1'+i)) + "/3]"
		if e.Label != want {
			t.Errorf("entry %d label %q, want %q", i, e.Label, want)
		}
		sum += e.Epsilon
	}
	if sum > total.Epsilon*(1+1e-9) {
		t.Errorf("window spends sum to ε=%v, over total %v", sum, total.Epsilon)
	}
	if sp := l.Spent(); sp.Epsilon > total.Epsilon*(1+1e-9) || sp.Delta > total.Delta*(1+1e-9) {
		t.Errorf("composed spend %v exceeds total %v", sp, total)
	}

	// Window N+1 fails closed: ErrOverdraw identity, zero row reads.
	cs := &countingSamples{s: s}
	if _, err := tr.Retrain(context.Background(), cs); !errors.Is(err, account.ErrOverdraw) {
		t.Fatalf("window %d = %v, want ErrOverdraw", N+1, err)
	}
	if cs.reads != 0 {
		t.Errorf("over-budget retrain read %d rows, want 0", cs.reads)
	}
}

// TestContinualResume: a trainer rebuilt from a restored accountant
// continues the window sequence — same per-window budget, same next
// index — instead of re-splitting the smaller remainder.
func TestContinualResume(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s := separable(r, 300, 4)
	f := loss.NewLogistic(1e-2, 0)
	total := dp.Budget{Epsilon: 3, Delta: 1e-6}
	const N = 4

	tr, err := NewContinualRDP(total, N, f, WithPasses(1), WithBatch(10), WithRadius(100), WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := tr.Retrain(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}

	// Simulate a restart: ledger travels with the model, accountant and
	// trainer are rebuilt from it.
	acct, err := account.Restore(tr.Ledger())
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := NewContinualTrainer(acct, N, f, WithPasses(1), WithBatch(10), WithRadius(100), WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Window() != 2 {
		t.Fatalf("resumed Window() = %d, want 2", tr2.Window())
	}
	if tr2.WindowBudget() != tr.WindowBudget() {
		t.Fatalf("resumed WindowBudget = %v, want %v", tr2.WindowBudget(), tr.WindowBudget())
	}
	tr2.SetWarmStart(tr.Weights())

	for i := 2; i < N; i++ {
		if _, err := tr2.Retrain(context.Background(), s); err != nil {
			t.Fatalf("resumed window %d: %v", i+1, err)
		}
	}
	if _, err := tr2.Retrain(context.Background(), s); !errors.Is(err, account.ErrOverdraw) {
		t.Fatalf("resumed window %d = %v, want ErrOverdraw", N+1, err)
	}
	if got := len(tr2.Ledger().Entries); got != N {
		t.Fatalf("resumed ledger has %d entries, want %d", got, N)
	}

	// A trainer configured for fewer windows than the ledger records is
	// rejected rather than silently over-spending.
	if _, err := NewContinualTrainer(acct, 1, f); err == nil {
		t.Error("NewContinualTrainer accepted windows < recorded spends")
	}
}

// TestWarmStartParity pins the divergence contract: with the same seed,
// a warm start from the origin is bit-identical to a scratch run (the
// origin IS the scratch start), while a warm start from a nonzero
// released model produces a different iterate — warm starting changes
// the trajectory, not the guarantee.
func TestWarmStartParity(t *testing.T) {
	s := separable(rand.New(rand.NewSource(3)), 500, 6)
	f := loss.NewLogistic(1e-2, 0)
	run := func(w0 []float64) *Result {
		r := rand.New(rand.NewSource(42))
		res, err := TrainCtx(context.Background(), s, f,
			WithBudget(dp.Budget{Epsilon: 1}),
			WithPasses(2), WithBatch(25), WithRadius(100),
			WithWarmStart(w0), WithRand(r))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	scratch := run(nil)
	origin := run(make([]float64, s.Dim()))
	if !wEqual(scratch.W, origin.W) || !wEqual(scratch.NonPrivate, origin.NonPrivate) {
		t.Error("warm start from the origin is not bit-identical to a scratch run")
	}

	warm := run(scratch.W)
	if wEqual(warm.NonPrivate, scratch.NonPrivate) {
		t.Error("warm start from a nonzero model did not change the trajectory")
	}
	if warm.Sensitivity != scratch.Sensitivity {
		t.Errorf("warm start changed the sensitivity: %v vs %v", warm.Sensitivity, scratch.Sensitivity)
	}
}

// TestConvexityValidation: forcing Algorithm 2 on a merely convex loss
// fails, and out-of-range Convexity values are rejected.
func TestConvexityValidation(t *testing.T) {
	s := separable(rand.New(rand.NewSource(2)), 100, 3)
	r := rand.New(rand.NewSource(2))
	_, err := TrainCtx(context.Background(), s, loss.NewLogistic(0, 0),
		WithConvexity(ConvexityStronglyConvex),
		WithBudget(dp.Budget{Epsilon: 1}), WithRand(r))
	if err == nil || !strings.Contains(err.Error(), "strongly convex") {
		t.Errorf("forcing Algorithm 2 on γ=0 loss: %v", err)
	}
	_, err = TrainCtx(context.Background(), s, loss.NewLogistic(0, 0),
		WithConvexity(Convexity(17)),
		WithBudget(dp.Budget{Epsilon: 1}), WithRand(r))
	if err == nil || !strings.Contains(err.Error(), "Convexity") {
		t.Errorf("out-of-range Convexity: %v", err)
	}
	for c, want := range map[Convexity]string{
		convexityAuto: "auto", ConvexityConvex: "convex",
		ConvexityStronglyConvex: "strongly-convex", Convexity(9): "Convexity(9)",
	} {
		if got := c.String(); got != want {
			t.Errorf("Convexity(%d).String() = %q, want %q", int(c), got, want)
		}
	}
}
