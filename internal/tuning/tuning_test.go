package tuning

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"boltondp/internal/account"
	"boltondp/internal/account/compose"
	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/eval"
	"boltondp/internal/loss"
)

func TestGrid(t *testing.T) {
	g := Grid([]int{5, 10}, []int{50}, []float64{1e-4, 1e-3, 1e-2})
	if len(g) != 6 {
		t.Fatalf("grid size %d, want 6", len(g))
	}
	seen := map[string]bool{}
	for _, p := range g {
		if seen[p.String()] {
			t.Errorf("duplicate tuple %v", p)
		}
		seen[p.String()] = true
	}
}

func TestPaperGrid(t *testing.T) {
	g := PaperGrid()
	if len(g) != 6 {
		t.Fatalf("paper grid size %d, want 6 (2 k-values × 3 λ-values)", len(g))
	}
	for _, p := range g {
		if p.B != 50 {
			t.Errorf("paper grid batch %d, want 50", p.B)
		}
		if p.K != 5 && p.K != 10 {
			t.Errorf("paper grid k %d", p.K)
		}
	}
}

// centroid is a cheap deterministic trainer for tests.
func centroid(part *data.Dataset, p Params) (eval.Classifier, error) {
	w := make([]float64, part.Dim())
	for i := 0; i < part.Len(); i++ {
		x, y := part.At(i)
		for j := range w {
			w[j] += y * x[j]
		}
	}
	return &eval.Linear{W: w}, nil
}

func TestPrivateTuning(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := data.Synthetic(r, data.GenConfig{Name: "t", M: 3000, D: 5, Classes: 2, Spread: 0.4})
	grid := PaperGrid()
	res, err := PrivateCtx(context.Background(), d, grid, dp.Budget{Epsilon: 1}, nil, centroid, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil {
		t.Fatal("nil model")
	}
	if res.Index < 0 || res.Index >= len(grid) {
		t.Fatalf("index %d out of range", res.Index)
	}
	if res.Params != grid[res.Index] {
		t.Error("Params does not match Index")
	}
	// The validation portion has ~3000/7 rows; a centroid model on this
	// easy task should misclassify well under half of them.
	if res.Errors > 3000/7/2 {
		t.Errorf("chosen model has %d validation errors", res.Errors)
	}
}

func TestPrivateTuningErrors(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	d := data.Synthetic(r, data.GenConfig{Name: "t", M: 100, D: 3, Classes: 2, Spread: 0.4})
	grid := PaperGrid()
	if _, err := PrivateCtx(context.Background(), d, nil, dp.Budget{Epsilon: 1}, nil, centroid, r); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := PrivateCtx(context.Background(), d, grid, dp.Budget{Epsilon: 0}, nil, centroid, r); err == nil {
		t.Error("bad budget accepted")
	}
	if _, err := PrivateCtx(context.Background(), d, grid, dp.Budget{Epsilon: 1}, nil, nil, r); err == nil {
		t.Error("nil trainer accepted")
	}
	if _, err := PrivateCtx(context.Background(), d, grid, dp.Budget{Epsilon: 1}, nil, centroid, nil); err == nil {
		t.Error("nil rand accepted")
	}
	tiny := data.Synthetic(r, data.GenConfig{Name: "t", M: 8, D: 2, Classes: 2, Spread: 0.4})
	if _, err := PrivateCtx(context.Background(), tiny, grid, dp.Budget{Epsilon: 1}, nil, centroid, r); err == nil {
		t.Error("too-small dataset accepted")
	}
	boom := errors.New("boom")
	if _, err := PrivateCtx(context.Background(), d, []Params{{K: 1, B: 1, Lambda: 0}}, dp.Budget{Epsilon: 1}, nil,
		func(*data.Dataset, Params) (eval.Classifier, error) { return nil, boom }, r); !errors.Is(err, boom) {
		t.Errorf("trainer error not propagated: %v", err)
	}
}

// With a huge ε the exponential mechanism concentrates on the lowest
// error count; with ε→0 it is near-uniform. Check both regimes through
// the (unexported) picker via the public API: we craft trainers whose
// error counts we control by returning constant models.
func TestExponentialMechanismConcentration(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	// Dataset where w = (+1) predicts everything correctly.
	m := 400
	d := &data.Dataset{Name: "t", Classes: 2}
	for i := 0; i < m; i++ {
		d.X = append(d.X, []float64{1})
		d.Y = append(d.Y, 1)
	}
	grid := []Params{{K: 1, B: 1, Lambda: 0}, {K: 2, B: 1, Lambda: 0}}
	// Candidate 0 is perfect, candidate 1 is always wrong.
	train := func(part *data.Dataset, p Params) (eval.Classifier, error) {
		if p.K == 1 {
			return &eval.Linear{W: []float64{1}}, nil
		}
		return &eval.Linear{W: []float64{-1}}, nil
	}
	picks := [2]int{}
	for trial := 0; trial < 50; trial++ {
		res, err := PrivateCtx(context.Background(), d, grid, dp.Budget{Epsilon: 10}, nil, train, r)
		if err != nil {
			t.Fatal(err)
		}
		picks[res.Index]++
	}
	if picks[0] < 48 {
		t.Errorf("high-ε mechanism picked the perfect model only %d/50 times", picks[0])
	}
}

func TestPublicTuning(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	full := data.Synthetic(r, data.GenConfig{Name: "t", M: 2000, D: 5, Classes: 2, Spread: 0.4})
	train, public := full.Split(r, 0.7)
	res, err := Public(train, public, PaperGrid(), centroid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil {
		t.Fatal("nil model")
	}
	// Public tuning picks the argmin validation error; verify no grid
	// point does better than the chosen one.
	for _, p := range PaperGrid() {
		m, _ := centroid(train, p)
		if e := eval.Errors(public, m); e < res.Errors {
			t.Errorf("tuple %v has %d errors < chosen %d", p, e, res.Errors)
		}
	}
}

func TestPublicTuningErrors(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	d := data.Synthetic(r, data.GenConfig{Name: "t", M: 100, D: 3, Classes: 2, Spread: 0.4})
	if _, err := Public(d, d, nil, centroid); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := Public(d, d, PaperGrid(), nil); err == nil {
		t.Error("nil trainer accepted")
	}
}

// End-to-end: private tuning over the real private trainer (Algorithm 2
// inside Algorithm 3), the exact composition used for Figure 6.
func TestPrivateTuningWithPrivateSGD(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	d := data.Synthetic(r, data.GenConfig{Name: "t", M: 4000, D: 5, Classes: 2, Spread: 0.4})
	budget := dp.Budget{Epsilon: 1}
	train := func(part *data.Dataset, p Params) (eval.Classifier, error) {
		f := loss.NewLogistic(p.Lambda, 0)
		res, err := core.TrainCtx(context.Background(), part, f, core.WithConvexity(core.ConvexityStronglyConvex),
			core.WithBudget(budget),
			core.WithPasses(p.K),
			core.WithBatch(p.B),
			core.WithRadius(1/p.Lambda),
			core.WithRand(r))
		if err != nil {
			return nil, err
		}
		return &eval.Linear{W: res.W}, nil
	}
	res, err := PrivateCtx(context.Background(), d, PaperGrid(), budget, nil, train, r)
	if err != nil {
		t.Fatal(err)
	}
	if acc := eval.Accuracy(d, res.Model); acc < 0.6 {
		t.Errorf("tuned private model accuracy %v on easy data", acc)
	}
}

// engineFit is the TrainFunc a caller writes to route every grid
// candidate through core.TrainCtx — and therefore the execution engine:
// the tuple's (k, b) become passes/batch, λ parameterizes the loss, R
// follows the paper's 1/λ convention, base carries everything else.
func engineFit(ctx context.Context, base ...core.Option) TrainFunc {
	return func(part *data.Dataset, p Params) (eval.Classifier, error) {
		res, err := core.TrainCtx(ctx, part, loss.NewLogistic(p.Lambda, 0), append(base[:len(base):len(base)],
			core.WithPasses(p.K), core.WithBatch(p.B), core.WithRadius(1/p.Lambda))...)
		if err != nil {
			return nil, err
		}
		return &eval.Linear{W: res.W}, nil
	}
}

// An engine-backed TrainFunc must honor the strategy and worker count
// of its base options for every grid candidate.
func TestEngineTrainFunc(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	d := data.Synthetic(r, data.GenConfig{Name: "t", M: 4200, D: 4, Classes: 2, Spread: 0.3, Flip: 0.01})
	budget := dp.Budget{Epsilon: 2}

	for _, workers := range []int{1, 3} {
		strategy := engine.Sequential
		if workers > 1 {
			strategy = engine.Sharded
		}
		fit := engineFit(context.Background(), core.WithBudget(budget), core.WithStrategy(strategy, workers), core.WithRand(r))
		res, err := PrivateCtx(context.Background(), d, PaperGrid(), budget, nil, fit, r)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if acc := eval.Accuracy(d, res.Model); acc < 0.6 {
			t.Errorf("workers=%d: tuned engine model accuracy %v on easy data", workers, acc)
		}
	}

	// A candidate failure must surface with the tuple attached: workers
	// exceeding the portion size make core reject the run.
	fit := engineFit(context.Background(), core.WithBudget(budget), core.WithStrategy(engine.Sharded, 10000), core.WithRand(r))
	if _, err := PrivateCtx(context.Background(), d, PaperGrid(), budget, nil, fit, r); err == nil {
		t.Error("oversized worker count did not error")
	}
}

// PrivateCtx checks the context between candidates: cancelling after
// the k-th training run stops the grid there and returns ctx.Err().
func TestPrivateTuningCtxCancel(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	d := data.Synthetic(r, data.GenConfig{Name: "t", M: 3000, D: 5, Classes: 2, Spread: 0.4})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trained := 0
	train := func(part *data.Dataset, p Params) (eval.Classifier, error) {
		trained++
		if trained == 2 {
			cancel()
		}
		return centroid(part, p)
	}
	_, err := PrivateCtx(ctx, d, PaperGrid(), dp.Budget{Epsilon: 1}, nil, train, r)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if trained != 2 {
		t.Errorf("trained %d candidates after cancel at 2", trained)
	}
}

// PrivateCtx reserves the exponential-mechanism ε from the accountant
// before any candidate trains, and fails closed when it cannot.
func TestPrivateTuningAccountant(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	d := data.Synthetic(r, data.GenConfig{Name: "t", M: 3000, D: 5, Classes: 2, Spread: 0.4})
	acct := account.MustNew(dp.Budget{Epsilon: 1})
	res, err := PrivateCtx(context.Background(), d, PaperGrid(), dp.Budget{Epsilon: 0.4}, acct, centroid, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil {
		t.Fatal("nil model")
	}
	if got := acct.Spent(); got.Epsilon != 0.4 {
		t.Errorf("Spent = %v", got)
	}
	l := acct.Ledger()
	if len(l.Entries) != 1 || l.Entries[0].Label != "tune(6 candidates)" {
		t.Errorf("ledger: %+v", l.Entries)
	}

	// Overdraw fails closed: no candidate trains.
	trained := 0
	counting := func(part *data.Dataset, p Params) (eval.Classifier, error) {
		trained++
		return centroid(part, p)
	}
	_, err = PrivateCtx(context.Background(), d, PaperGrid(), dp.Budget{Epsilon: 0.7}, acct, counting, r)
	if !errors.Is(err, account.ErrOverdraw) {
		t.Fatalf("err = %v, want account.ErrOverdraw", err)
	}
	if trained != 0 {
		t.Errorf("over-budget tune trained %d candidates", trained)
	}
}

// A TrainFunc that hands its ctx to core.TrainCtx makes the candidate
// runs themselves cancellable: a pre-cancelled context stops the first
// candidate inside the engine.
func TestEngineTrainFuncCtx(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	d := data.Synthetic(r, data.GenConfig{Name: "t", M: 3000, D: 5, Classes: 2, Spread: 0.4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	train := engineFit(ctx, core.WithBudget(dp.Budget{Epsilon: 1}), core.WithRand(r))
	// The tuner's own pre-candidate check also trips; bypass it by
	// calling the TrainFunc directly to pin the engine-level path.
	_, err := train(d, Params{K: 2, B: 10, Lambda: 1e-3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A pure tuning spend is reserved as a pure event, so advanced/RDP
// accountants compose a long sequence of small selections sublinearly:
// after the same 30 tunes the tighter rules must report strictly more
// remaining budget than simple composition — and simple's ledger stays
// entry-identical to the pre-typed Reserve path.
func TestPrivateTuningRuleAwareHeadroom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := data.Synthetic(r, data.GenConfig{Name: "t", M: 3000, D: 5, Classes: 2, Spread: 0.4})
	grid := Grid([]int{5}, []int{50}, []float64{1e-3, 1e-2})
	total := dp.Budget{Epsilon: 4, Delta: 1e-6}
	const rounds = 30
	const eps = 0.1

	spend := func(rule string) *account.Accountant {
		acct, err := account.NewWithRule(rule, total)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rounds; i++ {
			if _, err := PrivateCtx(context.Background(), d, grid, dp.Budget{Epsilon: eps}, acct, centroid, r); err != nil {
				t.Fatalf("rule %s, round %d: %v", rule, i, err)
			}
		}
		return acct
	}

	simple := spend(compose.RuleSimple)
	advanced := spend(compose.RuleAdvanced)
	rdp := spend(compose.RuleRDP)

	if got := simple.Spent(); math.Abs(got.Epsilon-rounds*eps) > 1e-12 {
		t.Fatalf("simple spent %v, want %v", got.Epsilon, rounds*eps)
	}
	rs, ra, rr := simple.Remaining(), advanced.Remaining(), rdp.Remaining()
	if !(ra.Epsilon > rs.Epsilon) {
		t.Errorf("advanced headroom %v not above simple %v", ra.Epsilon, rs.Epsilon)
	}
	if !(rr.Epsilon > rs.Epsilon) {
		t.Errorf("rdp headroom %v not above simple %v", rr.Epsilon, rs.Epsilon)
	}
	t.Logf("remaining ε after %d tunes of %v: simple %.4f, advanced %.4f, rdp %.4f",
		rounds, eps, rs.Epsilon, ra.Epsilon, rr.Epsilon)

	// Simple-rule bit-compat: the typed pure reservation produced the
	// same entries a plain Reserve sequence records.
	plain := account.MustNew(total)
	for i := 0; i < rounds; i++ {
		if err := plain.Reserve("tune(2 candidates)", dp.Budget{Epsilon: eps}); err != nil {
			t.Fatal(err)
		}
	}
	if !simple.Ledger().Same(plain.Ledger()) {
		t.Fatal("simple-rule tuning ledger diverged from plain Reserve sequence")
	}
}
