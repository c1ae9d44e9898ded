package account

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"boltondp/internal/dp"
)

func TestNewValidatesBudget(t *testing.T) {
	if _, err := New(dp.Budget{Epsilon: 0}); err == nil {
		t.Error("zero-ε total accepted")
	}
	if _, err := New(dp.Budget{Epsilon: 1, Delta: 1}); err == nil {
		t.Error("δ=1 total accepted")
	}
	a, err := New(dp.Budget{Epsilon: 1, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Total(); got != (dp.Budget{Epsilon: 1, Delta: 1e-6}) {
		t.Errorf("Total = %v", got)
	}
	if got := a.Remaining(); got != a.Total() {
		t.Errorf("fresh Remaining = %v", got)
	}
}

func TestReserveDebitsAndLedgers(t *testing.T) {
	a := MustNew(dp.Budget{Epsilon: 1, Delta: 1e-4})
	if err := a.Reserve("first", dp.Budget{Epsilon: 0.25, Delta: 2e-5}); err != nil {
		t.Fatal(err)
	}
	if err := a.Reserve("second", dp.Budget{Epsilon: 0.5, Delta: 4e-5}); err != nil {
		t.Fatal(err)
	}
	spent := a.Spent()
	if spent.Epsilon != 0.75 || math.Abs(spent.Delta-6e-5) > 1e-18 {
		t.Errorf("Spent = %v", spent)
	}
	rem := a.Remaining()
	if math.Abs(rem.Epsilon-0.25) > 1e-15 || math.Abs(rem.Delta-4e-5) > 1e-18 {
		t.Errorf("Remaining = %v", rem)
	}
	l := a.Ledger()
	if len(l.Entries) != 2 || l.Entries[0].Label != "first" || l.Entries[1].Label != "second" {
		t.Fatalf("ledger entries: %+v", l.Entries)
	}
	if l.Entries[1].Budget() != (dp.Budget{Epsilon: 0.5, Delta: 4e-5}) {
		t.Errorf("entry budget: %+v", l.Entries[1])
	}
}

// Fail-closed is the load-bearing property: an over-budget request must
// error, debit nothing, and leave the ledger untouched.
func TestReserveFailsClosedOnOverdraw(t *testing.T) {
	a := MustNew(dp.Budget{Epsilon: 1})
	if err := a.Reserve("ok", dp.Budget{Epsilon: 0.8}); err != nil {
		t.Fatal(err)
	}
	err := a.Reserve("too much", dp.Budget{Epsilon: 0.5})
	if !errors.Is(err, ErrOverdraw) {
		t.Fatalf("overdraw err = %v, want ErrOverdraw", err)
	}
	if got := a.Spent(); got.Epsilon != 0.8 {
		t.Errorf("refused reservation debited: Spent = %v", got)
	}
	if l := a.Ledger(); len(l.Entries) != 1 {
		t.Errorf("refused reservation ledgered: %+v", l.Entries)
	}
	// δ overdraws fail closed too, even with ε to spare.
	b := MustNew(dp.Budget{Epsilon: 10, Delta: 1e-6})
	if err := b.Reserve("delta hog", dp.Budget{Epsilon: 0.1, Delta: 1e-5}); !errors.Is(err, ErrOverdraw) {
		t.Errorf("δ overdraw err = %v", err)
	}
	// A pure-ε accountant can never grant δ > 0.
	c := MustNew(dp.Budget{Epsilon: 1})
	if err := c.Reserve("needs delta", dp.Budget{Epsilon: 0.1, Delta: 1e-9}); !errors.Is(err, ErrOverdraw) {
		t.Errorf("δ-from-pure err = %v", err)
	}
}

func TestReserveRejectsInvalidBudgets(t *testing.T) {
	a := MustNew(dp.Budget{Epsilon: 1})
	if err := a.Reserve("zero", dp.Budget{}); err == nil {
		t.Error("zero budget accepted")
	}
	if err := a.Reserve("negative", dp.Budget{Epsilon: -1}); err == nil {
		t.Error("negative budget accepted")
	}
	if got := a.Spent(); got.Epsilon != 0 {
		t.Errorf("invalid requests debited: %v", got)
	}
}

// Split children must recombine into the parent exactly: reserving all
// n children of Budget.Split(n) against an accountant of the parent
// budget must succeed for awkward n, and exhaust it.
func TestSplitChildrenRecombine(t *testing.T) {
	for _, n := range []int{1, 3, 7, 10, 30} {
		total := dp.Budget{Epsilon: 0.3, Delta: 1e-5}
		a := MustNew(total)
		child := total.Split(n)
		for i := 0; i < n; i++ {
			if err := a.Reserve(fmt.Sprintf("part %d", i), child); err != nil {
				t.Fatalf("n=%d: part %d refused: %v", n, i, err)
			}
		}
		// The accountant is (effectively) exhausted: nothing material
		// can still be granted.
		if err := a.Reserve("extra", dp.Budget{Epsilon: total.Epsilon / float64(10*n)}); !errors.Is(err, ErrOverdraw) {
			t.Errorf("n=%d: post-recombination reservation granted: %v", n, err)
		}
	}
}

func TestAccountantSplit(t *testing.T) {
	a := MustNew(dp.Budget{Epsilon: 10, Delta: 1e-4})
	if err := a.Reserve("head", dp.Budget{Epsilon: 2, Delta: 2e-5}); err != nil {
		t.Fatal(err)
	}
	parts, err := a.Split("onevsall", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("Split returned %d parts", len(parts))
	}
	for _, p := range parts {
		if p.Epsilon != 2 || p.Delta != 2e-5 {
			t.Errorf("child = %v, want (ε=2, δ=2e-05)", p)
		}
	}
	// Split drains the accountant completely.
	if rem := a.Remaining(); rem.Epsilon != 0 || rem.Delta != 0 {
		t.Errorf("Remaining after Split = %v", rem)
	}
	if err := a.Reserve("straggler", dp.Budget{Epsilon: 1e-6}); !errors.Is(err, ErrOverdraw) {
		t.Errorf("post-Split reservation granted: %v", err)
	}
	if _, err := a.Split("again", 2); !errors.Is(err, ErrOverdraw) {
		t.Errorf("second Split granted: %v", err)
	}
	l := a.Ledger()
	if len(l.Entries) != 5 { // head + 4 children
		t.Fatalf("ledger: %+v", l.Entries)
	}
	if l.Entries[1].Label != "onevsall[1/4]" || l.Entries[4].Label != "onevsall[4/4]" {
		t.Errorf("child labels: %q, %q", l.Entries[1].Label, l.Entries[4].Label)
	}
}

func TestSplitRejectsBadN(t *testing.T) {
	a := MustNew(dp.Budget{Epsilon: 1})
	for _, n := range []int{0, -1, -10} {
		if _, err := a.Split("bad", n); err == nil {
			t.Errorf("Split(%d) accepted", n)
		}
	}
	if rem := a.Remaining(); rem.Epsilon != 1 {
		t.Errorf("failed Split debited: %v", rem)
	}
}

func TestLedgerMetaRoundTrip(t *testing.T) {
	a := MustNew(dp.Budget{Epsilon: 2, Delta: 1e-5})
	if err := a.Reserve("train(logistic)", dp.Budget{Epsilon: 1.5, Delta: 1e-5}); err != nil {
		t.Fatal(err)
	}
	meta := map[string]string{"loss": "logistic"}
	if err := a.StampMeta(meta); err != nil {
		t.Fatal(err)
	}
	if meta["dp.total"] != "(ε=2, δ=1e-05)" || meta["dp.spent"] != "(ε=1.5, δ=1e-05)" {
		t.Errorf("summary keys: total=%q spent=%q", meta["dp.total"], meta["dp.spent"])
	}
	l, ok, err := LedgerFromMeta(meta)
	if err != nil || !ok {
		t.Fatalf("LedgerFromMeta: ok=%v err=%v", ok, err)
	}
	if l.Total() != a.Total() || l.Spent() != a.Spent() {
		t.Errorf("round-trip: total %v spent %v", l.Total(), l.Spent())
	}
	if len(l.Entries) != 1 || l.Entries[0].Label != "train(logistic)" || l.Entries[0].Epsilon != 1.5 {
		t.Errorf("round-trip entries: %+v", l.Entries)
	}
	// Absent and corrupt ledgers are distinguishable.
	if _, ok, err := LedgerFromMeta(map[string]string{}); ok || err != nil {
		t.Errorf("empty meta: ok=%v err=%v", ok, err)
	}
	if _, ok, err := LedgerFromMeta(map[string]string{metaKey: "{broken"}); !ok || err == nil {
		t.Errorf("corrupt ledger: ok=%v err=%v", ok, err)
	}
}

// Concurrent reservations must serialize correctly: exactly the
// affordable number are granted, and spent never exceeds the total.
func TestConcurrentReservations(t *testing.T) {
	a := MustNew(dp.Budget{Epsilon: 1})
	const workers = 32
	granted := make([]bool, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			granted[i] = a.Reserve("p", dp.Budget{Epsilon: 0.1}) == nil
		}(i)
	}
	wg.Wait()
	n := 0
	for _, g := range granted {
		if g {
			n++
		}
	}
	if n != 10 {
		t.Errorf("granted %d of 32 ε=0.1 reservations from ε=1, want 10", n)
	}
	if got := a.Spent(); got.Epsilon > 1+1e-9 {
		t.Errorf("overspent: %v", got)
	}
	if l := a.Ledger(); len(l.Entries) != n {
		t.Errorf("ledger has %d entries, granted %d", len(l.Entries), n)
	}
}
