// Package account implements the privacy-budget accountant: a single
// owner for a total (ε, δ) differential-privacy budget from which every
// private computation in a workflow must draw its spend.
//
// The paper's own workflows compose many private releases — the private
// tuning procedure of Algorithm 3 trains one candidate per grid point,
// the one-vs-all construction of §4.3 trains one binary model per class
// — and their end-to-end guarantee is the composition of the pieces.
// How the pieces compose is pluggable (internal/account/compose): the
// historical rule is simple composition ([17] in the paper — ε and δ
// both sum), and the accountant can instead run Kairouz-style advanced
// composition or a Rényi (RDP) accountant, which price the same
// sequence of releases strictly tighter. dp.Budget.Split hands a caller
// equal shares under the simple theorem, but nothing stops a buggy
// caller from splitting twice, or from spending a share and the whole.
//
// The Accountant closes that hole structurally:
//
//   - it owns the total budget and debits every reservation against the
//     remainder under its composition rule;
//   - it FAILS CLOSED — a request whose composed price would push the
//     cumulative spend past the total returns ErrOverdraw and debits
//     nothing, so an over-budget training run errors before it touches
//     a single row;
//   - every successful debit is recorded in an auditable ledger that
//     travels with the released model (eval.SaveClassifier metadata,
//     serve.Registry.Publish, the /modelz endpoint), so the privacy
//     statement a model file carries is the accountant's record, not a
//     hand-maintained string. The ledger carries the composition rule
//     and its per-rule state, and its serialized form is byte-identical
//     to the pre-compose accountant's under the simple rule.
//
// Accountants are safe for concurrent use: sharded training strategies
// and parallel tuning candidates may draw from one accountant from
// multiple goroutines.
package account

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"boltondp/internal/account/compose"
	"boltondp/internal/dp"
)

// ErrOverdraw is wrapped by every reservation the accountant refuses
// because it would exceed the remaining budget. Test with errors.Is.
var ErrOverdraw = errors.New("account: reservation exceeds the remaining privacy budget")

// slack is the relative floating-point tolerance of the overdraw test:
// n children produced by Budget.Split(n) must always recombine into
// their parent even though ε/n summed n times can exceed ε by rounding.
const slack = 1e-9

// Entry is one audited spend in an accountant's ledger. Its Epsilon and
// Delta record the release's STANDALONE guarantee (its simple-
// composition price); under the advanced and rdp rules the ledger's
// cumulative spend can therefore be smaller than the entry sum — the
// rule name and rule state record how the sequence composed.
type Entry struct {
	// Label says what the spend paid for, e.g. "train(logistic(λ=0.001))"
	// or "tune". Labels need not be unique.
	Label string `json:"label"`
	// Epsilon and Delta are the debited budget.
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta,omitempty"`
	// Kind tags the mechanism family of a curve-capable reservation
	// ("pure", "gaussian", "sgm"); empty for plain fixed grants and for
	// every reservation under the simple rule (which has no use for
	// mechanism structure) except sgm runs, which always record detail.
	Kind string `json:"kind,omitempty"`
	// Sigma, Q and Steps are the mechanism detail of a gaussian or sgm
	// reservation: noise multiplier σ̃ = σ/Δ, sampling fraction, and
	// invocation count.
	Sigma float64 `json:"sigma,omitempty"`
	Q     float64 `json:"q,omitempty"`
	Steps int     `json:"steps,omitempty"`
	// At is when the reservation was granted.
	At time.Time `json:"at"`
}

// Budget returns the entry's debit as a dp.Budget.
func (e Entry) Budget() dp.Budget { return dp.Budget{Epsilon: e.Epsilon, Delta: e.Delta} }

// Accountant owns a total (ε, δ) budget and debits every reservation
// against it under a pluggable composition rule (simple by default).
// The zero value is unusable; use New or NewWithRule.
type Accountant struct {
	mu        sync.Mutex
	total     dp.Budget
	comp      compose.Composer
	entries   []Entry
	exhausted bool // Split drained the accountant to exactly its total
}

// New returns an accountant owning the given total budget under simple
// composition — the historical rule; its ledgers and admission
// decisions are bit-identical to the pre-compose accountant's.
func New(total dp.Budget) (*Accountant, error) {
	return NewWithRule(compose.RuleSimple, total)
}

// NewWithRule returns an accountant owning the given total budget under
// the named composition rule ("" or "simple" | "advanced" | "rdp").
func NewWithRule(rule string, total dp.Budget) (*Accountant, error) {
	if err := total.Validate(); err != nil {
		return nil, err
	}
	c, err := compose.New(rule)
	if err != nil {
		return nil, err
	}
	return &Accountant{total: total, comp: c}, nil
}

// MustNew is New for statically-correct budgets; it panics on error.
func MustNew(total dp.Budget) *Accountant {
	a, err := New(total)
	if err != nil {
		panic(err)
	}
	return a
}

// Rule returns the accountant's composition rule name.
func (a *Accountant) Rule() string { return a.comp.Rule() }

// Total returns the budget the accountant was created with.
func (a *Accountant) Total() dp.Budget {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// Spent returns the cumulative spend as priced by the accountant's
// composition rule (under simple: both ε and δ sum across
// reservations; advanced and rdp can report less for the same
// reservations).
func (a *Accountant) Spent() dp.Budget {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spentLocked()
}

func (a *Accountant) spentLocked() dp.Budget {
	if a.exhausted {
		return a.total
	}
	return a.comp.Spent(a.total)
}

// Remaining returns the largest single fixed (ε, δ) reservation still
// admissible, clamped at zero. Under the simple rule this is exactly
// total − spent; the non-linear rules can leave more headroom than the
// linear remainder suggests.
func (a *Accountant) Remaining() dp.Budget {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.remainingLocked()
}

func (a *Accountant) remainingLocked() dp.Budget {
	if a.exhausted {
		return dp.Budget{}
	}
	return compose.Headroom(a.comp, a.total, slack)
}

// Reserve debits b from the remaining budget and records the spend
// under label. It fails closed: when the composed price of the spends
// so far plus this request would exceed the total (in ε or in δ) it
// returns an error wrapping ErrOverdraw and debits nothing. A granted
// reservation is never refunded — the accountant records intent to
// release, which is the conservative reading of the composition
// theorem.
func (a *Accountant) Reserve(label string, b dp.Budget) error {
	if err := b.Validate(); err != nil {
		return err
	}
	return a.admit(label, compose.Fixed(b))
}

// ReservePure debits a pure ε-DP release (exponential mechanism,
// Laplace / Gamma-sphere output perturbation). Under the rdp rule pure
// releases compose on their Rényi curve, which is strictly cheaper than
// their fixed price once there is more than one of them.
func (a *Accountant) ReservePure(label string, eps float64) error {
	return a.admit(label, compose.Pure(eps))
}

// ReserveGaussian debits steps invocations of the Gaussian mechanism at
// noise multiplier sigma = σ/Δ₂ whose stated per-run guarantee is b
// (what the linear rules charge; the rdp rule prices the multiplier
// directly and charges whichever of its candidates is tightest).
func (a *Accountant) ReserveGaussian(label string, sigma float64, steps int, b dp.Budget) error {
	return a.admit(label, compose.Gaussian(sigma, steps, b))
}

// ReserveSubsampledGaussian debits steps invocations of the subsampled
// Gaussian mechanism (sampling fraction q, noise multiplier sigma) —
// the DP-SGD gradient-perturbation spend. deltaCharge is the total δ
// the run charges under the linear rules; the rdp rule converts its
// Rényi curve at the accountant's total δ instead.
func (a *Accountant) ReserveSubsampledGaussian(label string, sigma, q float64, steps int, deltaCharge float64) error {
	return a.admit(label, compose.SGM(sigma, q, steps, deltaCharge))
}

// admit trial-prices the event on a clone of the composer, fails closed
// on overdraw, and otherwise commits the event and its ledger entry.
func (a *Accountant) admit(label string, ev compose.Event) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	price := ev.LinearPrice()
	a.mu.Lock()
	defer a.mu.Unlock()
	trial := a.comp.Clone()
	trial.Add(ev)
	s := trial.Spent(a.total)
	if a.exhausted || exceeds(s.Epsilon, a.total.Epsilon) || exceeds(s.Delta, a.total.Delta) {
		rem := a.remainingLocked()
		return fmt.Errorf("%w: requested %v for %q, remaining %v of total %v",
			ErrOverdraw, price, label, rem, a.total)
	}
	a.comp.Add(ev)
	e := Entry{Label: label, Epsilon: price.Epsilon, Delta: price.Delta, At: time.Now()}
	// Mechanism detail rides along whenever a rule can use it: always
	// for sgm runs (they exist only through this machinery), and for
	// pure/gaussian reservations under the curve-capable rules. Under
	// simple, pure and gaussian grants downgrade to plain fixed entries
	// so simple ledgers keep their historical byte layout.
	if ev.Kind == compose.KindSGM || (a.comp.Rule() != compose.RuleSimple && ev.Kind != compose.KindFixed) {
		e.Kind = string(ev.Kind)
		e.Sigma = ev.Sigma
		e.Q = ev.Q
		e.Steps = ev.Steps
	}
	a.entries = append(a.entries, e)
	return nil
}

// exceeds reports spent > limit beyond floating-point slack: the
// relative tolerance lets Split children recombine exactly into their
// parent, while anything materially above the limit is refused.
func exceeds(spent, limit float64) bool {
	return spent > limit*(1+slack)
}

// Split reserves n equal child budgets drawn from the ENTIRE remaining
// budget — the simple-composition split the paper's §4.3 prescribes for
// one-vs-all sub-models, with the accountant enforcing that the pieces
// sum to the stated guarantee. Each child is Remaining()/n (under the
// non-linear rules the remainder is the composed headroom, so the
// children are bigger for free); the whole remainder is debited in one
// ledger entry per child (labelled "label[i/n]"). After a successful
// Split the accountant is exhausted.
func (a *Accountant) Split(label string, n int) ([]dp.Budget, error) {
	if n < 1 {
		return nil, fmt.Errorf("account: Split over %d parts", n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rem := a.remainingLocked()
	if rem.Epsilon <= 0 {
		return nil, fmt.Errorf("%w: Split(%q, %d) with no remaining budget (total %v, spent %v)",
			ErrOverdraw, label, n, a.total, a.spentLocked())
	}
	child := rem.Split(n)
	out := make([]dp.Budget, n)
	now := time.Now()
	for i := range out {
		out[i] = child
		a.comp.Add(compose.Fixed(child))
		a.entries = append(a.entries, Entry{
			Label: fmt.Sprintf("%s[%d/%d]", label, i+1, n), Epsilon: child.Epsilon, Delta: child.Delta, At: now,
		})
	}
	// Exhaust to the total exactly, not child×n, so rounding can never
	// leave a sliver that a later reservation stretches past the total.
	a.exhausted = true
	return out, nil
}

// ---------------------------------------------------------------------
// Ledger serialization: the auditable record a released model carries.
// ---------------------------------------------------------------------

// metaKey is the model-metadata key under which the ledger is persisted
// (eval.SaveClassifier meta, serve registry files, /modelz responses).
const metaKey = "dp.ledger"

// Ledger is the serializable snapshot of an accountant: the composition
// rule, the total budget, the cumulative composed spend, every granted
// reservation, and the rule's own composition state. Under the simple
// rule the Rule and RuleState fields are empty and omitted, so simple
// ledgers serialize byte-identically to the pre-compose accountant's.
type Ledger struct {
	Rule         string          `json:"rule,omitempty"`
	TotalEpsilon float64         `json:"total_epsilon"`
	TotalDelta   float64         `json:"total_delta,omitempty"`
	SpentEpsilon float64         `json:"spent_epsilon"`
	SpentDelta   float64         `json:"spent_delta,omitempty"`
	Entries      []Entry         `json:"entries"`
	RuleState    json.RawMessage `json:"rule_state,omitempty"`
}

// Total returns the ledger's total budget.
func (l *Ledger) Total() dp.Budget {
	return dp.Budget{Epsilon: l.TotalEpsilon, Delta: l.TotalDelta}
}

// Spent returns the ledger's cumulative spend under its rule.
func (l *Ledger) Spent() dp.Budget {
	return dp.Budget{Epsilon: l.SpentEpsilon, Delta: l.SpentDelta}
}

// Same reports whether two ledgers record the same privacy spends:
// equal composition rule (an absent rule IS the simple rule), equal
// totals, equal cumulative spend, and entry-for-entry equal
// reservations (label, ε, δ, mechanism detail — grant timestamps are
// execution detail, not part of the privacy statement; RuleState is
// derived from the entries and not compared). It is the equality the
// distributed-training parity contract pins: a coordinator/worker run
// must produce a ledger Same as its single-process counterpart's, so
// distributing a run can never change what was spent or what the spend
// paid for.
func (l *Ledger) Same(o *Ledger) bool {
	if l == nil || o == nil {
		return l == o
	}
	if compose.Normalize(l.Rule) != compose.Normalize(o.Rule) {
		return false
	}
	if l.TotalEpsilon != o.TotalEpsilon || l.TotalDelta != o.TotalDelta ||
		l.SpentEpsilon != o.SpentEpsilon || l.SpentDelta != o.SpentDelta ||
		len(l.Entries) != len(o.Entries) {
		return false
	}
	for i := range l.Entries {
		a, b := l.Entries[i], o.Entries[i]
		if a.Label != b.Label || a.Epsilon != b.Epsilon || a.Delta != b.Delta ||
			a.Kind != b.Kind || a.Sigma != b.Sigma || a.Q != b.Q || a.Steps != b.Steps {
			return false
		}
	}
	return true
}

// Ledger snapshots the accountant's current state.
func (a *Accountant) Ledger() *Ledger {
	a.mu.Lock()
	defer a.mu.Unlock()
	spent := a.spentLocked()
	l := &Ledger{
		TotalEpsilon: a.total.Epsilon, TotalDelta: a.total.Delta,
		SpentEpsilon: spent.Epsilon, SpentDelta: spent.Delta,
		Entries: make([]Entry, len(a.entries)),
	}
	if rule := a.comp.Rule(); rule != compose.RuleSimple {
		l.Rule = rule
		l.RuleState = a.comp.State()
	}
	copy(l.Entries, a.entries)
	return l
}

// StampMeta records the accountant's ledger (and a human-readable
// summary of the spend) into a model-metadata map, under metaKey. Pass
// the result to eval.SaveClassifier or serve.Registry.Publish so the
// released model file carries its audited privacy statement; /modelz
// round-trips it.
func (a *Accountant) StampMeta(meta map[string]string) error {
	l := a.Ledger()
	data, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("account: %w", err)
	}
	meta[metaKey] = string(data)
	meta["dp.total"] = l.Total().String()
	meta["dp.spent"] = l.Spent().String()
	return nil
}

// Restore rebuilds a live accountant from a ledger snapshot, replaying
// every recorded reservation through the ledger's composition rule so
// the restored accountant prices future reservations exactly as the
// original would have. This is how continual training resumes: the live
// model's metadata carries the ledger (StampMeta), and a later process
// restores the accountant from it to draw the next window.
//
// Restore fails closed: a ledger whose replayed composed spend exceeds
// its stated total (corruption, or hand-edited entries) returns an
// error wrapping ErrOverdraw, and one whose replayed spend disagrees
// with its recorded spend is rejected as inconsistent — except for the
// Split-exhaustion case (recorded spend pinned to the total exactly),
// which restores as an exhausted accountant.
func Restore(l *Ledger) (*Accountant, error) {
	if l == nil {
		return nil, errors.New("account: Restore of a nil ledger")
	}
	a, err := NewWithRule(l.Rule, l.Total())
	if err != nil {
		return nil, err
	}
	for i, e := range l.Entries {
		var ev compose.Event
		switch compose.Kind(e.Kind) {
		case compose.KindPure:
			ev = compose.Pure(e.Epsilon)
		case compose.KindGaussian:
			ev = compose.Gaussian(e.Sigma, e.Steps, e.Budget())
		case compose.KindSGM:
			ev = compose.SGM(e.Sigma, e.Q, e.Steps, e.Delta)
		default:
			ev = compose.Fixed(e.Budget())
		}
		if err := ev.Validate(); err != nil {
			return nil, fmt.Errorf("account: restoring ledger entry %d (%q): %w", i, e.Label, err)
		}
		a.comp.Add(ev)
	}
	a.entries = append([]Entry(nil), l.Entries...)
	spent := a.comp.Spent(a.total)
	if exceeds(spent.Epsilon, a.total.Epsilon) || exceeds(spent.Delta, a.total.Delta) {
		return nil, fmt.Errorf("%w: ledger replays to %v over total %v", ErrOverdraw, spent, a.total)
	}
	rec := l.Spent()
	if rec == l.Total() && spent != rec {
		// Split drained the accountant to exactly its total; the fixed
		// child entries replay to the pre-rounding remainder instead.
		a.exhausted = true
	} else if !close2(spent.Epsilon, rec.Epsilon) || !close2(spent.Delta, rec.Delta) {
		return nil, fmt.Errorf("account: inconsistent ledger: entries replay to %v, ledger records %v", spent, rec)
	}
	return a, nil
}

// close2 is the replay-consistency tolerance of Restore: the replayed
// composed spend must match the recorded one up to floating-point
// noise.
func close2(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return d <= 1e-9*m+1e-12
}

// parseLedger decodes a ledger serialized by StampMeta.
func parseLedger(s string) (*Ledger, error) {
	var l Ledger
	if err := json.Unmarshal([]byte(s), &l); err != nil {
		return nil, fmt.Errorf("account: parsing ledger: %w", err)
	}
	return &l, nil
}

// LedgerFromMeta extracts and decodes the ledger a StampMeta-stamped
// metadata map carries. ok is false when the map holds no ledger.
func LedgerFromMeta(meta map[string]string) (l *Ledger, ok bool, err error) {
	s, ok := meta[metaKey]
	if !ok {
		return nil, false, nil
	}
	l, err = parseLedger(s)
	if err != nil {
		return nil, true, err
	}
	return l, true, nil
}
