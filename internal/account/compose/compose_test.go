package compose

import (
	"encoding/json"
	"math"
	"testing"

	"boltondp/internal/dp"
)

// kddSweep is the standard KDD gradient-perturbation sweep the
// acceptance criteria price: KDDSim's full scale m = 543,423 rows,
// batch 50, T = 1000 steps at noise multiplier σ̃ = 1.0, δ = 1e-6.
const (
	kddRows  = 543423.0
	kddBatch = 50.0
	kddSteps = 1000
	kddSigma = 1.0
	kddDelta = 1e-6
)

func kddEvent() Event {
	return SGM(kddSigma, kddBatch/kddRows, kddSteps, kddDelta)
}

func mustNew(t *testing.T, rule string) Composer {
	t.Helper()
	c, err := New(rule)
	if err != nil {
		t.Fatalf("New(%q): %v", rule, err)
	}
	return c
}

func spentUnder(t *testing.T, rule string, total dp.Budget, events ...Event) dp.Budget {
	t.Helper()
	c := mustNew(t, rule)
	for _, e := range events {
		if err := e.Validate(); err != nil {
			t.Fatalf("event %+v invalid: %v", e, err)
		}
		c.Add(e)
	}
	return c.Spent(total)
}

func TestNewRules(t *testing.T) {
	for _, rule := range append(Rules(), "") {
		c, err := New(rule)
		if err != nil {
			t.Fatalf("New(%q): %v", rule, err)
		}
		if got, want := c.Rule(), Normalize(rule); got != want {
			t.Errorf("New(%q).Rule() = %q, want %q", rule, got, want)
		}
	}
	if _, err := New("moments"); err == nil {
		t.Error("New accepted an unknown rule")
	}
}

func TestEventValidate(t *testing.T) {
	bad := []Event{
		{Kind: "nope"},
		{Kind: KindPure, Eps: 0},
		{Kind: KindPure, Eps: 1, Delta: 1e-6},
		{Kind: KindGaussian, Sigma: 0, Steps: 1, Eps: 1, Delta: 1e-6},
		{Kind: KindGaussian, Sigma: 1, Steps: 0, Eps: 1, Delta: 1e-6},
		{Kind: KindSGM, Sigma: 1, Q: 0, Steps: 1, Delta: 1e-6},
		{Kind: KindSGM, Sigma: 1, Q: 1.5, Steps: 1, Delta: 1e-6},
		{Kind: KindSGM, Sigma: 1, Q: 0.1, Steps: 1, Delta: 0},
		{Kind: KindFixed, Eps: -1},
	}
	for _, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", e)
		}
	}
	good := []Event{
		Fixed(dp.Budget{Epsilon: 1}),
		Fixed(dp.Budget{Epsilon: 0.5, Delta: 1e-6}),
		Pure(0.3),
		Gaussian(1.2, 10, dp.Budget{Epsilon: 1, Delta: 1e-6}),
		kddEvent(),
	}
	for _, e := range good {
		if err := e.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", e, err)
		}
	}
}

// TestRDPCurveMonotoneInAlpha is the property the conversion leans on:
// every per-mechanism Rényi curve must be non-decreasing in the order α
// across the whole grid (Rényi divergence is non-decreasing in its
// order; a bound that dips would be unsound to minimize over).
func TestRDPCurveMonotoneInAlpha(t *testing.T) {
	curves := map[string]func(alpha float64) float64{
		"gaussian σ̃=1":        func(a float64) float64 { return gaussianRDP(1, a) },
		"gaussian σ̃=4":        func(a float64) float64 { return gaussianRDP(4, a) },
		"pure ε=0.1":           func(a float64) float64 { return pureRDP(0.1, a) },
		"pure ε=2":             func(a float64) float64 { return pureRDP(2, a) },
		"sgm σ̃=1 q=1e-4":      func(a float64) float64 { return sgmRDP(1, 1e-4, a) },
		"sgm σ̃=1 q=0.01":      func(a float64) float64 { return sgmRDP(1, 0.01, a) },
		"sgm σ̃=0.7 q=0.05":    func(a float64) float64 { return sgmRDP(0.7, 0.05, a) },
		"sgm σ̃=4 q=0.2":       func(a float64) float64 { return sgmRDP(4, 0.2, a) },
		"sgm σ̃=2 q=1 (gauss)": func(a float64) float64 { return sgmRDP(2, 1, a) },
	}
	for name, f := range curves {
		prev := math.Inf(-1)
		for _, a := range Orders() {
			eps := f(a)
			if math.IsNaN(eps) || eps < 0 {
				t.Fatalf("%s: ε(%v) = %v", name, a, eps)
			}
			if eps < prev*(1-1e-12) {
				t.Errorf("%s: curve dips at α=%v: ε=%v after %v", name, a, eps, prev)
			}
			prev = eps
		}
	}
}

func TestSGMRDPLimits(t *testing.T) {
	// q = 1 is the unsubsampled Gaussian.
	for _, a := range []float64{2, 8, 64} {
		if got, want := sgmRDP(1.5, 1, a), gaussianRDP(1.5, a); got != want {
			t.Errorf("sgmRDP(q=1) at α=%v: %v, want Gaussian %v", a, got, want)
		}
	}
	// Subsampling amplifies: at q < 1 the curve must sit strictly below
	// the unsubsampled Gaussian, and shrink as q shrinks.
	for _, a := range []float64{2, 16, 128} {
		full := gaussianRDP(1, a)
		atQ1 := sgmRDP(1, 0.1, a)
		atQ2 := sgmRDP(1, 0.001, a)
		if !(atQ2 < atQ1 && atQ1 < full) {
			t.Errorf("α=%v: want SGM(q=0.001)=%v < SGM(q=0.1)=%v < Gaussian=%v", a, atQ2, atQ1, full)
		}
	}
}

func TestConvertRDPEdges(t *testing.T) {
	orders := Orders()
	curve := make([]float64, len(orders))
	for i, a := range orders {
		curve[i] = gaussianRDP(1, a)
	}
	if eps := convertRDP(orders, curve, 0); !math.IsInf(eps, 1) {
		t.Errorf("convertRDP at δ=0 = %v, want +Inf", eps)
	}
	if eps := convertRDP(orders, curve, 1); !math.IsInf(eps, 1) {
		t.Errorf("convertRDP at δ=1 = %v, want +Inf", eps)
	}
	// Tighter δ costs more ε.
	loose := convertRDP(orders, curve, 1e-3)
	tight := convertRDP(orders, curve, 1e-9)
	if !(0 < loose && loose < tight) {
		t.Errorf("want 0 < ε(δ=1e-3)=%v < ε(δ=1e-9)=%v", loose, tight)
	}
}

func TestSGMStepEpsilonAmplifies(t *testing.T) {
	eps1, epsBase := sgmStepEpsilon(1.0, 0.01, 1e-9)
	if !(eps1 > 0 && epsBase > 0 && eps1 < epsBase) {
		t.Fatalf("amplified ε₁=%v should be positive and below base ε_g=%v", eps1, epsBase)
	}
	// q = 1: no amplification.
	e1, eb := sgmStepEpsilon(1.0, 1, 1e-9)
	if e1 != eb {
		t.Errorf("q=1: ε₁=%v ≠ ε_g=%v", e1, eb)
	}
}

// TestAnalyticGaussianEpsilon pins the analytic Gaussian mechanism
// inversion the per-step SGM conversion is built on (Balle–Wang): the
// returned ε must be a SOUND guarantee (the exact profile δ(ε) at it
// stays within the target δ), must never exceed the classical
// √(2 ln(1.25/δ))/σ̃ calibration where that bound is valid (ε < 1) —
// the classical formula is what the old conversion inverted, and it
// silently under-prices above ε = 1 — and must be monotone in both
// σ̃ and δ.
func TestAnalyticGaussianEpsilon(t *testing.T) {
	for _, sigma := range []float64{0.5, 1, 2, 5, 20} {
		for _, delta := range []float64{1e-5, 1e-7, 1e-9} {
			eps := gaussianEpsilon(sigma, delta)
			if !(eps > 0) || math.IsInf(eps, 0) {
				t.Fatalf("gaussianEpsilon(%v, %v) = %v", sigma, delta, eps)
			}
			// Soundness: the profile at the returned ε must not exceed δ.
			if d := gaussianDeltaAt(sigma, eps); d > delta*(1+1e-9) {
				t.Errorf("σ̃=%v δ=%v: δ(ε=%v) = %v exceeds the target", sigma, delta, eps, d)
			}
			// Where the classical calibration is a valid guarantee, the
			// analytic inversion is at least as tight.
			classical := math.Sqrt(2*math.Log(1.25/delta)) / sigma
			if classical < 1 && eps > classical*(1+1e-9) {
				t.Errorf("σ̃=%v δ=%v: analytic ε=%v above valid classical ε=%v", sigma, delta, eps, classical)
			}
			// More noise → smaller ε; looser δ → smaller ε.
			if e2 := gaussianEpsilon(2*sigma, delta); e2 > eps*(1+1e-9) {
				t.Errorf("σ̃=%v δ=%v: ε grew from %v to %v when σ̃ doubled", sigma, delta, eps, e2)
			}
			if e2 := gaussianEpsilon(sigma, 10*delta); e2 > eps*(1+1e-9) {
				t.Errorf("σ̃=%v δ=%v: ε grew from %v to %v when δ relaxed", sigma, delta, eps, e2)
			}
		}
	}
	// The regime the classical inversion got wrong: at small σ̃ the
	// inverted ε lands far above 1, where √(2 ln(1.25/δ))/σ̃ is not a
	// guarantee at all — the exact profile at that ε still leaks more
	// than δ, so the analytic ε must come out HIGHER (the old
	// conversion under-charged).
	sigma, delta := 0.5, 1e-7
	classical := math.Sqrt(2*math.Log(1.25/delta)) / sigma
	if classical <= 1 {
		t.Fatalf("test regime broken: classical ε=%v should exceed 1", classical)
	}
	if d := gaussianDeltaAt(sigma, classical); d <= delta {
		t.Fatalf("test regime broken: classical ε=%v is accidentally sound here (δ(ε)=%v)", classical, d)
	}
	if eps := gaussianEpsilon(sigma, delta); eps <= classical {
		t.Errorf("analytic ε=%v ≤ classical %v in the ε>1 regime — conversion still under-prices", eps, classical)
	}
}

// TestRuleDominance is the rule-vs-rule wall: for every workload, the
// reported ε must obey RDP ≤ Advanced ≤ Simple against the same total
// budget, and no rule may report a δ above the total's.
func TestRuleDominance(t *testing.T) {
	total := dp.Budget{Epsilon: 100, Delta: 1e-6}
	workloads := map[string][]Event{
		"one fixed":    {Fixed(dp.Budget{Epsilon: 1})},
		"fixed with δ": {Fixed(dp.Budget{Epsilon: 0.5, Delta: 1e-8})},
		"50 pure 0.1": func() []Event {
			var es []Event
			for i := 0; i < 50; i++ {
				es = append(es, Pure(0.1))
			}
			return es
		}(),
		"200 pure 0.05": func() []Event {
			var es []Event
			for i := 0; i < 200; i++ {
				es = append(es, Pure(0.05))
			}
			return es
		}(),
		"gaussian run": {Gaussian(2.0, 100, dp.Budget{Epsilon: 3, Delta: 2e-7})},
		"kdd sgm":      {kddEvent()},
		"mixed": {
			Pure(0.2), Fixed(dp.Budget{Epsilon: 0.3, Delta: 1e-8}),
			Gaussian(1.5, 10, dp.Budget{Epsilon: 1, Delta: 1e-8}),
			SGM(1.0, 1e-3, 200, 1e-7),
		},
	}
	for name, events := range workloads {
		simple := spentUnder(t, RuleSimple, total, events...)
		adv := spentUnder(t, RuleAdvanced, total, events...)
		rdp := spentUnder(t, RuleRDP, total, events...)
		if !(rdp.Epsilon <= adv.Epsilon*(1+1e-12) && adv.Epsilon <= simple.Epsilon*(1+1e-12)) {
			t.Errorf("%s: dominance broken: rdp=%v advanced=%v simple=%v",
				name, rdp.Epsilon, adv.Epsilon, simple.Epsilon)
		}
		for rule, s := range map[string]dp.Budget{"simple": simple, "advanced": adv, "rdp": rdp} {
			if s.Delta > total.Delta*(1+1e-12) {
				t.Errorf("%s under %s: reported δ=%v exceeds total %v", name, rule, s.Delta, total.Delta)
			}
			if s.Epsilon < 0 || math.IsNaN(s.Epsilon) {
				t.Errorf("%s under %s: ε=%v", name, rule, s.Epsilon)
			}
		}
	}
}

// TestAdvancedBeatsSimpleOnManySmallReleases: the regime advanced
// composition exists for — many small pure releases — must price
// strictly below linear.
func TestAdvancedBeatsSimpleOnManySmallReleases(t *testing.T) {
	total := dp.Budget{Epsilon: 100, Delta: 1e-6}
	var events []Event
	for i := 0; i < 100; i++ {
		events = append(events, Pure(0.05))
	}
	simple := spentUnder(t, RuleSimple, total, events...)
	adv := spentUnder(t, RuleAdvanced, total, events...)
	if !(adv.Epsilon < simple.Epsilon) {
		t.Fatalf("advanced %v should beat simple %v on 100× ε=0.05", adv.Epsilon, simple.Epsilon)
	}
}

// TestAdvancedDegeneratesWithoutDelta: with total δ = 0 there is no
// slack to buy the KOV bound, so advanced must price exactly linearly.
func TestAdvancedDegeneratesWithoutDelta(t *testing.T) {
	total := dp.Budget{Epsilon: 10, Delta: 0}
	events := []Event{Pure(0.1), Pure(0.1), Pure(0.1)}
	simple := spentUnder(t, RuleSimple, total, events...)
	adv := spentUnder(t, RuleAdvanced, total, events...)
	if adv != simple {
		t.Fatalf("at δ=0 advanced %+v must equal simple %+v", adv, simple)
	}
}

// TestKDDSweepRDPHalvesSimple is the acceptance criterion: on the
// standard KDD sweep the RDP price must come in at or below half the
// simple-composition price at δ = 1e-6.
func TestKDDSweepRDPHalvesSimple(t *testing.T) {
	total := dp.Budget{Epsilon: 1e6, Delta: kddDelta} // ample ε: we compare prices, not admission
	e := kddEvent()
	simple := spentUnder(t, RuleSimple, total, e)
	rdp := spentUnder(t, RuleRDP, total, e)
	t.Logf("KDD sweep (T=%d, batch=%v, σ̃=%v, δ=%v): simple ε=%.4f, rdp ε=%.4f (%.1f×)",
		kddSteps, kddBatch, kddSigma, kddDelta, simple.Epsilon, rdp.Epsilon, simple.Epsilon/rdp.Epsilon)
	if !(rdp.Epsilon > 0) {
		t.Fatalf("rdp priced the sweep at %v", rdp.Epsilon)
	}
	if rdp.Epsilon > 0.5*simple.Epsilon {
		t.Fatalf("rdp ε=%v > 0.5× simple ε=%v on the standard KDD sweep", rdp.Epsilon, simple.Epsilon)
	}
}

// TestSimpleStateIsNil pins the back-compat contract: the simple rule
// has no serialized composer state, so its ledgers keep the historical
// byte layout.
func TestSimpleStateIsNil(t *testing.T) {
	c := mustNew(t, RuleSimple)
	c.Add(Fixed(dp.Budget{Epsilon: 1, Delta: 1e-6}))
	if st := c.State(); st != nil {
		t.Fatalf("simple State() = %s, want nil", st)
	}
}

func TestStateRoundTripsJSON(t *testing.T) {
	for _, rule := range []string{RuleAdvanced, RuleRDP} {
		c := mustNew(t, rule)
		c.Add(Pure(0.2))
		c.Add(kddEvent())
		st := c.State()
		if len(st) == 0 {
			t.Fatalf("%s State() empty after adds", rule)
		}
		var m map[string]any
		if err := json.Unmarshal(st, &m); err != nil {
			t.Fatalf("%s State() not JSON: %v", rule, err)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	total := dp.Budget{Epsilon: 100, Delta: 1e-6}
	for _, rule := range Rules() {
		c := mustNew(t, rule)
		c.Add(Pure(0.5))
		before := c.Spent(total)
		cl := c.Clone()
		cl.Add(Pure(0.5))
		cl.Add(kddEvent())
		if got := c.Spent(total); got != before {
			t.Errorf("%s: Add on clone mutated original: %+v → %+v", rule, before, got)
		}
		if cl.Spent(total).Epsilon <= before.Epsilon {
			t.Errorf("%s: clone did not accumulate", rule)
		}
	}
}

// TestHeadroom: simple headroom is the exact remainder; the non-linear
// rules grant at least that much, the granted amount is admissible, and
// meaningfully more is not.
func TestHeadroom(t *testing.T) {
	const slack = 1e-9
	total := dp.Budget{Epsilon: 5, Delta: 1e-6}
	for _, rule := range Rules() {
		c := mustNew(t, rule)
		for i := 0; i < 20; i++ {
			c.Add(Pure(0.1))
		}
		spent := c.Spent(total)
		h := Headroom(c, total, slack)
		if rule == RuleSimple {
			want := dp.Budget{Epsilon: total.Epsilon - spent.Epsilon, Delta: total.Delta - spent.Delta}
			if h != want {
				t.Errorf("simple headroom %+v, want exact remainder %+v", h, want)
			}
		}
		if h.Epsilon < total.Epsilon-spent.Epsilon-1e-9 {
			t.Errorf("%s: headroom ε=%v below linear remainder %v", rule, h.Epsilon, total.Epsilon-spent.Epsilon)
		}
		if h.Epsilon > 0 {
			// The grant itself must fit ...
			cl := c.Clone()
			cl.Add(Event{Kind: KindFixed, Eps: h.Epsilon, Delta: h.Delta})
			if s := cl.Spent(total); s.Epsilon > total.Epsilon*(1+2*slack) || s.Delta > total.Delta*(1+2*slack) {
				t.Errorf("%s: headroom grant %+v overdraws to %+v", rule, h, s)
			}
			// ... and 5% more must not.
			cl2 := c.Clone()
			cl2.Add(Event{Kind: KindFixed, Eps: h.Epsilon * 1.05, Delta: h.Delta})
			if s := cl2.Spent(total); s.Epsilon <= total.Epsilon*(1+slack) {
				t.Errorf("%s: headroom not maximal: 1.05× grant still fits (%+v)", rule, s)
			}
		}
	}
}

func TestHeadroomExhausted(t *testing.T) {
	total := dp.Budget{Epsilon: 1, Delta: 0}
	for _, rule := range Rules() {
		c := mustNew(t, rule)
		c.Add(Pure(1))
		h := Headroom(c, total, 1e-9)
		if h.Epsilon != 0 || h.Delta != 0 {
			t.Errorf("%s: headroom after exhaustion = %+v, want zero", rule, h)
		}
	}
}

func TestPriceSGM(t *testing.T) {
	total := dp.Budget{Epsilon: 10, Delta: kddDelta}
	for _, rule := range Rules() {
		p, err := PriceSGM(rule, kddSigma, kddBatch/kddRows, kddSteps, total)
		if err != nil {
			t.Fatalf("PriceSGM(%s): %v", rule, err)
		}
		if !(p.Epsilon > 0) || p.Delta > total.Delta*(1+1e-12) {
			t.Errorf("PriceSGM(%s) = %+v", rule, p)
		}
	}
	if _, err := PriceSGM("nope", 1, 0.1, 10, total); err == nil {
		t.Error("PriceSGM accepted an unknown rule")
	}
	if _, err := PriceSGM(RuleRDP, 1, 0.1, 10, dp.Budget{Epsilon: 1, Delta: 0}); err == nil {
		t.Error("PriceSGM accepted an sgm run with no δ to charge")
	}
}

// TestSolveSGMSigma: the solved multiplier prices within budget, is
// near-tight, and grows as the budget tightens or the rule weakens.
func TestSolveSGMSigma(t *testing.T) {
	q := kddBatch / kddRows
	budget := dp.Budget{Epsilon: 2, Delta: kddDelta}
	var prev float64
	for _, rule := range []string{RuleRDP, RuleAdvanced, RuleSimple} {
		sigma, err := SolveSGMSigma(rule, q, kddSteps, budget)
		if err != nil {
			t.Fatalf("SolveSGMSigma(%s): %v", rule, err)
		}
		p, err := PriceSGM(rule, sigma, q, kddSteps, budget)
		if err != nil {
			t.Fatalf("PriceSGM(%s, σ̃=%v): %v", rule, sigma, err)
		}
		if p.Epsilon > budget.Epsilon {
			t.Errorf("%s: solved σ̃=%v prices over budget: ε=%v", rule, sigma, p.Epsilon)
		}
		// Tightness: 10% less noise must bust the budget.
		if p2, err := PriceSGM(rule, sigma*0.9, q, kddSteps, budget); err != nil {
			t.Fatalf("PriceSGM: %v", err)
		} else if p2.Epsilon <= budget.Epsilon {
			t.Errorf("%s: σ̃ not tight: 0.9× still prices ε=%v ≤ %v", rule, p2.Epsilon, budget.Epsilon)
		}
		// Dominance in σ̃: a weaker rule needs at least as much noise.
		if sigma < prev*(1-1e-9) {
			t.Errorf("%s needs σ̃=%v, less than the tighter rule's %v", rule, sigma, prev)
		}
		prev = sigma
		t.Logf("%s: σ̃=%.4f for %+v over %d steps", rule, sigma, budget, kddSteps)
	}
	// Tighter ε needs more noise.
	loose, err := SolveSGMSigma(RuleRDP, q, kddSteps, dp.Budget{Epsilon: 4, Delta: kddDelta})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := SolveSGMSigma(RuleRDP, q, kddSteps, dp.Budget{Epsilon: 0.5, Delta: kddDelta})
	if err != nil {
		t.Fatal(err)
	}
	if !(tight > loose) {
		t.Errorf("σ̃(ε=0.5)=%v should exceed σ̃(ε=4)=%v", tight, loose)
	}
	// No δ at all: unsolvable, reported as an error, not a bogus σ̃.
	if _, err := SolveSGMSigma(RuleRDP, q, kddSteps, dp.Budget{Epsilon: 1, Delta: 0}); err == nil {
		t.Error("SolveSGMSigma accepted a pure-ε budget for a Gaussian mechanism")
	}
}

// TestSpentUnpriceableFailsHigh: a workload a rule cannot soundly price
// within the total's δ must surface as a high/infinite ε (which the
// accountant's overdraw check fails closed on), never as a low one.
func TestSpentUnpriceableFailsHigh(t *testing.T) {
	// RDP with fixed releases consuming the entire δ leaves no
	// conversion target; the advanced fallback must decide, and the
	// price must not dip below the linear ε of the releases.
	total := dp.Budget{Epsilon: 100, Delta: 1e-6}
	c := mustNew(t, RuleRDP)
	c.Add(Fixed(dp.Budget{Epsilon: 1, Delta: 1e-6}))
	c.Add(Gaussian(1.0, 10, dp.Budget{Epsilon: 2, Delta: 0}))
	s := c.Spent(total)
	if s.Epsilon < 3*(1-1e-12) {
		t.Fatalf("rdp priced an unconvertible workload at ε=%v, below the linear 3", s.Epsilon)
	}
}
