package compose

import (
	"encoding/json"
	"fmt"
	"math"

	"boltondp/internal/dp"
)

// rdpOrders is the fixed Rényi order grid α every RDP composer tracks:
// the dense integer band 2..64 where subsampled-Gaussian curves
// typically attain their conversion minimum, plus a sparse high tail
// for low-noise / large-ε regimes. Integer orders keep the
// Mironov–Talwar–Zhang subsampled bound exact (its closed form is the
// binomial expansion, valid at integer α).
var rdpOrders = func() []float64 {
	var o []float64
	for a := 2; a <= 64; a++ {
		o = append(o, float64(a))
	}
	o = append(o, 72, 96, 128, 192, 256, 384, 512)
	return o
}()

// Orders returns a copy of the accountant's Rényi order grid.
func Orders() []float64 {
	out := make([]float64, len(rdpOrders))
	copy(out, rdpOrders)
	return out
}

// rdp is the Rényi composer: per-order curve sums for curve-capable
// events, linear side sums for fixed releases, and the Advanced price
// as the always-available fallback candidate.
type rdp struct {
	advanced            // fallback candidate (itself min'd with Simple)
	curve     []float64 // Σ ε(α) over admitted curve-capable events
	haveCurve bool      // any pure/gaussian/sgm mass admitted
	fixedEps  float64   // Σ ε of fixed releases (no curve)
	fixedDel  float64   // Σ δ of fixed releases
}

func newRDP() *rdp {
	return &rdp{curve: make([]float64, len(rdpOrders))}
}

func (r *rdp) Rule() string { return RuleRDP }

func (r *rdp) Add(e Event) {
	r.advanced.Add(e)
	switch e.Kind {
	case KindPure:
		r.haveCurve = true
		for i, a := range rdpOrders {
			r.curve[i] += pureRDP(e.Eps, a)
		}
	case KindGaussian:
		r.haveCurve = true
		for i, a := range rdpOrders {
			r.curve[i] += float64(e.Steps) * gaussianRDP(e.Sigma, a)
		}
	case KindSGM:
		r.haveCurve = true
		for i, a := range rdpOrders {
			r.curve[i] += float64(e.Steps) * sgmRDP(e.Sigma, e.Q, a)
		}
	default: // fixed: no usable curve — linear side sums
		r.fixedEps += e.Eps
		r.fixedDel += e.Delta
	}
}

func (r *rdp) Spent(total dp.Budget) dp.Budget {
	adv := r.advanced.Spent(total)
	if !r.haveCurve {
		return adv
	}
	// The conversion target is whatever δ the fixed releases left over:
	// fixed δs and the conversion δ partition the total. No δ left (or
	// a pure-ε total) prices the curve at +Inf and the Advanced
	// fallback decides.
	deltaConv := total.Delta - r.fixedDel
	eps := r.fixedEps + convertRDP(rdpOrders, r.curve, deltaConv)
	if adv.Epsilon <= eps {
		return adv
	}
	return dp.Budget{Epsilon: eps, Delta: total.Delta}
}

type rdpState struct {
	Orders       []float64 `json:"orders"`
	Epsilons     []float64 `json:"eps"`
	FixedEpsilon float64   `json:"fixed_epsilon,omitempty"`
	FixedDelta   float64   `json:"fixed_delta,omitempty"`
}

func (r *rdp) State() json.RawMessage {
	if !r.haveCurve && r.fixedEps == 0 {
		return nil
	}
	b, _ := json.Marshal(rdpState{
		Orders: Orders(), Epsilons: append([]float64(nil), r.curve...),
		FixedEpsilon: r.fixedEps, FixedDelta: r.fixedDel,
	})
	return b
}

func (r *rdp) Clone() Composer {
	c := *r
	c.curve = append([]float64(nil), r.curve...)
	return &c
}

// ---------------------------------------------------------------------
// Per-mechanism Rényi curves and the (ε, δ) conversion. Exported so the
// property wall (and the experiment harness) can test them directly.
// ---------------------------------------------------------------------

// gaussianRDP is the exact Rényi divergence of the Gaussian mechanism
// at noise multiplier sigma = σ/Δ₂: ε(α) = α / (2σ̃²).
func gaussianRDP(sigma, alpha float64) float64 {
	return alpha / (2 * sigma * sigma)
}

// pureRDP bounds the Rényi curve of a pure ε-DP mechanism:
// ε(α) ≤ min(ε, α·ε²/2). The second term is the Bun–Steinke zCDP bound
// (ε-DP ⟹ (ε²/2)-zCDP); the first is the universal Rényi ≤ max
// divergence bound.
func pureRDP(eps, alpha float64) float64 {
	return math.Min(eps, alpha*eps*eps/2)
}

// sgmRDP bounds the Rényi curve of ONE subsampled-Gaussian step at
// sampling fraction q and noise multiplier sigma, at integer order
// alpha ≥ 2 — the Mironov–Talwar–Zhang closed form
//
//	ε(α) = (1/(α−1)) · ln Σ_{k=0}^{α} C(α,k)·(1−q)^{α−k}·q^k·e^{k(k−1)/(2σ̃²)}
//
// computed in log space (the e^{k(k−1)/(2σ̃²)} factor overflows float64
// well inside the order grid). Non-integer α is rounded up to the next
// integer, which can only increase the bound (Rényi divergence is
// non-decreasing in the order).
func sgmRDP(sigma, q, alpha float64) float64 {
	if q >= 1 {
		return gaussianRDP(sigma, alpha)
	}
	n := int(math.Ceil(alpha))
	if n < 2 {
		n = 2
	}
	inv2s := 1 / (2 * sigma * sigma)
	lq, l1q := math.Log(q), math.Log1p(-q)
	// log-sum-exp over k of logC(n,k) + (n−k)·ln(1−q) + k·ln q + k(k−1)/(2σ̃²)
	maxT := math.Inf(-1)
	terms := make([]float64, n+1)
	for k := 0; k <= n; k++ {
		t := logComb(n, k) + float64(n-k)*l1q + float64(k)*lq + float64(k)*float64(k-1)*inv2s
		terms[k] = t
		if t > maxT {
			maxT = t
		}
	}
	var sum float64
	for _, t := range terms {
		sum += math.Exp(t - maxT)
	}
	logA := maxT + math.Log(sum)
	eps := logA / (float64(n) - 1)
	if eps < 0 {
		return 0 // numerical floor: the divergence is non-negative
	}
	return eps
}

// logComb is ln C(n, k) via lgamma.
func logComb(n, k int) float64 {
	ln, _ := math.Lgamma(float64(n) + 1)
	lk, _ := math.Lgamma(float64(k) + 1)
	lnk, _ := math.Lgamma(float64(n-k) + 1)
	return ln - lk - lnk
}

// convertRDP converts a composed Rényi curve into an (ε, δ)-DP
// statement at target δ, minimizing the improved conversion of
// Balle–Barthe–Gaboardi–Hsu–Sato (the bound Opacus and TF-Privacy
// ship) over the order grid:
//
//	ε(δ) = min_α [ ε_rdp(α) + ln((α−1)/α) − (ln δ + ln α)/(α−1) ]
//
// A non-positive target δ cannot be converted at and prices +Inf — the
// caller's overdraw check fails closed on it.
func convertRDP(orders, curve []float64, delta float64) float64 {
	if delta <= 0 || delta >= 1 {
		return math.Inf(1)
	}
	logDelta := math.Log(delta)
	best := math.Inf(1)
	for i, a := range orders {
		if a <= 1 {
			continue
		}
		eps := curve[i] + math.Log1p(-1/a) - (logDelta+math.Log(a))/(a-1)
		if eps < 0 {
			eps = 0
		}
		if eps < best {
			best = eps
		}
	}
	return best
}

// PriceSGM prices a gradient-perturbation run — steps invocations of
// the subsampled Gaussian at sampling fraction q and noise multiplier
// sigma — under the named rule against the given total budget (whose δ
// is both the per-step charge pool of the linear rules and the RDP
// conversion target). It is the calibration map of the gradperturb
// engine strategy.
func PriceSGM(rule string, sigma, q float64, steps int, total dp.Budget) (dp.Budget, error) {
	c, err := New(rule)
	if err != nil {
		return dp.Budget{}, err
	}
	e := SGM(sigma, q, steps, total.Delta)
	if err := e.Validate(); err != nil {
		return dp.Budget{}, err
	}
	c.Add(e)
	return c.Spent(total), nil
}

// SolveSGMSigma returns the smallest noise multiplier σ̃ whose
// gradient-perturbation run (steps invocations at sampling fraction q)
// prices within the budget under the named rule — the inverse of
// PriceSGM in σ̃, solved by bisection (the price is monotone
// non-increasing in σ̃). The budget must carry δ > 0: every rule needs
// it (per-step conversion for simple/advanced, the conversion target
// for RDP).
func SolveSGMSigma(rule string, q float64, steps int, budget dp.Budget) (float64, error) {
	if err := budget.Validate(); err != nil {
		return 0, err
	}
	over := func(sigma float64) (bool, error) {
		p, err := PriceSGM(rule, sigma, q, steps, budget)
		if err != nil {
			return false, err
		}
		return p.Epsilon > budget.Epsilon, nil
	}
	lo, hi := 1e-2, 0.5
	for {
		o, err := over(hi)
		if err != nil {
			return 0, err
		}
		if !o {
			break
		}
		lo = hi
		hi *= 2
		if hi > 1e6 {
			// Even absurd noise cannot fit the budget (δ too small for
			// the per-step conversions, or ε non-positive upstream).
			return 0, errDoesNotFit(rule, q, steps, budget)
		}
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		o, err := over(mid)
		if err != nil {
			return 0, err
		}
		if o {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}

func errDoesNotFit(rule string, q float64, steps int, budget dp.Budget) error {
	return fmt.Errorf("compose: no noise multiplier fits %v under rule %s (q=%g, steps=%d)",
		budget, Normalize(rule), q, steps)
}
