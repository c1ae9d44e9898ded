// Package rng provides the random samplers the privacy mechanisms and
// the PSGD engine need: Gamma variates (for the ε-DP noise magnitude of
// the paper's Theorem 1 / Appendix E), uniform unit-sphere directions,
// per-component Gaussians (Theorem 3), and permutations (the "P" in
// PSGD).
//
// Every function takes an explicit *rand.Rand so that callers control
// seeding; nothing in this package reads global state. This keeps the
// whole reproduction deterministic under a fixed seed, which the test
// suite and the experiment harness rely on.
package rng

import (
	"fmt"
	"math"
	"math/rand"
)

// Gamma draws one sample from the Gamma distribution with the given
// shape and scale (mean = shape*scale). It uses the Marsaglia–Tsang
// squeeze method for shape >= 1 and the standard boost for shape < 1.
// It panics on non-positive parameters.
func Gamma(r *rand.Rand, shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic(fmt.Sprintf("rng: Gamma requires positive parameters, got shape=%v scale=%v", shape, scale))
	}
	if shape < 1 {
		// Boost: if X ~ Gamma(shape+1) and U ~ Uniform(0,1) then
		// X * U^{1/shape} ~ Gamma(shape).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return Gamma(r, shape+1, scale) * math.Pow(u, 1/shape)
	}
	// Marsaglia & Tsang, "A Simple Method for Generating Gamma
	// Variables" (2000).
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// unitSphere fills dst with a point drawn uniformly at random from the
// surface of the unit sphere in R^len(dst). This is the standard
// normalize-a-Gaussian construction referenced by the paper's
// Appendix E. A zero draw (probability 0) is retried.
func unitSphere(r *rand.Rand, dst []float64) {
	for {
		var n float64
		for i := range dst {
			dst[i] = r.NormFloat64()
			n += dst[i] * dst[i]
		}
		if n > 0 {
			n = math.Sqrt(n)
			for i := range dst {
				dst[i] /= n
			}
			return
		}
	}
}

// GammaSphere fills dst with the ε-DP output-perturbation noise vector
// of Theorem 1 / Appendix E: a direction uniform on the unit sphere
// scaled by a magnitude drawn from Gamma(d, sensitivity/epsilon), so the
// density of the vector is proportional to exp(-ε‖κ‖/Δ₂).
func GammaSphere(r *rand.Rand, dst []float64, sensitivity, epsilon float64) {
	if len(dst) == 0 {
		return
	}
	if sensitivity < 0 || epsilon <= 0 {
		panic(fmt.Sprintf("rng: GammaSphere requires sensitivity>=0 and epsilon>0, got %v, %v", sensitivity, epsilon))
	}
	if sensitivity == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	unitSphere(r, dst)
	l := Gamma(r, float64(len(dst)), sensitivity/epsilon)
	for i := range dst {
		dst[i] *= l
	}
}

// GaussianVec fills dst with independent N(0, sigma^2) components —
// the (ε,δ)-DP Gaussian mechanism noise of Theorem 3.
func GaussianVec(r *rand.Rand, dst []float64, sigma float64) {
	if sigma < 0 {
		panic(fmt.Sprintf("rng: GaussianVec requires sigma>=0, got %v", sigma))
	}
	for i := range dst {
		dst[i] = r.NormFloat64() * sigma
	}
}

// Perm returns a uniformly random permutation of [0, n) — the
// permutation τ sampled once at the start of PSGD (§2).
func Perm(r *rand.Rand, n int) []int {
	return r.Perm(n)
}

// GaussianSigma returns the Gaussian-mechanism standard deviation of
// Theorem 3: sigma = sqrt(2 ln(1.25/δ)) · Δ₂ / ε. Theorem 3 proves the
// release (ε,δ)-DP for ε ≤ 1 only. A larger ε is accepted, but there
// the classical σ carries no proof, and above about ε ≈ 9 at δ = 1e-5
// it is not (ε,δ)-DP: a stated ε = 16 is really 18.9. It panics on a
// non-positive ε, a δ outside (0,1) or a negative sensitivity.
func GaussianSigma(sensitivity, epsilon, delta float64) float64 {
	if epsilon <= 0 || delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("rng: GaussianSigma requires epsilon>0, delta in (0,1), got ε=%v δ=%v", epsilon, delta))
	}
	if sensitivity < 0 {
		panic("rng: negative sensitivity")
	}
	return math.Sqrt(2*math.Log(1.25/delta)) * sensitivity / epsilon
}
