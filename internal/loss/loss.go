// Package loss implements the convex per-example loss functions the
// paper evaluates — logistic regression, Huber SVM and (as an extra)
// least squares, each with optional L2 regularization — together with
// the derivation of the constants (L, β, γ) of Definition 1 that the
// sensitivity calculus in internal/dp consumes.
//
// All derivations assume the paper's preprocessing: every feature
// vector is normalized to the unit ball (‖x‖ ≤ 1) and, when λ > 0, the
// hypothesis space is the ball of radius R (‖w‖ ≤ R). The constants
// follow §2 of the paper exactly:
//
//	logistic, λ = 0:  L = 1,      β = 1,        γ = 0
//	logistic, λ > 0:  L = 1+λR,   β = 1+λ,      γ = λ
//	Huber(h), λ = 0:  L = 1,      β = 1/(2h),   γ = 0
//	Huber(h), λ > 0:  L = 1+λR,   β = 1/(2h)+λ, γ = λ
package loss

import (
	"fmt"
	"math"

	"boltondp/internal/vec"
)

// Params carries the optimization-theoretic constants of a loss
// (Definition 1 of the paper): the Lipschitz constant L of the loss,
// the smoothness β of its gradient, and the strong-convexity modulus γ.
type Params struct {
	L     float64 // Lipschitz constant of ℓ(·, z)
	Beta  float64 // smoothness: ‖∇ℓ(u)−∇ℓ(v)‖ ≤ β‖u−v‖
	Gamma float64 // strong convexity (0 for merely convex losses)
}

// StronglyConvex reports whether the loss is γ-strongly convex for γ>0.
func (p Params) StronglyConvex() bool { return p.Gamma > 0 }

// Function is a per-example loss ℓ(w; (x, y)) of a linear model, in
// factored form: every loss in this package is g(⟨w,x⟩, y) + (λ/2)‖w‖²
// for a scalar data-fit term g, so its gradient factors as
//
//	∇_w ℓ = Deriv(⟨w,x⟩, y)·x + λ·w
//
// — a scalar times the example plus a uniform shrink. Both execution
// kernels of internal/sgd are built on this contract. The sparse
// kernel's per-example work is one sparse dot to get p = ⟨w,x⟩, one
// scalar Deriv call, and one sparse axpy, touching only the non-zeros
// of x, while the λ·w term becomes an O(1) rescale under the
// scaled-weight representation. The dense kernel's row fold (sgd.Fold)
// takes four rows' margins in one sweep over w, calls Deriv for each
// and folds Deriv·x + Reg·w into the batch gradient. Eval and Grad
// below compute the whole loss and gradient from the same three
// methods, so every path shares the exact same scalar arithmetic.
//
// Implementations must be convex in w for every example, as required
// by the paper's privacy analysis.
type Function interface {
	// Name identifies the loss in logs and experiment output.
	Name() string
	// Params returns (L, β, γ) under the preprocessing assumptions
	// ‖x‖ ≤ 1 and ‖w‖ ≤ R (the R used at construction).
	Params() Params
	// Deriv returns ∂g/∂p at p = ⟨w,x⟩ — the scalar c of the factored
	// gradient c·x + λw. For margin losses this is y·g'(y·p) with g'
	// the margin derivative.
	Deriv(p, y float64) float64
	// EvalDot returns the data-fit term g(p, y): the loss value minus
	// the (λ/2)‖w‖² regularizer.
	EvalDot(p, y float64) float64
	// Reg returns the L2 regularization coefficient λ (0 when
	// unregularized).
	Reg() float64
}

// Eval returns ℓ(w; (x, y)) = g(⟨w,x⟩, y) + (λ/2)‖w‖².
func Eval(f Function, w, x []float64, y float64) float64 {
	base := f.EvalDot(vec.Dot(w, x), y)
	if lambda := f.Reg(); lambda > 0 {
		n := vec.Norm(w)
		base += 0.5 * lambda * n * n
	}
	return base
}

// Grad writes ∇_w ℓ(w; (x, y)) = Deriv(⟨w,x⟩, y)·x + λw into dst, which
// must have len(w).
func Grad(f Function, dst, w, x []float64, y float64) {
	if len(dst) != len(w) || len(w) != len(x) {
		panic("loss: Grad length mismatch")
	}
	c, lambda := f.Deriv(vec.Dot(w, x), y), f.Reg()
	for i := range dst {
		dst[i] = c*x[i] + lambda*w[i]
	}
}

// Logistic is the L2-regularized logistic loss of equation (1):
//
//	ℓ(w; (x,y)) = ln(1 + exp(−y·⟨w,x⟩)) + (λ/2)‖w‖²,  y ∈ {±1}.
type Logistic struct {
	Lambda float64 // L2 regularization parameter λ ≥ 0
	R      float64 // hypothesis-space radius (required when λ > 0)
}

// NewLogistic constructs a logistic loss. For λ > 0 the paper requires
// a bounded hypothesis space; following §4.3 we use R = 1/λ when the
// caller passes r <= 0.
func NewLogistic(lambda, r float64) *Logistic {
	if lambda < 0 {
		panic(fmt.Sprintf("loss: negative lambda %v", lambda))
	}
	if lambda > 0 && r <= 0 {
		r = 1 / lambda
	}
	return &Logistic{Lambda: lambda, R: r}
}

// Name implements Function.
func (l *Logistic) Name() string {
	if l.Lambda > 0 {
		return fmt.Sprintf("logistic(λ=%g)", l.Lambda)
	}
	return "logistic"
}

// EvalDot implements Function: ln(1 + exp(−y·p)), stably.
func (l *Logistic) EvalDot(p, y float64) float64 {
	z := -y * p
	// log(1+e^z) computed stably for large |z|.
	if z > 30 {
		return z
	}
	return math.Log1p(math.Exp(z))
}

// Deriv implements Function: ∂g/∂p = −y·σ(−y·p), with σ the sigmoid.
func (l *Logistic) Deriv(p, y float64) float64 {
	z := y * p
	// σ(−z) = 1/(1+e^z), computed stably.
	var s float64
	if z > 30 {
		s = math.Exp(-z)
	} else {
		s = 1 / (1 + math.Exp(z))
	}
	return -y * s
}

// Reg implements Function.
func (l *Logistic) Reg() float64 { return l.Lambda }

// Params implements Function, per the derivation in §2 of the paper.
func (l *Logistic) Params() Params {
	if l.Lambda == 0 {
		return Params{L: 1, Beta: 1, Gamma: 0}
	}
	return Params{L: 1 + l.Lambda*l.R, Beta: 1 + l.Lambda, Gamma: l.Lambda}
}

// Huber is the smoothed hinge loss ("Huber SVM", Appendix B):
//
//	           0                      if z > 1+h
//	ℓ_huber =  (1+h−z)²/(4h)          if |1−z| ≤ h     (z = y⟨w,x⟩)
//	           1−z                    if z < 1−h
//
// plus (λ/2)‖w‖² when regularized.
type Huber struct {
	H      float64 // smoothing width h > 0 (paper uses h = 0.1)
	Lambda float64
	R      float64
}

// NewHuber constructs a Huber SVM loss with smoothing width h.
func NewHuber(h, lambda, r float64) *Huber {
	if h <= 0 {
		panic(fmt.Sprintf("loss: Huber requires h>0, got %v", h))
	}
	if lambda < 0 {
		panic(fmt.Sprintf("loss: negative lambda %v", lambda))
	}
	if lambda > 0 && r <= 0 {
		r = 1 / lambda
	}
	return &Huber{H: h, Lambda: lambda, R: r}
}

// Name implements Function.
func (l *Huber) Name() string {
	if l.Lambda > 0 {
		return fmt.Sprintf("huber(h=%g,λ=%g)", l.H, l.Lambda)
	}
	return fmt.Sprintf("huber(h=%g)", l.H)
}

// EvalDot implements Function: the three-piece margin loss at z = y·p.
func (l *Huber) EvalDot(p, y float64) float64 {
	z := y * p
	switch {
	case z > 1+l.H:
		return 0
	case z < 1-l.H:
		return 1 - z
	default:
		d := 1 + l.H - z
		return d * d / (4 * l.H)
	}
}

// Deriv implements Function. dℓ/dz is 0, −(1+h−z)/(2h) or −1 on the
// three pieces; the chain rule multiplies by y.
func (l *Huber) Deriv(p, y float64) float64 {
	z := y * p
	var dz float64
	switch {
	case z > 1+l.H:
		dz = 0
	case z < 1-l.H:
		dz = -1
	default:
		dz = -(1 + l.H - z) / (2 * l.H)
	}
	return dz * y
}

// Reg implements Function.
func (l *Huber) Reg() float64 { return l.Lambda }

// Params implements Function. Appendix B: L ≤ 1 and β ≤ 1/(2h) for the
// unregularized Huber loss under ‖x‖ ≤ 1.
func (l *Huber) Params() Params {
	if l.Lambda == 0 {
		return Params{L: 1, Beta: 1 / (2 * l.H), Gamma: 0}
	}
	return Params{L: 1 + l.Lambda*l.R, Beta: 1/(2*l.H) + l.Lambda, Gamma: l.Lambda}
}

// LeastSquares is the squared loss ℓ = (⟨w,x⟩ − y)²/2 + (λ/2)‖w‖².
// It is not part of the paper's evaluation but is a standard convex ERM
// instance (ridge regression) that exercises the same machinery; the
// constants below assume ‖x‖ ≤ 1, |y| ≤ 1 and ‖w‖ ≤ R.
type LeastSquares struct {
	Lambda float64
	R      float64
}

// NewLeastSquares constructs a least-squares loss.
func NewLeastSquares(lambda, r float64) *LeastSquares {
	if lambda < 0 {
		panic(fmt.Sprintf("loss: negative lambda %v", lambda))
	}
	if lambda > 0 && r <= 0 {
		r = 1 / lambda
	}
	if r <= 0 {
		// Even without regularization the Lipschitz constant of the
		// squared loss depends on the radius; default to the unit ball.
		r = 1
	}
	return &LeastSquares{Lambda: lambda, R: r}
}

// Name implements Function.
func (l *LeastSquares) Name() string { return fmt.Sprintf("leastsquares(λ=%g)", l.Lambda) }

// EvalDot implements Function: (p − y)²/2.
func (l *LeastSquares) EvalDot(p, y float64) float64 {
	e := p - y
	return 0.5 * e * e
}

// Deriv implements Function: ∂g/∂p = p − y.
func (l *LeastSquares) Deriv(p, y float64) float64 { return p - y }

// Reg implements Function.
func (l *LeastSquares) Reg() float64 { return l.Lambda }

// Params implements Function: |ℓ'(z)| = |z−y| ≤ R+1 on ‖w‖≤R, ‖x‖≤1,
// |y|≤1; the Hessian is xxᵀ + λI with norm ≤ 1+λ.
func (l *LeastSquares) Params() Params {
	return Params{L: l.R + 1 + l.Lambda*l.R, Beta: 1 + l.Lambda, Gamma: l.Lambda}
}
