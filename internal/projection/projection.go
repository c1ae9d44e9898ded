// Package projection implements Gaussian random projection (paper §2,
// "Random Projection"): a random linear map T : R^d → R^p with i.i.d.
// N(0, 1/p) entries applied to every feature vector, used to lower the
// dimension of high-dimensional datasets (MNIST: 784 → 50) so that the
// d-dependent privacy noise stays small.
//
// Privacy is unaffected: T is sampled independently of the data, and
// neighboring datasets remain neighboring after the map (§2). Utility
// is approximately preserved by the Johnson–Lindenstrauss property of
// the Gaussian ensemble.
package projection

import (
	"fmt"
	"math"
	"math/rand"

	"boltondp/internal/vec"
)

// Projector is a fixed Gaussian random projection matrix.
type Projector struct {
	// T is the p×d projection matrix with N(0, 1/p) entries.
	T *vec.Matrix
}

// New samples a projection from dimension d down to p. It panics if
// p or d is non-positive or p > d (projection must not raise the
// dimension — that would inflate the privacy noise it exists to avoid).
func New(r *rand.Rand, d, p int) *Projector {
	if d <= 0 || p <= 0 || p > d {
		panic(fmt.Sprintf("projection: invalid shape d=%d p=%d", d, p))
	}
	t := vec.NewMatrix(p, d)
	scale := 1 / math.Sqrt(float64(p))
	for i := range t.Data {
		t.Data[i] = r.NormFloat64() * scale
	}
	return &Projector{T: t}
}

// OutDim returns the projected dimension p.
func (p *Projector) OutDim() int { return p.T.Rows }

// Apply returns T·x as a new vector. The result is renormalized to the
// unit ball, preserving the ‖x‖ ≤ 1 preprocessing invariant the
// sensitivity analysis needs (JL keeps norms ≈ 1, but "≈" is not "≤").
func (p *Projector) Apply(x []float64) []float64 {
	out := make([]float64, p.OutDim())
	p.T.MulVec(out, x)
	if n := vec.Norm(out); n > 1 {
		vec.Scale(out, 1/n)
	}
	return out
}

// ApplyAll projects every row of xs, returning a new slice.
func (p *Projector) ApplyAll(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = p.Apply(x)
	}
	return out
}
