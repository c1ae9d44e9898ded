// Package vec provides the dense vector and matrix kernels used across
// the repository: inner products, norms, scaled additions, projections
// onto L2 balls and simple dense matrices for random projection.
//
// All operations are written against plain []float64 so that callers can
// slice into row-major storage (the Bismarck page store hands out row
// views without copying). Functions that write results take the
// destination first, following the stdlib copy convention, and panic on
// length mismatches: a mismatch is always a programming error, never a
// data error.
package vec

import (
	"fmt"
	"math"
)

// Dot returns the standard inner product <a, b>.
// It panics if the lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, ai := range a {
		s += ai * b[i]
	}
	return s
}

// Norm returns the Euclidean (L2) norm of a.
func Norm(a []float64) float64 {
	// Two-pass scaling is unnecessary here: all quantities in this
	// codebase are normalized to the unit ball or perturbed with noise
	// of moderate magnitude, so naive accumulation does not overflow.
	var s float64
	for _, ai := range a {
		s += ai * ai
	}
	return math.Sqrt(s)
}

// Dist returns the Euclidean distance between a and b.
// It panics if the lengths differ.
func Dist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dist length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, ai := range a {
		d := ai - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Axpy computes dst += alpha * x elementwise.
// It panics if the lengths differ.
func Axpy(dst []float64, alpha float64, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("vec: Axpy length mismatch %d != %d", len(dst), len(x)))
	}
	for i, xi := range x {
		dst[i] += alpha * xi
	}
}

// Scale multiplies every element of a by alpha in place.
func Scale(a []float64, alpha float64) {
	for i := range a {
		a[i] *= alpha
	}
}

// Add computes dst = a + b. dst may alias a or b.
func Add(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("vec: Add length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Sub computes dst = a - b. dst may alias a or b.
func Sub(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("vec: Sub length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Copy returns a newly allocated copy of a.
func Copy(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// Touch reads one word per 64-byte cache line of a, plus the last word
// (a need not be line-aligned), and returns their sum so the loads are
// kept. It is the body of the row sources' look-ahead hint (sgd's
// Touch contract): the loads are independent, so their misses overlap.
func Touch(a []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	s := a[len(a)-1]
	for k := 0; k < len(a); k += 8 {
		s += a[k]
	}
	return s
}

// Zero sets every element of a to 0.
func Zero(a []float64) {
	for i := range a {
		a[i] = 0
	}
}

// ProjectBall projects w in place onto the L2 ball of radius r centered
// at the origin: if ||w|| > r the vector is rescaled to norm exactly r,
// otherwise it is left untouched. This is the projection operator
// Π_C of the paper's constrained update rule (7) for C = {w : ||w|| ≤ r}.
// A non-positive r means "unconstrained" and is a no-op, matching the
// paper's unconstrained convex experiments.
func ProjectBall(w []float64, r float64) {
	if r <= 0 {
		return
	}
	n := Norm(w)
	if n > r {
		Scale(w, r/n)
	}
}

// Normalize rescales a in place to unit L2 norm. Zero vectors are left
// unchanged. This is the feature preprocessing the paper assumes
// (each ||x|| ≤ 1, §2).
func Normalize(a []float64) {
	n := Norm(a)
	if n > 0 {
		Scale(a, 1/n)
	}
}

// Mean computes dst = the elementwise mean of the given vectors.
// It panics if vs is empty or lengths differ.
func Mean(dst []float64, vs ...[]float64) {
	if len(vs) == 0 {
		panic("vec: Mean of no vectors")
	}
	Zero(dst)
	for _, v := range vs {
		Axpy(dst, 1, v)
	}
	Scale(dst, 1/float64(len(vs)))
}

// Matrix is a dense row-major matrix. It is the minimal representation
// needed for Gaussian random projection (paper §2, "Random Projection").
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("vec: NewMatrix invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns a view of row i (no copy).
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// MulVec computes dst = M * x where x has length Cols and dst length
// Rows. dst must not alias x.
func (m *Matrix) MulVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("vec: MulVec shape mismatch m=%dx%d len(x)=%d len(dst)=%d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
}

// Equal reports whether a and b have the same length and all elements
// within tol of each other.
func Equal(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
