package vec

import (
	"fmt"
	"math"
	"sort"
)

// Sparse is a sparse vector in coordinate form with strictly increasing
// indices. Real in-RDBMS feature data (KDDCup-99 one-hot encodings, text
// features) is overwhelmingly sparse; this representation backs
// data.SparseDataset so paper-scale sparse datasets fit in memory.
type Sparse struct {
	Idx []int     // strictly increasing, non-negative
	Val []float64 // len(Val) == len(Idx)
}

// NewSparse validates and wraps a coordinate-form vector. Indices must
// be non-negative and strictly increasing.
func NewSparse(idx []int, val []float64) (*Sparse, error) {
	if len(idx) != len(val) {
		return nil, fmt.Errorf("vec: sparse index/value length mismatch %d != %d", len(idx), len(val))
	}
	for i, ix := range idx {
		if ix < 0 {
			return nil, fmt.Errorf("vec: negative sparse index %d", ix)
		}
		if i > 0 && idx[i-1] >= ix {
			return nil, fmt.Errorf("vec: sparse indices not strictly increasing at %d", i)
		}
	}
	return &Sparse{Idx: idx, Val: val}, nil
}

// DenseToSparse extracts the non-zero coordinates of x.
func DenseToSparse(x []float64) *Sparse {
	s := &Sparse{}
	for i, v := range x {
		if v != 0 {
			s.Idx = append(s.Idx, i)
			s.Val = append(s.Val, v)
		}
	}
	return s
}

// NNZ returns the number of stored (non-zero) coordinates.
func (s *Sparse) NNZ() int { return len(s.Idx) }

// MaxIndex returns the largest index, or -1 for an empty vector.
func (s *Sparse) MaxIndex() int {
	if len(s.Idx) == 0 {
		return -1
	}
	return s.Idx[len(s.Idx)-1]
}

// TouchSparse is Touch over a sparse row's two arrays, taken by value on
// purpose: through a row header written to memory and read back, every
// line load would wait on a store whose data is itself a missed load.
func TouchSparse(idx []int, val []float64) float64 {
	n := len(idx)
	if n == 0 || len(val) != n {
		return 0
	}
	t := val[n-1] + float64(idx[n-1])
	for k := 0; k < n; k += 8 {
		t += val[k] + float64(idx[k])
	}
	return t
}

// Dot returns ⟨s, dense⟩. Indices beyond len(dense) contribute zero.
func (s *Sparse) Dot(dense []float64) float64 {
	var sum float64
	for i, ix := range s.Idx {
		if ix >= len(dense) {
			break
		}
		sum += s.Val[i] * dense[ix]
	}
	return sum
}

// Norm returns ‖s‖₂.
func (s *Sparse) Norm() float64 {
	var sum float64
	for _, v := range s.Val {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// Scale multiplies all stored values by alpha.
func (s *Sparse) Scale(alpha float64) {
	for i := range s.Val {
		s.Val[i] *= alpha
	}
}

// AxpyInto computes dst += alpha·s. Indices beyond len(dst) panic, as
// that is always a dimension bookkeeping bug.
func (s *Sparse) AxpyInto(dst []float64, alpha float64) {
	for i, ix := range s.Idx {
		dst[ix] += alpha * s.Val[i]
	}
}

// AxpyIntoDelta computes dst += alpha·s like AxpyInto and additionally
// returns the induced change in ‖dst‖²:
//
//	Δ = ‖dst+α·s‖² − ‖dst‖² = 2α⟨dst, s⟩ + α²‖s‖²
//
// evaluated against dst's pre-update values in the same single pass
// over the non-zeros. It is the kernel behind the sparse SGD engine's
// incremental norm tracking (internal/sgd): the engine keeps ‖v‖² as a
// running scalar so the O(1) projection test never has to rescan the
// dense model.
func (s *Sparse) AxpyIntoDelta(dst []float64, alpha float64) float64 {
	var cross, sq float64
	for i, ix := range s.Idx {
		v := s.Val[i]
		cross += dst[ix] * v
		sq += v * v
		dst[ix] += alpha * v
	}
	return 2*alpha*cross + alpha*alpha*sq
}

// Scatter writes s into dst, zeroing all other coordinates. len(dst)
// must cover MaxIndex.
func (s *Sparse) Scatter(dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for i, ix := range s.Idx {
		dst[ix] = s.Val[i]
	}
}

// SortedCopy returns a canonicalized copy of possibly-unsorted
// coordinate pairs (duplicates summed) — the forgiving constructor for
// parser output.
func SortedCopy(idx []int, val []float64) (*Sparse, error) {
	if len(idx) != len(val) {
		return nil, fmt.Errorf("vec: sparse index/value length mismatch %d != %d", len(idx), len(val))
	}
	type pair struct {
		i int
		v float64
	}
	ps := make([]pair, len(idx))
	for k := range idx {
		if idx[k] < 0 {
			return nil, fmt.Errorf("vec: negative sparse index %d", idx[k])
		}
		ps[k] = pair{idx[k], val[k]}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].i < ps[b].i })
	out := &Sparse{}
	for _, p := range ps {
		if n := len(out.Idx); n > 0 && out.Idx[n-1] == p.i {
			out.Val[n-1] += p.v
			continue
		}
		out.Idx = append(out.Idx, p.i)
		out.Val = append(out.Val, p.v)
	}
	return out, nil
}
