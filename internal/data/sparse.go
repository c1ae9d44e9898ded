package data

import (
	"fmt"
	"math"
	"math/rand"

	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

// SparseDataset stores examples in CSR (compressed sparse row) form.
// It implements both tiers of the engine's data contract: AtSparse
// hands out zero-copy row views straight from the CSR arrays (the
// sparse-native fast path — sgd.Run runs such sources at O(nnz) per
// example), and At scatters into a dense scratch buffer for the
// legacy dense tier. For the one-hot-heavy datasets the paper's
// domain cares about (KDDCup-99 style logs, text), this cuts both
// memory and per-epoch arithmetic by the sparsity factor.
//
// At and AtSparse reuse per-dataset buffers, so — like bismarck.Table
// — a SparseDataset must not be shared across concurrent SGD runs;
// the sharded engine instead goes through Shard, which hands each
// worker an independent view with private buffers.
type SparseDataset struct {
	Name    string
	Classes int

	dim    int
	indptr []int // len = rows+1
	idx    []int
	val    []float64
	y      []float64

	scratch []float64  // At's dense row, allocated by the first At
	row     vec.Sparse // reused AtSparse header (no per-row allocation)
}

// NewSparseDataset creates an empty sparse dataset of the given
// dimension.
func NewSparseDataset(name string, dim int) *SparseDataset {
	if dim < 1 {
		panic(fmt.Sprintf("data: sparse dataset dim %d", dim))
	}
	return &SparseDataset{
		Name: name, Classes: 2, dim: dim,
		indptr: []int{0},
	}
}

// FromDense converts a dense Dataset to CSR form.
func FromDense(d *Dataset) *SparseDataset {
	out := NewSparseDataset(d.Name+"-sparse", d.Dim())
	out.Classes = d.Classes
	for i := 0; i < d.Len(); i++ {
		x, y := d.At(i)
		s := vec.DenseToSparse(x)
		if err := out.Append(s, y); err != nil {
			panic(err) // DenseToSparse output is always canonical
		}
	}
	return out
}

// Append adds one example.
func (d *SparseDataset) Append(s *vec.Sparse, y float64) error {
	if s.MaxIndex() >= d.dim {
		return fmt.Errorf("data: sparse row index %d exceeds dim %d", s.MaxIndex(), d.dim)
	}
	d.idx = append(d.idx, s.Idx...)
	d.val = append(d.val, s.Val...)
	d.indptr = append(d.indptr, len(d.idx))
	d.y = append(d.y, y)
	return nil
}

// Len implements sgd.Samples.
func (d *SparseDataset) Len() int { return len(d.y) }

// Dim implements sgd.Samples.
func (d *SparseDataset) Dim() int { return d.dim }

// At implements sgd.Samples; the returned slice is valid until the next
// At call.
func (d *SparseDataset) At(i int) ([]float64, float64) {
	return d.at(i, &d.scratch)
}

// at scatters row i into the given scratch buffer, so independent shard
// views can scan concurrently. The buffer is allocated by its first
// use: a dataset only the sparse tier reads never holds a dense row,
// whose width is the widest column, not anything the file holds.
func (d *SparseDataset) at(i int, buf *[]float64) ([]float64, float64) {
	if *buf == nil {
		*buf = make([]float64, d.dim)
	}
	scratch := *buf
	for j := range scratch {
		scratch[j] = 0
	}
	for k := d.indptr[i]; k < d.indptr[i+1]; k++ {
		scratch[d.idx[k]] = d.val[k]
	}
	return scratch, d.y[i]
}

// AtSparse implements sgd.SparseSamples: a zero-copy view of row i
// into the CSR arrays through a reused header, valid until the next
// AtSparse call. This is what lets sgd.Run execute at O(nnz) per
// example with zero steady-state allocations.
func (d *SparseDataset) AtSparse(i int) (*vec.Sparse, float64) {
	lo, hi := d.indptr[i], d.indptr[i+1]
	d.row.Idx = d.idx[lo:hi]
	d.row.Val = d.val[lo:hi]
	return &d.row, d.y[i]
}

// Touch is the epoch loops' look-ahead hint (sgd's Touch contract); it
// writes nothing, so shard views share it.
func (d *SparseDataset) Touch(i int) float64 {
	lo, hi := d.indptr[i], d.indptr[i+1]
	return d.y[i] + vec.TouchSparse(d.idx[lo:hi], d.val[lo:hi])
}

// Shard implements engine.Sharder: an independent read-only view of
// rows [lo, hi) with its own dense scratch (allocated by its first At,
// as the dataset's is), so shards of one SparseDataset can be scanned
// concurrently by the sharded engine (the CSR arrays themselves are
// immutable during training).
func (d *SparseDataset) Shard(lo, hi int) sgd.Samples {
	return &sparseShard{d: d, lo: lo, hi: hi}
}

type sparseShard struct {
	d       *SparseDataset
	lo, hi  int
	scratch []float64
	row     vec.Sparse
}

func (v *sparseShard) Len() int { return v.hi - v.lo }
func (v *sparseShard) Dim() int { return v.d.dim }
func (v *sparseShard) At(i int) ([]float64, float64) {
	if i < 0 || i >= v.hi-v.lo {
		// Shard disjointness backs the /P sensitivity division; an
		// interior overrun must fail loudly, not read a neighbor's row.
		panic(fmt.Sprintf("data: shard row %d out of range [0,%d)", i, v.hi-v.lo))
	}
	return v.d.at(v.lo+i, &v.scratch)
}

// AtSparse keeps shard views on the sparse fast path. The CSR arrays
// are immutable during training and each view carries its own row
// header, so concurrent shard scans never race.
func (v *sparseShard) AtSparse(i int) (*vec.Sparse, float64) {
	if i < 0 || i >= v.hi-v.lo {
		panic(fmt.Sprintf("data: shard row %d out of range [0,%d)", i, v.hi-v.lo))
	}
	j := v.lo + i
	lo, hi := v.d.indptr[j], v.d.indptr[j+1]
	v.row.Idx = v.d.idx[lo:hi]
	v.row.Val = v.d.val[lo:hi]
	return &v.row, v.d.y[j]
}

// Touch forwards the hint in parent coordinates.
func (v *sparseShard) Touch(i int) float64 { return v.d.Touch(v.lo + i) }

// Shard keeps views shardable in turn, translating to parent
// coordinates so sharded runs over a row-range view stay race-free.
func (v *sparseShard) Shard(lo, hi int) sgd.Samples {
	return v.d.Shard(v.lo+lo, v.lo+hi)
}

// Row returns the i-th example in sparse form (views into the CSR
// arrays — do not modify).
func (d *SparseDataset) Row(i int) (*vec.Sparse, float64) {
	lo, hi := d.indptr[i], d.indptr[i+1]
	return &vec.Sparse{Idx: d.idx[lo:hi], Val: d.val[lo:hi]}, d.y[i]
}

// NNZ returns the total stored non-zeros.
func (d *SparseDataset) NNZ() int { return len(d.idx) }

// Density returns NNZ / (rows·dim).
func (d *SparseDataset) Density() float64 {
	if d.Len() == 0 {
		return 0
	}
	return float64(d.NNZ()) / (float64(d.Len()) * float64(d.dim))
}

// Normalize rescales every stored row to the unit ball.
func (d *SparseDataset) Normalize() {
	for i := 0; i < d.Len(); i++ {
		lo, hi := d.indptr[i], d.indptr[i+1]
		var sum float64
		for k := lo; k < hi; k++ {
			sum += d.val[k] * d.val[k]
		}
		if sum > 1 {
			inv := 1 / math.Sqrt(sum)
			for k := lo; k < hi; k++ {
				d.val[k] *= inv
			}
		}
	}
}

// LoadLIBSVMSparse reads a LIBSVM file directly into CSR form in one
// streaming pass: rows are appended to the CSR arrays as they are
// parsed (via ScanLIBSVM, the shared grammar), so no dense row and no
// intermediate per-row copy is ever materialized and the density is
// known the moment the single pass ends. dim semantics match
// LoadLIBSVM; 0/1 labels are remapped to ±1.
func LoadLIBSVMSparse(path string, dim int) (*SparseDataset, error) {
	maxIdx := dim - 1
	indptr := []int{0}
	var idx []int
	var val []float64
	var ys []float64
	labels := map[float64]bool{}
	err := ScanLIBSVM(path, func(row *vec.Sparse, y float64) error {
		if mi := row.MaxIndex(); mi > maxIdx {
			maxIdx = mi
		}
		idx = append(idx, row.Idx...)
		val = append(val, row.Val...)
		indptr = append(indptr, len(idx))
		ys = append(ys, y)
		labels[y] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(ys) == 0 {
		return nil, fmt.Errorf("data: %s: no examples", path)
	}
	if maxIdx < 0 {
		return nil, fmt.Errorf("data: %s: no features (dimension 0)", path)
	}

	out := NewSparseDataset(path, maxIdx+1)
	out.Classes = remap01(ys, labels)
	out.indptr, out.idx, out.val, out.y = indptr, idx, val, ys
	return out, nil
}

// ToDense materializes the dataset as a dense Dataset — the inverse of
// FromDense. Used by the sparse-vs-dense parity experiments and by
// callers whose density makes CSR storage a loss.
func (d *SparseDataset) ToDense() *Dataset {
	out := &Dataset{Name: d.Name + "-dense", Classes: d.Classes}
	out.X = make([][]float64, d.Len())
	out.Y = make([]float64, d.Len())
	for i := 0; i < d.Len(); i++ {
		x := make([]float64, d.dim)
		for k := d.indptr[i]; k < d.indptr[i+1]; k++ {
			x[d.idx[k]] = d.val[k]
		}
		out.X[i] = x
		out.Y[i] = d.y[i]
	}
	return out
}

// Split partitions the dataset into a training set of the given
// fraction and a test set of the remainder after a random shuffle —
// the CSR analogue of Dataset.Split, consuming the same amount of
// randomness (one Perm).
func (d *SparseDataset) Split(r *rand.Rand, trainFrac float64) (train, test *SparseDataset) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("data: trainFrac must be in (0,1), got %v", trainFrac))
	}
	perm := r.Perm(d.Len())
	cut := int(float64(d.Len()) * trainFrac)
	mk := func(idx []int, suffix string) *SparseDataset {
		out := NewSparseDataset(d.Name+suffix, d.dim)
		out.Classes = d.Classes
		for _, j := range idx {
			row, y := d.Row(j)
			if err := out.Append(row, y); err != nil {
				panic(err) // rows of a valid dataset always re-append
			}
		}
		return out
	}
	return mk(perm[:cut], "-train"), mk(perm[cut:], "-test")
}

// KDDSimSparse simulates the paper's KDDCup-99 intrusion-detection
// workload in its natural sparse encoding: the 41 raw features one-hot
// expanded to kddSparseDim columns, ~kddSparseNNZ active per row
// (continuous features plus one hot index per categorical block),
// ≈10% density. Row count follows KDDSim (494,021 train at scale 1);
// separability matches its near-separable regime. Rows are normalized
// to the unit ball, labels are ±1.
func KDDSimSparse(r *rand.Rand, scale float64) (train, test *SparseDataset) {
	m := scaled(543423, scale, 550)
	full := kddSparseGen(r, m)
	cut := m * 10 / 11
	train = full.slice(0, cut, "kdd-sparse-sim-train")
	test = full.slice(cut, m, "kdd-sparse-sim-test")
	return train, test
}

const (
	kddSparseDim = 122 // 41 raw features after one-hot expansion
	kddSparseNNZ = 12  // ~8 continuous + ~4 active one-hot columns → ~10% density
)

// kddSparseGen draws m one-hot-heavy rows: 8 always-on continuous
// columns with class-shifted means, then one hot column per
// categorical block whose choice is class-correlated — the structure
// that makes KDDCup-99 nearly separable.
func kddSparseGen(r *rand.Rand, m int) *SparseDataset {
	out := NewSparseDataset("kdd-sparse-sim", kddSparseDim)
	const continuous = 8
	// Four categorical blocks partition the remaining columns.
	blocks := [][2]int{{8, 40}, {40, 70}, {70, 100}, {100, kddSparseDim}}
	idx := make([]int, 0, kddSparseNNZ)
	val := make([]float64, 0, kddSparseNNZ)
	for i := 0; i < m; i++ {
		label := 1.0
		if r.Float64() < 0.5 {
			label = -1
		}
		idx = idx[:0]
		val = val[:0]
		for j := 0; j < continuous; j++ {
			idx = append(idx, j)
			val = append(val, 0.3*label+r.NormFloat64()*0.25)
		}
		for _, blk := range blocks {
			width := blk[1] - blk[0]
			// Attack and normal traffic favor different halves of each
			// categorical vocabulary; 10% of draws cross over, keeping
			// the task near- but not perfectly separable (KDDSim's
			// Flip≈0.004 analogue lives in the label noise below).
			half := width / 2
			var off int
			if (label > 0) != (r.Float64() < 0.1) {
				off = r.Intn(half)
			} else {
				off = half + r.Intn(width-half)
			}
			idx = append(idx, blk[0]+off)
			val = append(val, 1)
		}
		// Indices are emitted in increasing order by construction, and
		// Append copies, so the reused buffers can back the row directly.
		s, err := vec.NewSparse(idx, val)
		if err != nil {
			panic(err)
		}
		if n := s.Norm(); n > 1 {
			s.Scale(1 / n)
		}
		y := label
		if r.Float64() < 0.004 {
			y = -y
		}
		if err := out.Append(s, y); err != nil {
			panic(err)
		}
	}
	return out
}

// slice copies rows [lo, hi) into a new dataset under the given name.
func (d *SparseDataset) slice(lo, hi int, name string) *SparseDataset {
	out := NewSparseDataset(name, d.dim)
	out.Classes = d.Classes
	for i := lo; i < hi; i++ {
		row, y := d.Row(i)
		if err := out.Append(row, y); err != nil {
			panic(err)
		}
	}
	return out
}

// SparseSynthetic generates a sparse binary classification problem:
// each example activates nnz random coordinates; one block of
// coordinates is class-correlated. Used by the sparse tests and
// benchmarks.
func SparseSynthetic(r *rand.Rand, m, dim, nnz int, flip float64) *SparseDataset {
	if m < 1 || dim < 2 || nnz < 1 || nnz > dim {
		panic(fmt.Sprintf("data: bad SparseSynthetic args m=%d dim=%d nnz=%d", m, dim, nnz))
	}
	if nnz/2+1 > dim/2 {
		// The class-correlated draws come from one half of the index
		// space; a half smaller than nnz/2+1 would make the duplicate
		// rejection loop below spin forever.
		panic(fmt.Sprintf("data: SparseSynthetic needs nnz/2+1 ≤ dim/2, got nnz=%d dim=%d", nnz, dim))
	}
	out := NewSparseDataset("sparse-synth", dim)
	half := dim / 2
	for i := 0; i < m; i++ {
		label := 1.0
		if r.Float64() < 0.5 {
			label = -1
		}
		// Class +1 activates low coordinates, class −1 high ones, plus
		// uniform noise coordinates.
		seen := map[int]bool{}
		var idx []int
		var val []float64
		for len(idx) < nnz {
			var ix int
			if len(idx) < nnz/2+1 {
				if label > 0 {
					ix = r.Intn(half)
				} else {
					ix = half + r.Intn(dim-half)
				}
			} else {
				ix = r.Intn(dim)
			}
			if seen[ix] {
				continue
			}
			seen[ix] = true
			idx = append(idx, ix)
			val = append(val, 0.5+r.Float64())
		}
		s, err := vec.SortedCopy(idx, val)
		if err != nil {
			panic(err)
		}
		// Normalize the row to the unit ball.
		if n := s.Norm(); n > 1 {
			s.Scale(1 / n)
		}
		y := label
		if flip > 0 && r.Float64() < flip {
			y = -y
		}
		if err := out.Append(s, y); err != nil {
			panic(err)
		}
	}
	return out
}
