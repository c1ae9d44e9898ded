package eval

import (
	"math/rand"
	"testing"

	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

// sparseSet builds a small sparse multiclass sample set and its dense
// mirror (labels are class indices).
func sparseSet(r *rand.Rand, m, d, classes int) (*sgd.SparseSliceSamples, *sgd.SliceSamples) {
	sp := &sgd.SparseSliceSamples{D: d}
	de := &sgd.SliceSamples{}
	for i := 0; i < m; i++ {
		dense := make([]float64, d)
		for k := 0; k < 3; k++ {
			dense[r.Intn(d)] = r.NormFloat64()
		}
		y := float64(r.Intn(classes))
		sp.X = append(sp.X, vec.DenseToSparse(dense))
		sp.Y = append(sp.Y, y)
		de.X = append(de.X, dense)
		de.Y = append(de.Y, y)
	}
	return sp, de
}

// Sparse scoring must agree with dense scoring exactly, for both the
// binary and the one-vs-all classifier.
func TestSparseScoringParity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	spM, deM := sparseSet(r, 150, 25, 4)
	ova := &OneVsAll{W: make([][]float64, 4)}
	for c := range ova.W {
		w := make([]float64, 25)
		for i := range w {
			w[i] = r.NormFloat64()
		}
		ova.W[c] = w
	}
	if got, want := Errors(spM, ova), Errors(deM, ova); got != want {
		t.Errorf("one-vs-all Errors: sparse %d dense %d", got, want)
	}
	for i := 0; i < spM.Len(); i++ {
		xs, _ := spM.AtSparse(i)
		xd, _ := deM.At(i)
		if ps, pd := ova.PredictSparse(xs), ova.Predict(xd); ps != pd {
			t.Fatalf("row %d: sparse predicts %v, dense %v", i, ps, pd)
		}
	}

	// Binary: relabel class 0 as ±1 via the views.
	lin := &Linear{W: ova.W[0]}
	vs := newBinaryView(spM, 0)
	vd := newBinaryView(deM, 0)
	if got, want := Errors(vs, lin), Errors(vd, lin); got != want {
		t.Errorf("binary Errors: sparse %d dense %d", got, want)
	}
}

// newBinaryView must preserve the source's tier truthfully, and its
// shard views must keep it.
func TestNewBinaryViewTier(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	sp, de := sparseSet(r, 40, 10, 3)

	vs := newBinaryView(sp, 1)
	if _, ok := vs.(sgd.SparseSamples); !ok {
		t.Fatal("sparse source produced a dense-only view")
	}
	vd := newBinaryView(de, 1)
	if _, ok := vd.(sgd.SparseSamples); ok {
		t.Fatal("dense source produced a sparse-claiming view")
	}

	// Relabeling matches between tiers.
	ss := vs.(sgd.SparseSamples)
	for i := 0; i < vs.Len(); i++ {
		_, ys := ss.AtSparse(i)
		_, yd := vd.At(i)
		if ys != yd {
			t.Fatalf("row %d relabel mismatch: %v vs %v", i, ys, yd)
		}
		if ys != 1 && ys != -1 {
			t.Fatalf("row %d label %v", i, ys)
		}
	}

	// Sharding preserves the tier (SparseSliceSamples implements the
	// structural Sharder contract).
	type sharder interface {
		Shard(lo, hi int) sgd.Samples
	}
	shard := vs.(sharder).Shard(5, 25)
	if _, ok := shard.(sgd.SparseSamples); !ok {
		t.Error("shard of a sparse binary view dropped the tier")
	}
}

// PredictSparse must agree with Predict on scattered rows.
func TestPredictSparseMatchesPredict(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ova := &OneVsAll{W: [][]float64{{1, 0, -1}, {0, 1, 0}, {-1, 0, 1}}}
	lin := &Linear{W: []float64{0.5, -1, 0.25}}
	for trial := 0; trial < 100; trial++ {
		dense := make([]float64, 3)
		for i := range dense {
			if r.Float64() < 0.6 {
				dense[i] = r.NormFloat64()
			}
		}
		s := vec.DenseToSparse(dense)
		if ova.PredictSparse(s) != ova.Predict(dense) {
			t.Fatalf("OneVsAll mismatch on %v", dense)
		}
		if lin.PredictSparse(s) != lin.Predict(dense) {
			t.Fatalf("Linear mismatch on %v", dense)
		}
	}
}
