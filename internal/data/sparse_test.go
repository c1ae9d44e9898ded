package data

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"boltondp/internal/dp"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

func TestFromDenseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	dense := Synthetic(r, GenConfig{Name: "t", M: 100, D: 12, Classes: 2, Spread: 0.4})
	// Zero out some coordinates to make it genuinely sparse.
	for _, x := range dense.X {
		for j := range x {
			if j%3 != 0 {
				x[j] = 0
			}
		}
	}
	sp := FromDense(dense)
	if sp.Len() != dense.Len() || sp.Dim() != dense.Dim() {
		t.Fatalf("shape %dx%d, want %dx%d", sp.Len(), sp.Dim(), dense.Len(), dense.Dim())
	}
	for i := 0; i < dense.Len(); i++ {
		dx, dy := dense.At(i)
		sx, sy := sp.At(i)
		if !vec.Equal(dx, sx, 0) || dy != sy {
			t.Fatalf("row %d mismatch", i)
		}
	}
	if sp.Density() >= 0.5 {
		t.Errorf("density %v not sparse", sp.Density())
	}
	if sp.NNZ() == 0 {
		t.Error("no stored non-zeros")
	}
}

func TestSparseAppendValidation(t *testing.T) {
	d := NewSparseDataset("t", 5)
	s, _ := vec.NewSparse([]int{7}, []float64{1})
	if err := d.Append(s, 1); err == nil {
		t.Error("out-of-range index accepted")
	}
	ok, _ := vec.NewSparse([]int{4}, []float64{1})
	if err := d.Append(ok, 1); err != nil {
		t.Errorf("valid append rejected: %v", err)
	}
}

func TestSparseRowView(t *testing.T) {
	d := NewSparseDataset("t", 4)
	s, _ := vec.NewSparse([]int{1, 3}, []float64{2, 4})
	d.Append(s, -1)
	row, y := d.Row(0)
	if y != -1 || row.NNZ() != 2 || row.Idx[1] != 3 || row.Val[1] != 4 {
		t.Errorf("Row = %v/%v y=%v", row.Idx, row.Val, y)
	}
}

func TestSparseNormalize(t *testing.T) {
	d := NewSparseDataset("t", 3)
	big, _ := vec.NewSparse([]int{0, 1}, []float64{3, 4})
	small, _ := vec.NewSparse([]int{2}, []float64{0.5})
	d.Append(big, 1)
	d.Append(small, -1)
	d.Normalize()
	r0, _ := d.Row(0)
	if math.Abs(r0.Norm()-1) > 1e-12 {
		t.Errorf("big row norm %v", r0.Norm())
	}
	r1, _ := d.Row(1)
	if r1.Val[0] != 0.5 {
		t.Error("small row should be untouched")
	}
}

func TestLoadLIBSVMSparseMatchesDense(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.libsvm")
	content := "1 1:0.5 3:0.25\n-1 2:1\n1 1:0.1\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := LoadLIBSVMSparse(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	de, err := LoadLIBSVM(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Len() != de.Len() || sp.Dim() != de.Dim() {
		t.Fatalf("sparse %dx%d vs dense %dx%d", sp.Len(), sp.Dim(), de.Len(), de.Dim())
	}
	for i := 0; i < de.Len(); i++ {
		sx, sy := sp.At(i)
		dx, dy := de.At(i)
		if !vec.Equal(sx, dx, 0) || sy != dy {
			t.Fatalf("row %d: sparse %v/%v dense %v/%v", i, sx, sy, dx, dy)
		}
	}
}

func TestLoadLIBSVMSparseErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for name, content := range map[string]string{
		"bad label": "x 1:1\n", "bad pair": "1 nope\n", "bad idx": "1 0:1\n",
		"bad val": "1 1:zz\n", "empty": "\n",
	} {
		if _, err := LoadLIBSVMSparse(write(name, content), 0); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := LoadLIBSVMSparse(filepath.Join(dir, "nope"), 0); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSparseSyntheticInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	d := SparseSynthetic(r, 500, 200, 10, 0.02)
	if d.Len() != 500 || d.Dim() != 200 {
		t.Fatalf("shape %dx%d", d.Len(), d.Dim())
	}
	if den := d.Density(); den > 0.08 {
		t.Errorf("density %v too high for nnz=10/200", den)
	}
	for i := 0; i < d.Len(); i++ {
		row, y := d.Row(i)
		if row.Norm() > 1+1e-12 {
			t.Fatalf("row %d norm %v", i, row.Norm())
		}
		if y != 1 && y != -1 {
			t.Fatalf("label %v", y)
		}
	}
}

func TestSparseSyntheticPanics(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	defer func() {
		if recover() == nil {
			t.Error("nnz > dim accepted")
		}
	}()
	SparseSynthetic(r, 10, 5, 6, 0)
}

// Shapes whose class-correlated draws cannot fit in one half of the
// index space must be rejected up front — the generation loop would
// otherwise spin forever rejecting duplicates.
func TestSparseGeneratorsRejectOverfullHalf(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: nnz/2+1 > dim/2 accepted", name)
			}
		}()
		f()
	}
	r := rand.New(rand.NewSource(4))
	mustPanic("SparseSynthetic", func() { SparseSynthetic(r, 10, 3, 2, 0) })
}

func TestAtSparseMatchesAt(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	d := SparseSynthetic(r, 200, 50, 5, 0)
	for i := 0; i < d.Len(); i++ {
		dense, dy := d.At(i)
		dc := make([]float64, len(dense))
		copy(dc, dense) // At and AtSparse share the receiver's buffers
		row, sy := d.AtSparse(i)
		if sy != dy {
			t.Fatalf("row %d label %v vs %v", i, sy, dy)
		}
		back := make([]float64, d.Dim())
		row.Scatter(back)
		if !vec.Equal(dc, back, 0) {
			t.Fatalf("row %d sparse/dense mismatch", i)
		}
	}
}

// AtSparse must hand out views without allocating — the property the
// sparse kernel's 0 allocs/op guarantee rests on.
func TestAtSparseDoesNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := SparseSynthetic(r, 64, 50, 5, 0)
	sh := d.Shard(0, 32).(sgd.SparseSamples)
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		d.AtSparse(i)
		sh.AtSparse(i % 32)
		i = (i + 1) % 64
	})
	if allocs > 0 {
		t.Errorf("AtSparse allocates %v per call", allocs)
	}
}

func TestSparseShardAtSparse(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	d := SparseSynthetic(r, 100, 30, 4, 0)
	sh := d.Shard(20, 60).(sgd.SparseSamples)
	for i := 0; i < 40; i++ {
		want, wy := d.Row(20 + i)
		got, gy := sh.AtSparse(i)
		if gy != wy || got.NNZ() != want.NNZ() {
			t.Fatalf("shard row %d mismatch", i)
		}
		for k := range want.Idx {
			if got.Idx[k] != want.Idx[k] || got.Val[k] != want.Val[k] {
				t.Fatalf("shard row %d coord %d mismatch", i, k)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("shard overrun not caught")
		}
	}()
	sh.AtSparse(40)
}

func TestToDenseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	sp := SparseSynthetic(r, 150, 40, 6, 0.02)
	de := sp.ToDense()
	if de.Len() != sp.Len() || de.Dim() != sp.Dim() || de.Classes != sp.Classes {
		t.Fatalf("shape %dx%d classes %d", de.Len(), de.Dim(), de.Classes)
	}
	back := FromDense(de)
	for i := 0; i < sp.Len(); i++ {
		a, ay := sp.Row(i)
		b, by := back.Row(i)
		if ay != by || a.NNZ() != b.NNZ() {
			t.Fatalf("row %d changed through the round trip", i)
		}
	}
}

// Split must consume the same randomness as Dataset.Split so sparse
// and dense CLI runs with one seed see identical partitions.
func TestSparseSplitMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	sp := SparseSynthetic(r, 120, 25, 4, 0)
	de := sp.ToDense()
	sTr, sTe := sp.Split(rand.New(rand.NewSource(5)), 0.75)
	dTr, dTe := de.Split(rand.New(rand.NewSource(5)), 0.75)
	if sTr.Len() != dTr.Len() || sTe.Len() != dTe.Len() {
		t.Fatalf("split sizes differ: %d/%d vs %d/%d", sTr.Len(), sTe.Len(), dTr.Len(), dTe.Len())
	}
	for i := 0; i < sTr.Len(); i++ {
		sx, sy := sTr.At(i)
		dx, dy := dTr.At(i)
		if sy != dy || !vec.Equal(sx, dx, 0) {
			t.Fatalf("train row %d differs across representations", i)
		}
	}
}

func TestKDDSimSparse(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	train, test := KDDSimSparse(r, 0.01)
	if train.Len() < 400 || test.Len() < 40 {
		t.Fatalf("sizes %d/%d", train.Len(), test.Len())
	}
	if train.Dim() != 122 {
		t.Errorf("dim %d, want 122", train.Dim())
	}
	den := train.Density()
	if den < 0.05 || den > 0.15 {
		t.Errorf("density %v, want ≈0.10", den)
	}
	for i := 0; i < train.Len(); i++ {
		row, y := train.Row(i)
		if row.Norm() > 1+1e-12 {
			t.Fatalf("row %d norm %v", i, row.Norm())
		}
		if y != 1 && y != -1 {
			t.Fatalf("label %v", y)
		}
	}
	// The workload must be learnable: a noiseless sparse run separates it.
	f := loss.NewLogistic(1e-2, 0)
	p := f.Params()
	res, err := sgd.Run(train, sgd.Config{
		Loss: f, Step: sgd.StronglyConvexPaper(p.Beta, p.Gamma),
		Passes: 3, Batch: 10, Radius: 100, Rand: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < test.Len(); i++ {
		row, y := test.AtSparse(i)
		if math.Copysign(1, row.Dot(res.W)) == y {
			correct++
		}
	}
	if acc := float64(correct) / float64(test.Len()); acc < 0.9 {
		t.Errorf("test accuracy %v on the near-separable workload", acc)
	}
}

// A SparseDataset must plug directly into the private trainer — the
// whole point of implementing sgd.Samples.
func TestSparseDatasetTrainsPrivately(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	d := SparseSynthetic(r, 3000, 100, 8, 0.02)
	f := loss.NewLogistic(1e-2, 0)
	p := f.Params()
	res, err := sgd.Run(d, sgd.Config{
		Loss: f, Step: sgd.StronglyConvexPaper(p.Beta, p.Gamma),
		Passes: 5, Batch: 20, Radius: 100, Rand: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < d.Len(); i++ {
		x, y := d.At(i)
		if math.Copysign(1, vec.Dot(res.W, x)) == y {
			correct++
		}
	}
	acc := float64(correct) / float64(d.Len())
	if acc < 0.8 {
		t.Errorf("sparse training accuracy %v", acc)
	}
	// And the output-perturbation step works on top.
	priv, err := dp.Budget{Epsilon: 1}.Perturb(r, res.W,
		dp.SensitivityStronglyConvex(p.L, p.Gamma, d.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if len(priv) != 100 {
		t.Error("bad private model")
	}
}

// TestLookAheadHint pins which sources offer the epoch loops' look-ahead
// hint (sgd's Touch contract): those whose rows sit in memory do, in
// parent coordinates on a shard view; those that compute a row per
// access do not, on the source or on its shard views.
func TestLookAheadHint(t *testing.T) {
	type toucher interface{ Touch(i int) float64 }
	r := rand.New(rand.NewSource(3))
	dense := Synthetic(r, GenConfig{Name: "t", M: 50, D: 20, Classes: 2, Spread: 0.4})
	sparse := SparseSynthetic(r, 50, 200, 19, 0)

	// The sum of the words Touch reads names the row: one word per
	// 64-byte line and the last one, plus the label.
	x, y := dense.At(17)
	if got, want := dense.Touch(17), y+(x[19]+x[0]+x[8]+x[16]); got != want {
		t.Errorf("dense Touch(17) = %v, want %v", got, want)
	}
	row, y := sparse.Row(17)
	want := row.Val[18] + float64(row.Idx[18])
	for k := 0; k < 19; k += 8 {
		want += row.Val[k] + float64(row.Idx[k])
	}
	if got := sparse.Touch(17); got != y+want {
		t.Errorf("sparse Touch(17) = %v, want %v", got, y+want)
	}

	const lo, hi = 9, 31
	v := sparse.Shard(lo, hi)
	for _, i := range []int{0, hi - lo - 1} {
		if got, want := v.(toucher).Touch(i), sparse.Touch(lo+i); got != want {
			t.Errorf("shard view row %d touched %v, parent row %d is %v", i, got, lo+i, want)
		}
	}
	if sparse.Touch(hi-1) == sparse.Touch(hi) {
		t.Fatal("fixture rows are indistinguishable")
	}

	st := NewStream(1, 100, 8, 0.3, 0)
	for name, s := range map[string]sgd.Samples{"Stream": st, "Stream shard": st.Shard(0, 50)} {
		if _, ok := s.(toucher); ok {
			t.Errorf("%s computes its rows and must not offer the hint", name)
		}
	}
}
