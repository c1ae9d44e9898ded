package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSparseValidation(t *testing.T) {
	if _, err := NewSparse([]int{0, 2, 5}, []float64{1, 2, 3}); err != nil {
		t.Errorf("valid sparse rejected: %v", err)
	}
	cases := []struct {
		name string
		idx  []int
		val  []float64
	}{
		{"length mismatch", []int{0}, []float64{1, 2}},
		{"negative index", []int{-1}, []float64{1}},
		{"not increasing", []int{2, 2}, []float64{1, 1}},
		{"decreasing", []int{3, 1}, []float64{1, 1}},
	}
	for _, c := range cases {
		if _, err := NewSparse(c.idx, c.val); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestDenseToSparseRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(30)
		x := make([]float64, d)
		for i := range x {
			if r.Float64() < 0.3 {
				x[i] = r.NormFloat64()
			}
		}
		s := DenseToSparse(x)
		back := make([]float64, d)
		s.Scatter(back)
		return Equal(x, back, 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSparseDotMatchesDense(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(30)
		x := make([]float64, d)
		w := make([]float64, d)
		for i := range x {
			if r.Float64() < 0.4 {
				x[i] = r.NormFloat64()
			}
			w[i] = r.NormFloat64()
		}
		s := DenseToSparse(x)
		return math.Abs(s.Dot(w)-Dot(x, w)) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSparseNormScaleNNZ(t *testing.T) {
	s := DenseToSparse([]float64{3, 0, 4})
	if s.NNZ() != 2 {
		t.Errorf("NNZ = %d", s.NNZ())
	}
	if math.Abs(s.Norm()-5) > 1e-12 {
		t.Errorf("Norm = %v", s.Norm())
	}
	s.Scale(2)
	if math.Abs(s.Norm()-10) > 1e-12 {
		t.Errorf("scaled Norm = %v", s.Norm())
	}
	if s.MaxIndex() != 2 {
		t.Errorf("MaxIndex = %d", s.MaxIndex())
	}
	if (&Sparse{}).MaxIndex() != -1 {
		t.Error("empty MaxIndex should be -1")
	}
}

func TestSparseAxpyInto(t *testing.T) {
	dst := []float64{1, 1, 1}
	s := DenseToSparse([]float64{0, 2, 0})
	s.AxpyInto(dst, 3)
	if !Equal(dst, []float64{1, 7, 1}, 1e-12) {
		t.Errorf("AxpyInto = %v", dst)
	}
}

func TestSparseAxpyIntoDelta(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(30)
		dst := make([]float64, d)
		x := make([]float64, d)
		for i := range dst {
			dst[i] = r.NormFloat64()
			if r.Float64() < 0.4 {
				x[i] = r.NormFloat64()
			}
		}
		alpha := r.NormFloat64()
		before := Norm(dst)
		s := DenseToSparse(x)
		want := make([]float64, d)
		copy(want, dst)
		Axpy(want, alpha, x)
		delta := s.AxpyIntoDelta(dst, alpha)
		after := Norm(dst)
		if !Equal(dst, want, 1e-12) {
			return false
		}
		return math.Abs((before*before+delta)-after*after) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSparseDotTruncatesBeyondDense(t *testing.T) {
	s, err := NewSparse([]int{0, 10}, []float64{1, 100})
	if err != nil {
		t.Fatal(err)
	}
	// Dense of length 2: index 10 ignored.
	if got := s.Dot([]float64{2, 3}); got != 2 {
		t.Errorf("Dot = %v, want 2", got)
	}
}

func TestSortedCopy(t *testing.T) {
	s, err := SortedCopy([]int{5, 1, 5, 0}, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicates at 5 summed: (0:4, 1:2, 5:4).
	wantIdx := []int{0, 1, 5}
	wantVal := []float64{4, 2, 4}
	if len(s.Idx) != 3 {
		t.Fatalf("Idx = %v", s.Idx)
	}
	for i := range wantIdx {
		if s.Idx[i] != wantIdx[i] || s.Val[i] != wantVal[i] {
			t.Fatalf("SortedCopy = %v/%v, want %v/%v", s.Idx, s.Val, wantIdx, wantVal)
		}
	}
	if _, err := SortedCopy([]int{0}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := SortedCopy([]int{-2}, []float64{1}); err == nil {
		t.Error("negative index accepted")
	}
}
