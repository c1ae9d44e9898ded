package eval

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"boltondp/internal/data"
	"boltondp/internal/sgd"
)

func TestLinearPredict(t *testing.T) {
	l := &Linear{W: []float64{1, -1}}
	if l.Predict([]float64{1, 0}) != 1 {
		t.Error("positive side misclassified")
	}
	if l.Predict([]float64{0, 1}) != -1 {
		t.Error("negative side misclassified")
	}
	// Tie goes to +1.
	if l.Predict([]float64{1, 1}) != 1 {
		t.Error("tie should predict +1")
	}
}

func TestAccuracyAndErrors(t *testing.T) {
	s := &sgd.SliceSamples{
		X: [][]float64{{1, 0}, {-1, 0}, {0.5, 0}, {-0.5, 0}},
		Y: []float64{1, -1, -1, 1}, // last two are wrong for w = e1
	}
	c := &Linear{W: []float64{1, 0}}
	if e := Errors(s, c); e != 2 {
		t.Errorf("Errors = %d, want 2", e)
	}
	if a := Accuracy(s, c); a != 0.5 {
		t.Errorf("Accuracy = %v, want 0.5", a)
	}
	if a := Accuracy(&sgd.SliceSamples{}, c); a != 0 {
		t.Errorf("Accuracy on empty = %v", a)
	}
}

func TestOneVsAllPredict(t *testing.T) {
	// Three classes, each detected by one coordinate.
	m := &OneVsAll{W: [][]float64{
		{1, 0, 0},
		{0, 1, 0},
		{0, 0, 1},
	}}
	if p := m.Predict([]float64{0.9, 0.1, 0}); p != 0 {
		t.Errorf("Predict = %v, want 0", p)
	}
	if p := m.Predict([]float64{0, 0.2, 0.9}); p != 2 {
		t.Errorf("Predict = %v, want 2", p)
	}
}

func TestBinaryView(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := data.Synthetic(r, data.GenConfig{Name: "t", M: 100, D: 4, Classes: 3, Spread: 0.4})
	v := &binaryView{S: d, Class: 1}
	if v.Len() != 100 || v.Dim() != 4 {
		t.Fatalf("view shape %dx%d", v.Len(), v.Dim())
	}
	plus, minus := 0, 0
	for i := 0; i < v.Len(); i++ {
		_, y := v.At(i)
		switch y {
		case 1:
			plus++
		case -1:
			minus++
		default:
			t.Fatalf("view label %v", y)
		}
	}
	// Relabeled counts must match the underlying class counts.
	want := d.ClassCounts()[1]
	if plus != want {
		t.Errorf("view has %d positives, dataset has %d of class 1", plus, want)
	}
	if plus+minus != 100 {
		t.Error("view lost examples")
	}
}

func TestTrainOneVsAll(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	d := data.Synthetic(r, data.GenConfig{Name: "t", M: 600, D: 6, Classes: 3, Spread: 0.3})
	classSeen := map[int]bool{}
	model, err := TrainOneVsAllCtx(context.Background(), d, 3, func(view sgd.Samples, class int) ([]float64, error) {
		classSeen[class] = true
		// Trivial trainer: mean of positive examples (a crude centroid
		// classifier that is still far better than chance here).
		w := make([]float64, view.Dim())
		n := 0
		for i := 0; i < view.Len(); i++ {
			x, y := view.At(i)
			if y == 1 {
				for j := range w {
					w[j] += x[j]
				}
				n++
			}
		}
		for j := range w {
			w[j] /= float64(n)
		}
		return w, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(classSeen) != 3 {
		t.Errorf("trainer saw classes %v", classSeen)
	}
	if acc := Accuracy(d, model); acc < 0.7 {
		t.Errorf("centroid one-vs-all accuracy %v, want > 0.7", acc)
	}
}

func TestTrainOneVsAllErrors(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d := data.Synthetic(r, data.GenConfig{Name: "t", M: 30, D: 2, Classes: 3, Spread: 0.3})
	if _, err := TrainOneVsAllCtx(context.Background(), d, 1, nil); err == nil {
		t.Error("classes < 2 accepted")
	}
	if _, err := TrainOneVsAllCtx(context.Background(), d, 3, nil); err == nil {
		t.Error("nil trainer accepted")
	}
	boom := errors.New("boom")
	if _, err := TrainOneVsAllCtx(context.Background(), d, 3, func(sgd.Samples, int) ([]float64, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Errorf("trainer error not propagated: %v", err)
	}
	if _, err := TrainOneVsAllCtx(context.Background(), d, 3, func(sgd.Samples, int) ([]float64, error) {
		return []float64{1}, nil // wrong dim
	}); err == nil {
		t.Error("wrong model dim accepted")
	}
}
