package sgd

import (
	"math/rand"
	"reflect"
	"testing"

	"boltondp/internal/loss"
	"boltondp/internal/vec"
)

// touchLog records the rows the look-ahead touches, in order.
type touchLog struct {
	*SliceSamples
	rows []int
}

func (l *touchLog) Touch(i int) float64 { l.rows = append(l.rows, i); return 1 }

type sparseTouchLog struct {
	*SparseSliceSamples
	rows []int
}

func (l *sparseTouchLog) Touch(i int) float64 { l.rows = append(l.rows, i); return 1 }

// TestLookAheadFollowsThePermutation: under a sampled permutation Run's
// epoch loop touches every row exactly once per pass, over either
// kernel, in the order the kernel will visit them (so FreshPerm is
// followed pass by pass), for every batch size and with or without a
// batch executor; in-order and Poisson runs never call the hint.
func TestLookAheadFollowsThePermutation(t *testing.T) {
	const m, k = 157, 3
	sp, de := randomSparseSamples(rand.New(rand.NewSource(4)), m, 20, 4)
	f := loss.NewLogistic(1e-2, 0)
	for _, b := range []int{1, 10, 50, m} {
		for _, fresh := range []bool{false, true} {
			for _, kw := range []int{0, 2} {
				mk := func() Config {
					return Config{
						Loss: f, Step: InvSqrtT(1), Passes: k, Batch: b, FreshPerm: fresh,
						KernelWorkers: kw, Rand: rand.New(rand.NewSource(5)),
					}
				}
				// The permutations the run will draw, in order.
				r := rand.New(rand.NewSource(5))
				var want []int
				perm := r.Perm(m)
				for pass := 0; pass < k; pass++ {
					if fresh && pass > 0 {
						perm = r.Perm(m)
					}
					want = append(want, perm...)
				}
				dl := &touchLog{SliceSamples: de}
				if _, err := Run(dl, mk()); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(dl.rows, want) {
					t.Errorf("dense b=%d fresh=%v W=%d: touched %d rows, not the %d of the permutation in order", b, fresh, kw, len(dl.rows), len(want))
				}
				sl := &sparseTouchLog{SparseSliceSamples: sp}
				if !UsesSparseKernel(sl, mk()) {
					t.Fatal("sparse source fell off the sparse kernel")
				}
				if _, err := Run(sl, mk()); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sl.rows, want) {
					t.Errorf("sparse b=%d fresh=%v W=%d: touched %d rows, not the %d of the permutation in order", b, fresh, kw, len(sl.rows), len(want))
				}
			}
		}
	}

	dl, sl := &touchLog{SliceSamples: de}, &sparseTouchLog{SparseSliceSamples: sp}
	for _, s := range []Samples{dl, sl} {
		if _, err := Run(s, Config{Loss: f, Step: InvSqrtT(1), Passes: 1, Batch: 10, NoPerm: true}); err != nil {
			t.Fatal(err)
		}
	}
	gp := Config{
		Loss: f, Step: InvSqrtT(1), Passes: 1, Batch: 10, Rand: rand.New(rand.NewSource(1)),
		GradPerturb: &GradPerturb{Clip: 1, Poisson: true},
	}
	if _, err := Run(dl, gp); err != nil {
		t.Fatal(err)
	}
	if len(dl.rows)+len(sl.rows) != 0 {
		t.Errorf("in-order and Poisson runs touched %d + %d rows, want none", len(dl.rows), len(sl.rows))
	}
	// Clip-only gradient perturbation walks the permutation like any run.
	gp.GradPerturb = &GradPerturb{Clip: 1}
	if _, err := Run(dl, gp); err != nil {
		t.Fatal(err)
	}
	if len(dl.rows) != m {
		t.Errorf("clip-only GradPerturb touched %d rows, want %d", len(dl.rows), m)
	}
}

// TestSliceSamplesTouch: the reference sources' hint reads the row it
// is asked for (the sum of the words read names it).
func TestSliceSamplesTouch(t *testing.T) {
	de := &SliceSamples{X: [][]float64{{1, 2}, {3, 4, 5, 6, 7, 8, 9, 10, 11}}, Y: []float64{-1, 1}}
	if got := de.Touch(1); got != 1+11+3+11 {
		t.Errorf("dense Touch(1) = %v, want %v", got, 1+11+3+11)
	}
	sp := &SparseSliceSamples{X: []*vec.Sparse{{Idx: []int{2}, Val: []float64{0.5}}, {}}, Y: []float64{1, -1}, D: 4}
	if got := sp.Touch(0); got != 1+2*(0.5+2) {
		t.Errorf("sparse Touch(0) = %v, want %v", got, 1+2*(0.5+2))
	}
	if got := sp.Touch(1); got != -1 {
		t.Errorf("sparse Touch(empty row) = %v, want the label alone", got)
	}
}
