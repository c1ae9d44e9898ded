// Package eval provides model evaluation and the one-vs-all multiclass
// construction of §4.3: classifiers, test accuracy/error counting, and
// the even privacy-budget split across the per-class sub-models (simple
// composition, as the paper uses for the 10 MNIST digits).
package eval

import (
	"context"
	"errors"
	"fmt"
	"math"

	"boltondp/internal/engine"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

// Classifier predicts a label for a feature vector. Binary classifiers
// return ±1, multiclass classifiers return the class index as float64,
// matching data.Dataset's label conventions.
type Classifier interface {
	Predict(x []float64) float64
}

// SparseClassifier is the second tier of the scoring contract: a
// classifier that can score a sparse row directly. Both classifiers in
// this package implement it; the scoring helpers (Accuracy, Errors)
// dispatch on it so sparse test sets are scored with one O(nnz) row
// visit — all class margins included — instead of scattering each row
// into a dense buffer first.
type SparseClassifier interface {
	PredictSparse(x *vec.Sparse) float64
}

// Linear is a binary linear classifier: Predict(x) = sign(⟨w, x⟩).
type Linear struct {
	W []float64
}

// Predict implements Classifier. Ties (exactly zero score) go to +1.
func (l *Linear) Predict(x []float64) float64 {
	if vec.Dot(l.W, x) >= 0 {
		return 1
	}
	return -1
}

// PredictSparse implements SparseClassifier with the same tie rule.
func (l *Linear) PredictSparse(x *vec.Sparse) float64 {
	if x.Dot(l.W) >= 0 {
		return 1
	}
	return -1
}

// OneVsAll is a multiclass classifier built from per-class binary
// models: Predict(x) = argmax_c ⟨w_c, x⟩.
type OneVsAll struct {
	W [][]float64 // W[c] is the model for class c
}

// Predict implements Classifier.
func (m *OneVsAll) Predict(x []float64) float64 {
	best, bestScore := 0, math.Inf(-1)
	for c, w := range m.W {
		if s := vec.Dot(w, x); s > bestScore {
			best, bestScore = c, s
		}
	}
	return float64(best)
}

// PredictSparse implements SparseClassifier: every class margin is
// computed from the single sparse row visit, at O(classes·nnz) total —
// the multiclass scoring path never re-densifies a row per class.
func (m *OneVsAll) PredictSparse(x *vec.Sparse) float64 {
	best, bestScore := 0, math.Inf(-1)
	for c, w := range m.W {
		if s := x.Dot(w); s > bestScore {
			best, bestScore = c, s
		}
	}
	return float64(best)
}

// Accuracy returns the fraction of examples in s that c classifies
// correctly.
func Accuracy(s sgd.Samples, c Classifier) float64 {
	m := s.Len()
	if m == 0 {
		return 0
	}
	return 1 - float64(Errors(s, c))/float64(m)
}

// Errors returns the number of misclassified examples — the χ_i
// statistic of the private tuning Algorithm 3, line 4. Sparse sources
// are scored through the sparse tier when the classifier supports it.
func Errors(s sgd.Samples, c Classifier) int {
	wrong := 0
	if ss, sc, ok := sparseScoring(s, c); ok {
		for i := 0; i < ss.Len(); i++ {
			x, y := ss.AtSparse(i)
			if sc.PredictSparse(x) != y {
				wrong++
			}
		}
		return wrong
	}
	for i := 0; i < s.Len(); i++ {
		x, y := s.At(i)
		if c.Predict(x) != y {
			wrong++
		}
	}
	return wrong
}

// sparseScoring reports whether the (source, classifier) pair supports
// the sparse scoring tier.
func sparseScoring(s sgd.Samples, c Classifier) (sgd.SparseSamples, SparseClassifier, bool) {
	ss, ok := s.(sgd.SparseSamples)
	if !ok {
		return nil, nil, false
	}
	sc, ok := c.(SparseClassifier)
	if !ok {
		return nil, nil, false
	}
	return ss, sc, true
}

// binaryView exposes a multiclass sample set as the binary
// one-vs-all problem for a single class: the label is +1 where the
// underlying label equals Class and −1 elsewhere.
//
// Construct views with newBinaryView when the source may be sparse:
// the constructor preserves the source's access tier, so per-class
// training over a sparse multiclass set runs on the sparse kernel
// instead of re-densifying every row once per class.
type binaryView struct {
	S     sgd.Samples
	Class float64
}

// newBinaryView builds the one-vs-all view for a class, keeping the
// source's sparse tier when it has one.
func newBinaryView(s sgd.Samples, class float64) sgd.Samples {
	if ss, ok := s.(sgd.SparseSamples); ok {
		return &sparseBinaryView{binaryView{S: s, Class: class}, ss}
	}
	return &binaryView{S: s, Class: class}
}

// Len implements sgd.Samples.
func (b *binaryView) Len() int { return b.S.Len() }

// Dim implements sgd.Samples.
func (b *binaryView) Dim() int { return b.S.Dim() }

// At implements sgd.Samples.
func (b *binaryView) At(i int) ([]float64, float64) {
	x, y := b.S.At(i)
	if y == b.Class {
		return x, 1
	}
	return x, -1
}

// Shard implements engine.Sharder so the relabeling wrapper does not
// hide an underlying source's concurrency-safe shard views: when the
// wrapped source provides Shard, the view delegates to it; otherwise
// it returns the engine's plain range view, exactly what the engine
// would have built itself.
func (b *binaryView) Shard(lo, hi int) sgd.Samples {
	if sh, ok := b.S.(engine.Sharder); ok {
		return newBinaryView(sh.Shard(lo, hi), b.Class)
	}
	return newBinaryView(engine.RangeView(b.S, lo, hi), b.Class)
}

// sparseBinaryView is the second-tier variant newBinaryView returns
// for sparse sources: a distinct type (not an always-present method)
// so a type assertion on sgd.SparseSamples stays truthful.
type sparseBinaryView struct {
	binaryView
	ss sgd.SparseSamples
}

// AtSparse implements sgd.SparseSamples with the same relabeling as At.
func (b *sparseBinaryView) AtSparse(i int) (*vec.Sparse, float64) {
	x, y := b.ss.AtSparse(i)
	if y == b.Class {
		return x, 1
	}
	return x, -1
}

// BinaryTrainer trains one binary model on the given (already
// relabeled) view. TrainOneVsAllCtx passes the class index so trainers
// can split privacy budgets or log progress.
type BinaryTrainer func(view sgd.Samples, class int) ([]float64, error)

// TrainOneVsAllCtx builds a one-vs-all multiclass model by invoking the
// trainer once per class on the relabeled views. The trainer is
// responsible for using a per-class budget of ε/classes, as §4.3
// prescribes for MNIST — draw the per-class shares from a privacy-
// budget accountant (account.Accountant.Split, enforced) or from
// dp.Budget.Split (caller-trusted). ctx is checked before each
// per-class training run, and a trainer that hands the same ctx to
// core.TrainCtx also stops mid-run, so cancelling a ten-class build
// never waits for the current class to finish its remaining passes.
func TrainOneVsAllCtx(ctx context.Context, s sgd.Samples, classes int, train BinaryTrainer) (*OneVsAll, error) {
	if classes < 2 {
		return nil, fmt.Errorf("eval: need >= 2 classes, got %d", classes)
	}
	if train == nil {
		return nil, errors.New("eval: nil trainer")
	}
	model := &OneVsAll{W: make([][]float64, classes)}
	for c := 0; c < classes; c++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		w, err := train(newBinaryView(s, float64(c)), c)
		if err != nil {
			return nil, fmt.Errorf("eval: class %d: %w", c, err)
		}
		if len(w) != s.Dim() {
			return nil, fmt.Errorf("eval: class %d: model dim %d, want %d", c, len(w), s.Dim())
		}
		model.W[c] = w
	}
	return model, nil
}
