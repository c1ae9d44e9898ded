package bismarck

import (
	"fmt"

	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

// aggregate is the user-defined-aggregate contract of §4.2: "The
// developer has to provide implementations of three functions in the
// UDA's C API: initialize, transition, and terminate, all of which
// operate on the aggregation state."
//
// Initialize receives the previous epoch's output (nil on the first
// epoch); Transition consumes one tuple; Terminate returns the epoch's
// aggregate.
type aggregate interface {
	Initialize(prev any)
	Transition(x []float64, y float64)
	Terminate() any
}

// avgAgg computes the mean label — the paper's expository AVG example
// ("the state for AVG is the 2-tuple (sum, count)").
type avgAgg struct {
	sum   float64
	count int
}

// Initialize implements aggregate: (sum, count) = (0, 0).
func (a *avgAgg) Initialize(prev any) { a.sum, a.count = 0, 0 }

// Transition implements aggregate: (sum, count) += (y, 1).
func (a *avgAgg) Transition(x []float64, y float64) { a.sum += y; a.count++ }

// Terminate implements aggregate: sum/count.
func (a *avgAgg) Terminate() any {
	if a.count == 0 {
		return 0.0
	}
	return a.sum / float64(a.count)
}

// sgdAgg is the mini-batch SGD aggregate of Figure 1: the aggregation
// state is the model w plus the accumulated gradient of the current
// mini-batch and the counters tracking batches seen so far. One
// aggregate invocation over the (shuffled) table is one epoch. The
// batch gradient is summed by the engine's row fold (sgd.Fold), so the
// transition function is the engine's arithmetic row for row.
//
// noiseInject is integration point (C): when non-nil it is called on
// every completed mini-batch gradient before the update — the deep
// transition-function change SCS13 and BST14 require. The bolt-on
// algorithms leave it nil and perturb only the driver's final output
// (integration point (B)).
type sgdAgg struct {
	step   sgd.Schedule
	batch  int
	radius float64
	// noiseInject, if set, may modify the averaged batch gradient in
	// place. t is the global 1-based update counter (across epochs).
	noiseInject func(t int, grad []float64)

	fold  *sgd.Fold
	w     []float64
	t     int // global update counter, persists across epochs
	acc   []float64
	inAcc int
	total int // rows per epoch (0 = unknown); see SetEpochRows
	seen  int // rows consumed this epoch
}

// SetEpochRows tells the aggregate how many rows one epoch scans. With
// it, a trailing remainder (rows mod batch) is merged into the final
// mini-batch instead of forming a short one — the same soundness fix
// as the sgd engine's (a short batch of size s would have sensitivity
// 2ηL/s > 2ηL/b). TrainUDA sets this from the table's row count;
// without it (0) the aggregate falls back to flushing the short batch.
func (a *sgdAgg) SetEpochRows(m int) { a.total = m }

// newSGDAgg constructs the aggregate for models of dimension d.
func newSGDAgg(d int, f loss.Function, step sgd.Schedule, batch int, radius float64) *sgdAgg {
	if d < 1 {
		panic(fmt.Sprintf("bismarck: dimension %d", d))
	}
	if batch < 1 {
		batch = 1
	}
	return &sgdAgg{
		step: step, batch: batch, radius: radius,
		fold: sgd.NewFold(f, d), w: make([]float64, d), acc: make([]float64, d),
	}
}

// Initialize implements aggregate: "for SGD, it sets w to the value
// given by the Python controller (the previous epoch's output model)".
func (a *sgdAgg) Initialize(prev any) {
	if prev != nil {
		copy(a.w, prev.([]float64))
	}
	vec.Zero(a.acc)
	a.inAcc = 0
	a.seen = 0
}

// Transition implements aggregate: add the tuple's gradient to the
// batch; when the mini-batch is full, apply the (possibly
// noise-injected) update. If the epoch's row count is known and fewer
// than batch rows remain, they are merged into the current batch
// (applied at Terminate).
func (a *sgdAgg) Transition(x []float64, y float64) {
	a.fold.Add(a.acc, a.w, x, y)
	a.inAcc++
	a.seen++
	if a.inAcc >= a.batch {
		if a.total > 0 && a.total-a.seen < a.batch && a.total-a.seen > 0 {
			return // hold: merge the remainder into this batch
		}
		a.applyBatch()
	}
}

// Terminate implements aggregate: flush a trailing partial batch and
// return the epoch's model (a copy, so the driver owns it).
func (a *sgdAgg) Terminate() any {
	if a.inAcc > 0 {
		a.applyBatch()
	}
	return vec.Copy(a.w)
}

// Updates returns the global update counter (for tests and reporting).
func (a *sgdAgg) Updates() int { return a.t }

// applyBatch flushes the fold before w moves (see sgd.Fold), then
// applies the batch's update.
func (a *sgdAgg) applyBatch() {
	a.fold.Flush(a.acc, a.w)
	vec.Scale(a.acc, 1/float64(a.inAcc))
	a.t++
	if a.noiseInject != nil {
		a.noiseInject(a.t, a.acc)
	}
	vec.Axpy(a.w, -a.step.Eta(a.t), a.acc)
	vec.ProjectBall(a.w, a.radius)
	vec.Zero(a.acc)
	a.inAcc = 0
}
