package sgd

import (
	"fmt"
	"math"

	"boltondp/internal/loss"
	"boltondp/internal/vec"
)

// SparseSamples is the second tier of the engine's data contract: a
// row source that can hand out examples in sparse coordinate form
// without materializing them. Run executes on the sparse-native update
// kernel whenever the source implements this interface and no white-box
// hook needs a dense gradient; otherwise it falls back to the dense
// kernel, so implementing SparseSamples is purely an optimization and
// never a correctness requirement.
//
// The returned vector (like At's dense slice) may be backed by storage
// that is reused or invalidated by the next AtSparse call on the same
// receiver; the engine never retains it across calls. Implementations
// include data.SparseDataset, the store's readers and SparseSliceSamples.
type SparseSamples interface {
	Samples
	// AtSparse returns the i-th example in sparse form. The label
	// follows the same conventions as At.
	AtSparse(i int) (*vec.Sparse, float64)
}

// SparseSliceSamples adapts a slice of sparse rows to SparseSamples —
// the reference implementation of the two-tier contract, and the
// source the sparse kernel's own tests and benchmarks use (the richer
// CSR-backed types live in internal/data, which sits above this
// package).
type SparseSliceSamples struct {
	X []*vec.Sparse
	Y []float64
	// D is the feature dimension (sparse rows cannot infer it).
	D int

	scratch []float64
}

// Len implements Samples.
func (s *SparseSliceSamples) Len() int { return len(s.X) }

// Dim implements Samples.
func (s *SparseSliceSamples) Dim() int { return s.D }

// At implements Samples by scattering row i into a reused scratch
// buffer — the dense fallback tier of the contract.
func (s *SparseSliceSamples) At(i int) ([]float64, float64) {
	if s.scratch == nil {
		s.scratch = make([]float64, s.D)
	}
	s.X[i].Scatter(s.scratch)
	return s.scratch, s.Y[i]
}

// AtSparse implements SparseSamples.
func (s *SparseSliceSamples) AtSparse(i int) (*vec.Sparse, float64) {
	return s.X[i], s.Y[i]
}

// Touch is the look-ahead hint (see toucher).
func (s *SparseSliceSamples) Touch(i int) float64 {
	return s.Y[i] + vec.TouchSparse(s.X[i].Idx, s.X[i].Val)
}

// Shard returns an independent view of rows [lo, hi) with its own
// scratch, satisfying the execution engine's Sharder contract so
// sharded runs over slice-backed sparse data stay race-free.
func (s *SparseSliceSamples) Shard(lo, hi int) Samples {
	if lo < 0 || hi < lo || hi > len(s.X) {
		panic(fmt.Sprintf("sgd: sparse shard [%d,%d) out of bounds for %d rows", lo, hi, len(s.X)))
	}
	return &SparseSliceSamples{X: s.X[lo:hi], Y: s.Y[lo:hi], D: s.D}
}

// sparseCapable reports whether a Run over (s, cfg) takes the sparse
// fast path: the source must expose sparse rows, and the white-box
// GradNoise and GradPerturb hooks — which need a materialized dense
// gradient — must be unset.
func sparseCapable(s Samples, cfg *Config) (SparseSamples, bool) {
	ss, ok := s.(SparseSamples)
	return ss, ok && cfg.GradNoise == nil && cfg.GradPerturb == nil
}

// UsesSparseKernel reports whether Run(s, cfg) would execute on the
// sparse-native kernel. Exported for strategy-blindness tests and for
// experiment reporting; it never changes behavior.
func UsesSparseKernel(s Samples, cfg Config) bool {
	_, ok := sparseCapable(s, &cfg)
	return ok
}

// sparseState is the sparse kernel (see kernel in sgd.go) and its
// scaled-weight model representation. The iterate is stored as w = α·v
// so that the two dense-touching parts of the PSGD update rule become
// O(1):
//
//   - the L2 shrink (1−ηλ)·w multiplies α;
//   - the ball projection Π_C rescales α, using the running ‖v‖²
//     maintained incrementally by the sparse axpys (vec.AxpyIntoDelta),
//     so the norm test never rescans the model.
//
// Only the −η/b·Σ cᵢ·xᵢ data term touches v, and it touches exactly
// the non-zeros of the batch rows. Iterate averaging (Lemma 10) is kept
// lazy the same way: the running iterate sum is represented as
// S = cs·v + s̃, where adding the current iterate is cs += α (O(1)) and
// a sparse change Δ to v is compensated by s̃ −= cs·Δ (O(nnz)).
//
// α drifts toward 0 (λ-shrink) or can overflow v's scale after many
// projections, so the state folds α back into v whenever it leaves
// [foldLo, foldHi] — an O(d) operation triggered O(log) times per run.
// Without averaging the band is huge (1e±100: the w = α·v product is
// cancellation-free at any scale). With averaging it must stay tight
// (1e±4): the iterate sum S = cs·v + s̃ cancels two quantities of
// v's scale ~ ‖w‖/|α|, so letting α decay far below 1 turns the final
// materialization into a catastrophic subtraction. The tight band
// keeps every intermediate within ~1e4 of w's own scale, making the
// lazy sum as accurate as the dense running sum.
type sparseState struct {
	f      loss.Function
	lambda float64
	radius float64

	foldLo, foldHi float64

	alpha  float64
	v      []float64
	vnorm2 float64 // running ‖v‖², refreshed exactly at pass boundaries

	avgOn  bool // iterate-sum maintenance enabled (Average/AverageTail)
	cs     float64
	stilde []float64

	cbuf []float64 // per-batch Deriv scalars, capacity fixed up front

	// par, when non-nil, fans the Deriv phase of large-enough batches
	// across Config.KernelWorkers goroutines (parallel.go); the result
	// is bit-identical to the sequential loop either way.
	par *sparseKernel

	// The run's rows and step, and the buffer w = α·v is materialized
	// into, set when the state serves Run as its kernel (newSparseRun).
	src  SparseSamples
	step Schedule
	w    []float64
}

// newSparseState initializes the representation at w0 (nil = origin).
// maxBatch bounds every batch the run will apply (the remainder-merged
// final batch included) so the steady state never allocates.
func newSparseState(f loss.Function, d, maxBatch int, radius float64, avg bool, w0 []float64) *sparseState {
	st := &sparseState{
		f: f, lambda: f.Reg(), radius: radius,
		foldLo: 1e-100, foldHi: 1e100,
		alpha: 1, v: make([]float64, d),
		avgOn: avg,
		cbuf:  make([]float64, maxBatch),
	}
	if avg {
		st.foldLo, st.foldHi = 1e-4, 1e4
	}
	if w0 != nil {
		copy(st.v, w0)
		st.refreshNorm()
	}
	if avg {
		st.stilde = make([]float64, d)
	}
	return st
}

// newSparseRun builds the sparse kernel of a Run over s (see kernel in
// sgd.go): the scaled-weight state and, when KernelWorkers engages, its
// Deriv executor.
func newSparseRun(s SparseSamples, cfg *Config, maxBatch int) *sparseState {
	st := newSparseState(cfg.Loss, s.Dim(), maxBatch, cfg.Radius, cfg.Average || cfg.AverageTail, cfg.W0)
	st.src, st.step, st.w = s, cfg.Step, make([]float64, len(st.v))
	st.par = newSparseKernel(s, cfg.KernelWorkers, maxBatch, st)
	return st
}

func (st *sparseState) update(perm []int, start, end, t int) {
	st.batch(st.src, perm, start, end, st.step.Eta(t))
}

// addIterate is the lazy iterate sum's O(1) half: S += α·v is cs += α.
func (st *sparseState) addIterate() { st.cs += st.alpha }

// endPass discards the pass's incremental ‖v‖² tracking error.
func (st *sparseState) endPass() { st.refreshNorm() }

// iterate materializes w = α·v.
func (st *sparseState) iterate() []float64 {
	for i, vi := range st.v {
		st.w[i] = st.alpha * vi
	}
	return st.w
}

// iterateSum materializes the lazy iterate sum S = cs·v + s̃ (nil
// without averaging).
func (st *sparseState) iterateSum() []float64 {
	if !st.avgOn {
		return nil
	}
	out := make([]float64, len(st.v))
	for i, vi := range st.v {
		out[i] = st.cs*vi + st.stilde[i]
	}
	return out
}

func (st *sparseState) close() {
	if st.par != nil {
		st.par.close()
	}
}

// refreshNorm recomputes ‖v‖² exactly, discarding accumulated
// incremental-tracking error. Called at pass boundaries and folds.
func (st *sparseState) refreshNorm() {
	n := vec.Norm(st.v)
	st.vnorm2 = n * n
}

// fold rescales v by α and resets α to 1, first flushing the lazy
// iterate-sum so the S = cs·v + s̃ invariant survives the rescale.
func (st *sparseState) fold() {
	if st.avgOn && st.cs != 0 {
		for i, vi := range st.v {
			st.stilde[i] += st.cs * vi
		}
		st.cs = 0
	}
	for i := range st.v {
		st.v[i] *= st.alpha
	}
	st.alpha = 1
	st.refreshNorm()
}

// batch applies one mini-batch update with step size eta over rows
// rows(start..end) (through perm when non-nil), exactly the update rule
// of the dense kernel:
//
//	w ← Π_C( (1−ηλ)·w − (η/n)·Σ Deriv(⟨w,xᵢ⟩, yᵢ)·xᵢ )
//
// with all margins evaluated at the pre-update w, as the batched rule
// requires.
func (st *sparseState) batch(s SparseSamples, perm []int, start, end int, eta float64) {
	n := end - start
	if n == 1 {
		// Single-example fast path: the margin row is still valid at
		// apply time (no intervening AtSparse call), so fetch it once:
		// b = 1 is the paper's default, and a source that locates its
		// rows (a store's chunk lookup) pays that once per update.
		x, y := s.AtSparse(row(perm, start))
		c := st.f.Deriv(st.alpha*x.Dot(st.v), y)
		st.shrink(eta)
		if c != 0 {
			st.apply(x, -eta/st.alpha*c) // same evaluation order as the batched scale
		}
		st.project()
		return
	}
	cb := st.cbuf[:n]
	if st.par != nil && n >= minParBatch {
		st.par.deriv(perm, start, n)
	} else {
		for j := 0; j < n; j++ {
			x, y := s.AtSparse(row(perm, start+j))
			cb[j] = st.f.Deriv(st.alpha*x.Dot(st.v), y)
		}
	}
	st.shrink(eta)
	scale := -eta / (float64(n) * st.alpha)
	for j := 0; j < n; j++ {
		if cb[j] == 0 {
			continue // flat region (e.g. Huber): zero data term
		}
		x, _ := s.AtSparse(row(perm, start+j))
		st.apply(x, scale*cb[j])
	}
	st.project()
}

// shrink applies the batch's λw term — every per-example gradient's
// regularizer, averaged — as one O(1) multiplicative rescale, then
// refolds α if it left the safe band.
func (st *sparseState) shrink(eta float64) {
	if st.lambda != 0 {
		st.alpha *= 1 - eta*st.lambda
	}
	if a := math.Abs(st.alpha); a < st.foldLo || a > st.foldHi {
		st.fold() // also rescues the exact α = 0 of η = 1/λ
	}
}

// apply adds coef·x to v, maintaining the incremental norm and the
// lazy iterate-sum invariant S = cs·v + s̃ under the sparse Δv.
func (st *sparseState) apply(x *vec.Sparse, coef float64) {
	if st.avgOn && st.cs != 0 {
		x.AxpyInto(st.stilde, -st.cs*coef)
	}
	st.vnorm2 += x.AxpyIntoDelta(st.v, coef)
}

// project is the O(1) ball projection: ‖w‖ = |α|·‖v‖ from the tracked
// norm, rescaling α only.
func (st *sparseState) project() {
	if st.radius <= 0 {
		return
	}
	if wn := math.Abs(st.alpha) * math.Sqrt(math.Max(st.vnorm2, 0)); wn > st.radius {
		st.alpha *= st.radius / wn
	}
}

// sparseEmpiricalRisk is EmpiricalRisk over sparse rows: one sparse
// dot per example and the (λ/2)‖w‖² regularizer computed once instead
// of per row.
func sparseEmpiricalRisk(s SparseSamples, f loss.Function, w []float64) float64 {
	m := s.Len() // > 0: EmpiricalRisk returns 0 for an empty source
	var reg float64
	if lambda := f.Reg(); lambda > 0 {
		n := vec.Norm(w)
		reg = 0.5 * lambda * n * n
	}
	var sum float64
	for i := 0; i < m; i++ {
		x, y := s.AtSparse(i)
		sum += f.EvalDot(x.Dot(w), y) + reg
	}
	return sum / float64(m)
}
