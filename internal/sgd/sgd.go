// Package sgd implements the permutation-based stochastic gradient
// descent (PSGD) engine of §2 of the paper: sample one random
// permutation of the training set (optionally a fresh one per pass),
// cycle through it k times applying the update rule
//
//	w_{t+1} = Π_C( w_t − η_t · (1/b) Σ_{i∈B_t} ∇ℓ_i(w_t) )
//
// with mini-batches B_t of size b and projection onto the radius-R ball
// (equation (7)). The engine is deliberately a black box: the private
// algorithms in internal/core call Run and perturb only the returned
// model, exactly as the paper's bolt-on approach requires.
//
// The one deliberate impurity is Config.GradNoise, a hook invoked on
// every averaged mini-batch gradient before the update is applied. It
// exists solely so the white-box baselines (SCS13, BST14) can be
// expressed against the same engine; it corresponds to the "deep code
// changes" to Bismarck's transition function shown in Figure 1(C) of
// the paper, and internal/core never sets it.
//
// Config.GradPerturb generalizes that hook into a first-class training
// mode: DP-SGD-style gradient perturbation (per-example l2 clipping to
// C plus Gaussian noise on every summed mini-batch gradient), the other
// half of the private-ERM design space next to the paper's output
// perturbation. It rides the same injection point in the update loop as
// GradNoise; the privacy calibration (noise multiplier from a
// subsampled-Gaussian accountant) lives in internal/core, which is the
// only caller that sets it.
package sgd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"boltondp/internal/loss"
	"boltondp/internal/rng"
	"boltondp/internal/vec"
)

// Samples is the minimal read-only view of a training set the engine
// needs — the first tier of the two-tier access contract.
// Implementations include data.Dataset and bismarck.Table. At may
// return an internal buffer that is only valid until the next call;
// the engine never retains the returned slice.
//
// Sources whose rows are naturally sparse should additionally
// implement SparseSamples (the second tier): Run then executes on the
// sparse-native kernel whenever the loss supports it, at O(nnz) per
// example instead of O(d).
type Samples interface {
	// Len returns the number of examples m.
	Len() int
	// Dim returns the feature dimension d.
	Dim() int
	// At returns the i-th example. The label is ±1 for classification
	// losses.
	At(i int) (x []float64, y float64)
}

// SliceSamples adapts parallel slices to the Samples interface.
type SliceSamples struct {
	X [][]float64
	Y []float64
}

// Len implements Samples.
func (s *SliceSamples) Len() int { return len(s.X) }

// Dim implements Samples.
func (s *SliceSamples) Dim() int {
	if len(s.X) == 0 {
		return 0
	}
	return len(s.X[0])
}

// At implements Samples.
func (s *SliceSamples) At(i int) ([]float64, float64) { return s.X[i], s.Y[i] }

// Touch is the look-ahead hint (see toucher).
func (s *SliceSamples) Touch(i int) float64 { return s.Y[i] + vec.Touch(s.X[i]) }

// toucher is the one optional source method behind the epoch loop's
// look-ahead: read one word per cache line of row i's storage and
// return their sum (vec.Touch), moving no cursor. It is a pure hint,
// offered by sources whose rows are addressable in memory and by none
// that compute a row per access (those get no extra call of any kind).
// Under a sampled permutation every row is a chain of dependent cache
// misses the update's arithmetic cannot overlap; Touch issues the next
// rows' loads early and independently instead (DESIGN.md §9).
type toucher interface{ Touch(i int) float64 }

// lookAheadRows is the block the touch cursor moves by. It stays one to
// two blocks ahead of the batch being computed: a block's rows are
// touched back to back so their misses overlap each other too (one row
// per update, at b = 1, would leave each touch's own miss chain at the
// head of the reorder window), and two blocks are still cached when the
// kernel arrives.
const lookAheadRows = 32

// lookAhead is one run's touch cursor. Run's epoch loop moves it before
// every batch, above both kernels and their choice of batch executor.
// Without a hint, and on NoPerm and Poisson runs (perm == nil), it does
// nothing.
type lookAhead struct {
	src  toucher
	next int     // first permutation slot not yet touched this pass
	sink float64 // keeps the loads; per run, so shards do not share it
}

// advance is called with the perm slot the next batch ends at.
func (l *lookAhead) advance(perm []int, end int) {
	if l.src == nil || l.next >= end+lookAheadRows || perm == nil {
		return
	}
	stop := min(end+2*lookAheadRows, len(perm))
	var sum float64 // a register: a sum kept in memory would chain the touches
	for _, i := range perm[l.next:stop] {
		sum += l.src.Touch(i)
	}
	l.next, l.sink = stop, l.sink+sum
}

// row is the source row of permutation slot i: perm[i], or i itself on
// an in-order run (perm == nil).
func row(perm []int, i int) int {
	if perm != nil {
		return perm[i]
	}
	return i
}

// Config describes one PSGD run.
type Config struct {
	Loss   loss.Function
	Step   Schedule
	Passes int // k ≥ 1
	Batch  int // b ≥ 1; 0 means 1

	// Radius is the projection radius R of the constrained update rule
	// (7). Non-positive means unconstrained.
	Radius float64

	// Average, when set, additionally computes the uniform average of
	// all iterates w_1..w_T (the paper's model-averaging extension,
	// Lemma 10, and the form its convergence results are stated for).
	Average bool

	// AverageTail, when set, instead averages only the last ⌈ln T⌉
	// iterates — the second averaging scheme Lemma 10 mentions ("the
	// average of the last log T iterates"). Sensitivity is unchanged:
	// the δ_t's are non-decreasing, so any convex combination of
	// iterates is bounded by δ_T. Incompatible with Average.
	AverageTail bool

	// FreshPerm resamples the permutation at the start of every pass
	// (§3.2.3 "Fresh Permutation at Each Pass"). The sensitivity
	// analysis is unchanged.
	FreshPerm bool

	// Perm, when non-nil, fixes the first pass's permutation instead of
	// sampling one. It must be a permutation of [0, m). Used by the
	// sensitivity tests, which must run the same randomness r on
	// neighboring datasets (Lemma 5's "randomness one at a time").
	Perm []int

	// NoPerm processes rows in their natural order 0..m-1 instead of a
	// sampled permutation — the streaming mode of the execution engine
	// (internal/engine). No permutation array is materialized, so a
	// single pass over a lazily generated source (data.Stream) runs in
	// O(d) memory, and Rand becomes optional. The sensitivity bounds
	// hold for any fixed ordering (they are worst-case over the
	// differing index's position); only the convergence analysis relies
	// on the ordering being random, which streaming sources provide by
	// construction. Incompatible with Perm and FreshPerm.
	NoPerm bool

	// KernelWorkers is the intra-batch parallelism degree W of a single
	// run (0 or 1 = sequential, the default). W > 1 fans the
	// per-example phase of every large-enough mini-batch — dense
	// gradients, sparse margin derivatives — across W goroutines and
	// reduces in example-index order, so the result is BIT-IDENTICAL to
	// the sequential Fold executor for every W (see parallel.go for the
	// determinism argument). It composes with the engine's Sharded
	// strategy (P shards × W workers) and sits inside either kernel,
	// below Run's one epoch loop and its look-ahead. It is a pinned
	// mechanism, not a measured speed-up: on the two-core benchmark box
	// W=2 runs SLOWER than W=1 (sgd.*_kw2_over_kw1: dense 1.68–1.83
	// since the sequential executor takes four rows at a time, sparse
	// 1.38–1.64); W=4 is unmeasured there.
	KernelWorkers int

	// T0 offsets the 1-based update counter: the first update of this
	// run is numbered T0+1, so Step.Eta and GradNoise see the global
	// counter. The sharded engine uses it to continue a step-size
	// schedule seamlessly across per-epoch Run calls.
	T0 int

	// Rand is the randomness source for permutations. Required unless
	// Perm is given (and FreshPerm is off) or NoPerm is set.
	Rand *rand.Rand

	// GradNoise, if non-nil, is called with the 1-based update counter
	// and the averaged mini-batch gradient, which it may modify in
	// place (white-box hook for SCS13/BST14 — see the package comment).
	GradNoise func(t int, grad []float64)

	// GradPerturb, if non-nil, runs the engine in gradient-perturbation
	// mode: every per-example gradient is l2-clipped to Clip before
	// accumulation, and Gaussian noise of per-coordinate stddev Sigma is
	// added to the summed (pre-averaging) batch gradient at the same
	// injection point as GradNoise. Incompatible with GradNoise (one
	// noise authority per run) and with the sparse and parallel kernels
	// (clipping needs each example's dense gradient, materialized
	// sequentially) — Run silently falls back to the dense kernel's
	// sequential Fold executor.
	GradPerturb *GradPerturb

	// W0 is the starting point; nil means the origin.
	W0 []float64

	// Ctx, when non-nil, makes the run cancellable: it is checked once
	// per mini-batch update (an allocation-free Err poll — one
	// predictable branch plus an atomic load on the standard context
	// types) and Run returns ctx.Err() as soon as cancellation or
	// deadline expiry is observed. A nil Ctx costs exactly one
	// always-false branch per update; both kernels' steady state stays
	// at 0 allocs/op either way (gated by TestSparseCtxCheckAllocs, and
	// TestCtxPolledOncePerUpdate pins the one poll per update).
	Ctx context.Context

	// Progress, when non-nil, is called after every completed pass with
	// the 1-based pass number and the empirical risk of the current
	// iterate. The risk evaluation costs one extra pass over the data.
	Progress func(pass int, risk float64)
}

// GradPerturb configures gradient-perturbation mode (see
// Config.GradPerturb). The noise scale is stated in ABSOLUTE units on
// the summed batch gradient: a batch's update direction is
// (Σᵢ clip_C(∇ℓᵢ) + N(0, Sigma²·I)) / |batch|, the DP-SGD update. The
// caller calibrates Sigma = sensitivity × noise-multiplier (for
// replace-one adjacency the clipped sum's l2 sensitivity is 2·Clip) —
// internal/core does this through the subsampled-Gaussian accountant.
type GradPerturb struct {
	// Clip is the per-example gradient l2 clipping norm C > 0.
	Clip float64
	// Sigma is the per-coordinate Gaussian noise stddev added to each
	// summed batch gradient. Zero means clipping only (used by parity
	// tests); negative is invalid.
	Sigma float64
	// Rand is the noise source; required when Sigma > 0. It must be
	// distinct from Config.Rand only if the caller needs permutation
	// draws to be reproducible independently of the noise draws.
	Rand *rand.Rand
	// Poisson replaces the engine's permutation batching with per-step
	// Poisson subsampling: every update draws an independent batch that
	// includes each example with probability q = Batch/m (expected batch
	// size Batch), and the update divides by the EXPECTED lot size q·m
	// rather than the realized batch size, so an empty draw applies a
	// pure-noise update. This is the sampling scheme the
	// subsampled-Gaussian accounting assumes (Abadi et al.'s DP-SGD;
	// Opacus' Poisson mode) — deterministic permutation batches visit
	// every example exactly once per pass and admit NO privacy
	// amplification by subsampling. Config.Rand supplies the inclusion
	// coins; Perm, NoPerm and FreshPerm are incompatible.
	Poisson bool
}

func (c *Config) validate(m int) error {
	if c.Loss == nil {
		return errors.New("sgd: Config.Loss is required")
	}
	if c.Step == nil {
		return errors.New("sgd: Config.Step is required")
	}
	if c.Passes < 1 {
		return fmt.Errorf("sgd: Passes must be >= 1, got %d", c.Passes)
	}
	if c.Batch < 0 {
		return fmt.Errorf("sgd: Batch must be >= 0, got %d", c.Batch)
	}
	if m == 0 {
		return errors.New("sgd: empty training set")
	}
	if c.Perm != nil && len(c.Perm) != m {
		return fmt.Errorf("sgd: Perm has length %d, want %d", len(c.Perm), m)
	}
	if c.NoPerm && (c.Perm != nil || c.FreshPerm) {
		return errors.New("sgd: NoPerm is incompatible with Perm and FreshPerm")
	}
	if c.T0 < 0 {
		return fmt.Errorf("sgd: T0 must be >= 0, got %d", c.T0)
	}
	if c.KernelWorkers < 0 {
		return fmt.Errorf("sgd: KernelWorkers must be >= 0, got %d", c.KernelWorkers)
	}
	if c.Rand == nil && !c.NoPerm && (c.Perm == nil || c.FreshPerm) {
		return errors.New("sgd: Rand is required when permutations must be sampled")
	}
	if c.AverageTail && c.Average {
		return errors.New("sgd: Average and AverageTail are mutually exclusive")
	}
	if gp := c.GradPerturb; gp != nil {
		if c.GradNoise != nil {
			return errors.New("sgd: GradPerturb and GradNoise are mutually exclusive (one noise authority per run)")
		}
		if gp.Clip <= 0 {
			return fmt.Errorf("sgd: GradPerturb.Clip must be > 0, got %v", gp.Clip)
		}
		if gp.Sigma < 0 {
			return fmt.Errorf("sgd: GradPerturb.Sigma must be >= 0, got %v", gp.Sigma)
		}
		if gp.Sigma > 0 && gp.Rand == nil {
			return errors.New("sgd: GradPerturb.Rand is required when Sigma > 0")
		}
		if c.Progress != nil {
			// The per-pass empirical risk is an exact, data-dependent
			// value outside the accounted budget — in
			// gradient-perturbation runs the only releasable values are
			// the noisy iterates themselves.
			return errors.New("sgd: GradPerturb is incompatible with Progress (the per-pass risk is an exact, unaccounted data-dependent release)")
		}
		if gp.Poisson && (c.Perm != nil || c.NoPerm || c.FreshPerm) {
			return errors.New("sgd: GradPerturb.Poisson draws an independent batch every step; Perm, NoPerm and FreshPerm do not apply")
		}
	}
	return nil
}

// Result is the outcome of a PSGD run.
type Result struct {
	// W is the final iterate w_T.
	W []float64
	// WAvg is the uniform iterate average (nil unless Config.Average).
	WAvg []float64
	// Updates is the number of gradient updates performed (batches).
	Updates int
	// Passes is the number of passes executed.
	Passes int
}

// Model returns the model the run recommends: the iterate average when
// averaging was enabled, the last iterate otherwise.
func (r *Result) Model() []float64 {
	if r.WAvg != nil {
		return r.WAvg
	}
	return r.W
}

// Run executes permutation-based SGD over s and returns the resulting
// model(s). It is deterministic given Config.Rand's state.
//
// Run is representation-blind: when the source implements
// SparseSamples and neither GradNoise nor GradPerturb is set, the run
// executes on the sparse-native kernel (sparse.go), whose per-example
// cost is O(nnz) instead of O(d). The two kernels apply the same update
// rule batch for batch and agree to floating-point rounding; randomness
// consumption (permutations) is identical, so a caller drawing noise
// from the same Rand afterwards sees identical draws either way.
func Run(s Samples, cfg Config) (*Result, error) {
	m := s.Len()
	if err := cfg.validate(m); err != nil {
		return nil, err
	}
	d := s.Dim()
	if cfg.W0 != nil && len(cfg.W0) != d {
		return nil, fmt.Errorf("sgd: W0 has dim %d, want %d", len(cfg.W0), d)
	}
	b := cfg.Batch
	if b == 0 {
		b = 1
	}
	if b > m {
		b = m
	}
	// Batches per pass: when b does not divide m, the remainder is
	// merged into the final batch (size in [b, 2b)) rather than
	// processed as a short batch. A short trailing batch of size
	// s = m mod b would contribute 2ηL/s > 2ηL/b to the sensitivity
	// and silently break every /b bound — the paper's §3.2.3 analysis
	// assumes b divides m ("for simplicity let us assume that b
	// divides m"); merging preserves that assumption's guarantee for
	// arbitrary m. (1 ≤ b ≤ m, so a pass has at least one update.)
	updatesPerPass := m / b
	// The final batch of a pass absorbs the remainder (see above), so
	// batches reach size < 2b; maxBatch bounds every per-batch buffer a
	// kernel preallocates.
	maxBatch := m - (updatesPerPass-1)*b

	perm := cfg.Perm
	if perm == nil && !cfg.NoPerm && (cfg.GradPerturb == nil || !cfg.GradPerturb.Poisson) {
		perm = cfg.Rand.Perm(m)
	}
	var k kernel
	if ss, ok := sparseCapable(s, &cfg); ok {
		k = newSparseRun(ss, &cfg, maxBatch)
	} else {
		k = newDenseState(s, &cfg, b, maxBatch)
	}
	defer k.close()
	// The iterates numbered avgFrom and up join the average: all of them
	// under Average; under AverageTail the last ⌈ln T⌉ of the T planned
	// updates (counted globally when a T0 offset is in play).
	avgFrom := math.MaxInt
	if cfg.Average {
		avgFrom = 0
	} else if cfg.AverageTail {
		total := cfg.T0 + cfg.Passes*updatesPerPass
		n := int(math.Ceil(math.Log(float64(total))))
		if n < 1 {
			n = 1
		}
		avgFrom = total - n + 1
	}

	var la lookAhead
	la.src, _ = s.(toucher)
	t := cfg.T0
	for pass := 0; pass < cfg.Passes; pass++ {
		if cfg.FreshPerm && pass > 0 {
			perm = cfg.Rand.Perm(m)
		}
		la.next = 0
		for u := 0; u < updatesPerPass; u++ {
			if cfg.Ctx != nil {
				if err := cfg.Ctx.Err(); err != nil {
					return nil, err
				}
			}
			start := u * b
			end := start + b
			if u == updatesPerPass-1 {
				end = m // merge the remainder into the final batch
			}
			t++
			la.advance(perm, end)
			k.update(perm, start, end, t)
			if t >= avgFrom {
				k.addIterate()
			}
		}
		k.endPass()
		if cfg.Progress != nil {
			cfg.Progress(pass+1, EmpiricalRisk(s, cfg.Loss, k.iterate()))
		}
	}

	w, wsum := k.iterate(), k.iterateSum()
	if wsum != nil {
		// Every update after T0 and from avgFrom on was added.
		vec.Scale(wsum, 1/float64(t-max(cfg.T0, avgFrom-1)))
	}
	return &Result{W: w, WAvg: wsum, Updates: t - cfg.T0, Passes: cfg.Passes}, nil
}

// kernel is one run's update rule over its own model representation:
// denseState (below) or sparseState (sparse.go). Run owns everything
// the two share — the batch clamp and remainder merge, permutations,
// the look-ahead, the ctx poll, the update counter, the averaging
// window, Progress and the averaging divide — and calls a kernel
// once per batch or pass, never per row; inside update, a kernel's row
// loop keeps its state in locals (DESIGN.md §2). The dense kernel's row
// loop feeds a Fold, which takes four rows at a time; the parallel batch
// executors of parallel.go (denseKernel, sparseKernel) sit inside, next
// to each kernel's sequential one.
type kernel interface {
	// update applies update t to the batch rows(start..end), through
	// perm when it is non-nil (a Poisson kernel draws its own batch).
	update(perm []int, start, end, t int)
	addIterate() // adds the current iterate to the iterate sum
	endPass()    // after each pass's last update
	// iterate and iterateSum materialize the current iterate and the
	// iterate sum (nil unless Average or AverageTail).
	iterate() []float64
	iterateSum() []float64
	close() // releases the parallel executor, if any
}

// denseState is the dense kernel: the iterate as a plain d-vector, and
// a sequential executor that sums a batch's gradients through a Fold.
// It alone serves clipping, GradPerturb noise, Poisson sampling and the
// GradNoise hook, which need each example's or each batch's gradient
// materialized.
type denseState struct {
	s   Samples
	cfg Config
	b   int // the clamped batch size: a Poisson draw's expected lot

	w, grad []float64
	fold    Fold      // the batch's row-gradient sum; clips under GradPerturb
	wsum    []float64 // nil unless averaging
	noise   []float64 // nil unless GradPerturb.Sigma > 0
	drawn   []int     // a Poisson draw's rows, capacity m; nil unless Poisson

	par *denseKernel // nil unless KernelWorkers engages (parallel.go)
}

func newDenseState(s Samples, cfg *Config, b, maxBatch int) *denseState {
	d := s.Dim()
	scratch := make([]float64, (1+blockRows)*d) // grad and the fold's block share one allocation, so k costs none in sgd.epoch_allocs
	k := &denseState{
		s: s, cfg: *cfg, b: b,
		w: make([]float64, d), grad: scratch[:d:d],
		fold: Fold{f: cfg.Loss},
	}
	k.fold.carve(scratch[d:], d)
	copy(k.w, cfg.W0) // W0 == nil starts at the origin
	if cfg.Average || cfg.AverageTail {
		k.wsum = make([]float64, d)
	}
	gp := cfg.GradPerturb
	if gp != nil && gp.Sigma > 0 {
		k.noise = make([]float64, d)
	}
	if gp != nil {
		k.fold.clip = gp.Clip
	}
	if gp != nil && gp.Poisson {
		k.drawn = make([]int, 0, s.Len())
	}
	// Clipping needs every example's gradient materialized in order, so
	// gradient-perturbation runs stay on the sequential executor.
	if gp == nil {
		k.par = newDenseKernel(s, cfg.KernelWorkers, maxBatch, d, cfg.Loss, k.w, k.grad)
	}
	return k
}

func (k *denseState) update(perm []int, start, end, t int) {
	grad, gp := k.grad, k.cfg.GradPerturb
	lot := float64(end - start)
	if gp != nil && gp.Poisson {
		// One independent Poisson draw per update: each example joins
		// with probability q = b/m, and the update divides by the
		// EXPECTED lot size b (a constant), so an empty draw is a
		// pure-noise update — exactly the mechanism the
		// subsampled-Gaussian accounting prices. The drawn rows then
		// take the permutation's place, in index order.
		drawn, r := k.drawn[:0], k.cfg.Rand
		m := cap(drawn)
		q := float64(k.b) / float64(m)
		for i := 0; i < m; i++ {
			if r.Float64() < q {
				drawn = append(drawn, i)
			}
		}
		perm, start, end, lot = drawn, 0, len(drawn), float64(k.b)
	}
	if k.par != nil && end-start >= minParBatch {
		// Bit-identical to the sequential fold below — see
		// parallel.go — so per-batch dispatch never changes a result.
		k.par.batch(perm, start, end)
	} else {
		vec.Zero(grad)
		for i := start; i < end; i++ {
			x, y := k.s.At(row(perm, i))
			k.fold.Add(grad, k.w, x, y)
		}
		k.fold.Flush(grad, k.w)
	}
	if k.noise != nil {
		// Noise on the SUM, then average with it — the DP-SGD update;
		// shares GradNoise's injection point.
		rng.GaussianVec(gp.Rand, k.noise, gp.Sigma)
		vec.Axpy(grad, 1, k.noise)
	}
	vec.Scale(grad, 1/lot)
	if k.cfg.GradNoise != nil {
		k.cfg.GradNoise(t, grad)
	}
	vec.Axpy(k.w, -k.cfg.Step.Eta(t), grad)
	vec.ProjectBall(k.w, k.cfg.Radius)
}

func (k *denseState) addIterate()           { vec.Axpy(k.wsum, 1, k.w) }
func (k *denseState) endPass()              {}
func (k *denseState) iterate() []float64    { return k.w }
func (k *denseState) iterateSum() []float64 { return k.wsum }

func (k *denseState) close() {
	if k.par != nil {
		k.par.close()
	}
}

// EmpiricalRisk returns L_S(w) = (1/m) Σ ℓ(w; z_i), the quantity whose
// excess the paper's convergence theorems bound. Like Run it is
// representation-blind: sparse sources are scored via sparse dot
// products, without densifying any row.
func EmpiricalRisk(s Samples, f loss.Function, w []float64) float64 {
	m := s.Len()
	if m == 0 {
		return 0
	}
	if ss, ok := s.(SparseSamples); ok {
		return sparseEmpiricalRisk(ss, f, w)
	}
	var sum float64
	for i := 0; i < m; i++ {
		x, y := s.At(i)
		sum += loss.Eval(f, w, x, y)
	}
	return sum / float64(m)
}
