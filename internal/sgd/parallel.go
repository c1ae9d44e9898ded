package sgd

// Deterministic intra-batch parallelism for both update kernels. The
// two executors below sit inside the dense and the sparse kernel (see
// kernel in sgd.go), under Run's one epoch loop and its look-ahead.
//
// Config.KernelWorkers > 1 fans the embarrassingly parallel part of a
// mini-batch update — the per-example work that reads the pre-update
// iterate — across W goroutines, and keeps everything whose result
// depends on evaluation order on the calling goroutine. The design
// constraint, inherited from the repo's parity discipline, is that the
// parallel kernel must be BIT-IDENTICAL to the sequential one for every
// W, not merely statistically equivalent the way Hogwild-style lock-free
// updates are. That holds by construction:
//
//   - Dense kernel: phase 1 computes the per-example gradients g_j =
//     ∇ℓ(w; z_j) into disjoint row buffers (loss.Grad fully overwrites
//     its dst, so each buffer is a pure function of (w, z_j) regardless
//     of which worker fills it). Phase 2 reduces them column-parallel:
//     each worker owns a contiguous column slab and folds grad[c] =
//     Σ_j g_j[c] over examples in index order j = 0..n-1 — the same
//     fold, in the same order, as the sequential executor's Fold
//     (dst += 1*x is exact in IEEE arithmetic, and loss.Grad writes the
//     c·x + λw the Fold computes from Deriv and Reg). The scale,
//     noise-hook, step, projection and averaging stages then run on one
//     thread, untouched.
//
//   - Sparse kernel: only the Deriv phase of sparseState.batch is
//     fanned out — c_j = Deriv(α·⟨x_j, v⟩, y_j) writes disjoint cbuf
//     slots and only reads α and v, which no worker mutates until the
//     phase completes. The shrink/apply/project sequence that actually
//     moves the scaled-weight state stays sequential, so its
//     evaluation order is exactly the sequential kernel's.
//
// Because parallel ≡ sequential bitwise, the per-batch dispatch
// heuristics below (minimum batch size, dense buffer cap) can never
// change a result — they only decide where the identical arithmetic
// runs. Every parity wall in the repo (sparse-vs-dense, store, dist)
// therefore holds for every W without re-deriving a single bound.
//
// Data access: workers need concurrent row reads. Sources implementing
// the engine's Sharder contract (Shard(lo, hi) Samples) are exactly the
// ones whose At/AtSparse reuse per-receiver scratch, so each worker
// gets its own full-range view via Shard(0, m). Sources without the
// method must tolerate concurrent At/AtSparse calls — the contract
// engine.Sharder has always documented (data.Dataset, SliceSamples and
// the engine's range views all satisfy it).

import (
	"boltondp/internal/loss"
	"boltondp/internal/vec"
)

const (
	// minParBatch is the smallest batch the kernels fan out: below it
	// the channel handshake costs more than the arithmetic it buys.
	// Dispatch is per batch, so a run whose regular batches are smaller
	// but whose remainder-merged final batch is larger parallelizes
	// exactly the batches worth parallelizing.
	minParBatch = 8

	// maxParGradFloats caps the dense kernel's per-example gradient
	// buffer at maxBatch×d float64s (1<<22 ≈ 32 MiB): beyond it the
	// buffers outgrow cache and the run is better off sequential. The
	// cap disables parallelism for the whole run, never mid-run.
	maxParGradFloats = 1 << 22
)

// sharder is engine.Sharder restated locally (the engine imports sgd,
// not the reverse): implemented by sources whose At is not safe for
// concurrent use, returning an independent view with its own scratch.
type sharder interface {
	Shard(lo, hi int) Samples
}

// kernelPool is a persistent fork/join pool of W-1 worker goroutines
// (the caller is worker 0). It is built once per Run and reused for
// every batch, so the steady state allocates nothing: run publishes the
// task through a struct field whose write happens-before the start
// sends, and the done receives happen-after each worker's final write.
type kernelPool struct {
	task  func(k int)     // current phase body; set by run before release
	start []chan struct{} // one buffered slot per spawned worker
	done  chan struct{}
}

// newKernelPool spawns workers-1 goroutines. Callers must close() the
// pool when the run ends or the goroutines leak.
func newKernelPool(workers int) *kernelPool {
	p := &kernelPool{
		start: make([]chan struct{}, workers-1),
		done:  make(chan struct{}, workers-1),
	}
	for k := range p.start {
		ch := make(chan struct{}, 1)
		p.start[k] = ch
		go func(k int, ch chan struct{}) {
			for range ch {
				p.task(k)
				p.done <- struct{}{}
			}
		}(k+1, ch)
	}
	return p
}

// run executes task(k) for k = 0..W-1, worker 0 on the calling
// goroutine, and returns when all have finished.
func (p *kernelPool) run(task func(k int)) {
	p.task = task
	for _, ch := range p.start {
		ch <- struct{}{}
	}
	task(0)
	for range p.start {
		<-p.done
	}
}

// close releases the worker goroutines.
func (p *kernelPool) close() {
	for _, ch := range p.start {
		close(ch)
	}
}

// workerViews builds one row view per worker: views[0] is s itself;
// the rest are independent full-range Shard views when the source
// needs them, or s shared when concurrent access is part of its
// contract (see the package comment above).
func workerViews(s Samples, workers int) []Samples {
	views := make([]Samples, workers)
	views[0] = s
	sh, canShard := s.(sharder)
	m := s.Len()
	for k := 1; k < workers; k++ {
		if canShard {
			views[k] = sh.Shard(0, m)
		} else {
			views[k] = s
		}
	}
	return views
}

// splitRange cuts [0, n) into len(lo) contiguous nearly-equal ranges
// ([lo[k], hi[k])), front-loading the remainder. Empty ranges are fine
// (n < workers). Purely a work-assignment choice: the reduction order
// never depends on it.
func splitRange(lo, hi []int, n int) {
	w := len(lo)
	q, r := n/w, n%w
	pos := 0
	for k := 0; k < w; k++ {
		sz := q
		if k < r {
			sz++
		}
		lo[k], hi[k] = pos, pos+sz
		pos += sz
	}
}

// denseKernel is the dense kernel's parallel batch executor. All state a
// phase needs travels through fields set before pool.run, so the two
// phase closures are created once and the per-batch steady state stays
// at 0 allocs (gated by TestParKernelAllocs).
type denseKernel struct {
	pool  *kernelPool
	f     loss.Function
	w     []float64 // the run's iterate; read-only during both phases
	grad  []float64 // the run's batch-gradient accumulator
	views []Samples
	gbufs [][]float64 // per-example gradient rows, maxBatch×d

	perm         []int
	start, n     int
	rowLo, rowHi []int
	colLo, colHi []int

	gradFn, reduceFn func(k int)
}

// newDenseKernel returns a parallel executor for the run, or nil when
// the configuration is sequential or the buffer cap rules fanning out.
// Callers must close() a non-nil kernel.
func newDenseKernel(s Samples, workers, maxBatch, d int, f loss.Function, w, grad []float64) *denseKernel {
	if workers <= 1 || maxBatch < minParBatch || maxBatch*d > maxParGradFloats {
		return nil
	}
	dk := &denseKernel{
		f: f, w: w, grad: grad,
		views: workerViews(s, workers),
		gbufs: make([][]float64, maxBatch),
		rowLo: make([]int, workers), rowHi: make([]int, workers),
		colLo: make([]int, workers), colHi: make([]int, workers),
	}
	buf := make([]float64, maxBatch*d)
	for j := range dk.gbufs {
		dk.gbufs[j] = buf[j*d : (j+1)*d : (j+1)*d]
	}
	dk.gradFn = dk.gradPhase
	dk.reduceFn = dk.reducePhase
	dk.pool = newKernelPool(workers)
	return dk
}

func (dk *denseKernel) close() { dk.pool.close() }

// batch computes grad = (Σ_j ∇ℓ(w; z_{rows(start..start+n)})) exactly
// as the sequential Fold would, using every worker.
func (dk *denseKernel) batch(perm []int, start, end int) {
	dk.perm, dk.start, dk.n = perm, start, end-start
	splitRange(dk.rowLo, dk.rowHi, dk.n)
	splitRange(dk.colLo, dk.colHi, len(dk.grad))
	dk.pool.run(dk.gradFn)
	dk.pool.run(dk.reduceFn)
}

// gradPhase fills the per-example gradient rows of worker k's row
// range. Grad fully overwrites its dst, so each row is a pure function
// of (w, example) — identical no matter which worker computes it.
func (dk *denseKernel) gradPhase(k int) {
	s := dk.views[k]
	for j := dk.rowLo[k]; j < dk.rowHi[k]; j++ {
		x, y := s.At(row(dk.perm, dk.start+j))
		loss.Grad(dk.f, dk.gbufs[j], dk.w, x, y)
	}
}

// reducePhase folds worker k's column slab over examples in index
// order — the exact order (and therefore the exact rounding) in which
// the sequential Fold adds each row's gradient to grad.
func (dk *denseKernel) reducePhase(k int) {
	lo, hi := dk.colLo[k], dk.colHi[k]
	if lo == hi {
		return
	}
	g := dk.grad[lo:hi]
	vec.Zero(g)
	for j := 0; j < dk.n; j++ {
		vec.Axpy(g, 1, dk.gbufs[j][lo:hi])
	}
}

// sparseKernel fans the sparse kernel's Deriv phase across workers:
// margin dots read the frozen (α, v) pair, and each worker writes
// disjoint cbuf slots, so the phase is race-free and order-blind.
type sparseKernel struct {
	pool  *kernelPool
	st    *sparseState
	views []SparseSamples

	perm     []int
	start, n int
	lo, hi   []int

	derivFn func(k int)
}

// newSparseKernel returns a parallel Deriv-phase executor, or nil when
// the configuration is sequential or safe per-worker views cannot be
// built. Callers must close() a non-nil kernel.
func newSparseKernel(s SparseSamples, workers, maxBatch int, st *sparseState) *sparseKernel {
	if workers <= 1 || maxBatch < minParBatch {
		return nil
	}
	views := make([]SparseSamples, workers)
	for k, v := range workerViews(s, workers) {
		sv, ok := v.(SparseSamples)
		if !ok {
			// A Sharder whose views drop the sparse tier: sharing the
			// receiver would race on its scratch, so stay sequential
			// (bit-identical either way).
			return nil
		}
		views[k] = sv
	}
	sk := &sparseKernel{
		st: st, views: views,
		lo: make([]int, workers), hi: make([]int, workers),
	}
	sk.derivFn = sk.derivPhase
	sk.pool = newKernelPool(workers)
	return sk
}

func (sk *sparseKernel) close() { sk.pool.close() }

// deriv fills st.cbuf[0:n] for the batch rows(start..start+n), exactly
// as the sequential Deriv loop would.
func (sk *sparseKernel) deriv(perm []int, start, n int) {
	sk.perm, sk.start, sk.n = perm, start, n
	splitRange(sk.lo, sk.hi, n)
	sk.pool.run(sk.derivFn)
}

func (sk *sparseKernel) derivPhase(k int) {
	st := sk.st
	s := sk.views[k]
	for j := sk.lo[k]; j < sk.hi[k]; j++ {
		x, y := s.AtSparse(row(sk.perm, sk.start+j))
		st.cbuf[j] = st.f.Deriv(st.alpha*x.Dot(st.v), y)
	}
}
