// Package engine is the pluggable execution layer for permutation-based
// SGD. Every trainer in the repository — the private bolt-on algorithms
// in internal/core, the noiseless and white-box baselines, and the
// Bismarck-style in-RDBMS substrate — funnels its runs through Run,
// which executes them under one of three strategies behind a single
// interface:
//
//   - Sequential: one goroutine, one permutation — exactly sgd.Run.
//     This is the execution model the paper's Algorithms 1–2 are stated
//     for and the reference semantics the other strategies are defined
//     (and tested) against.
//
//   - Sharded: the paper's parallel bolt-on scheme (the multicore
//     deployment of §4.2 and the MapReduce extension of footnote 2).
//     The row range is cut into Workers disjoint contiguous shards; in
//     every epoch each worker advances permutation SGD one pass over
//     its own shard starting from the shared model, and the per-shard
//     models are merged by uniform averaging — the PostgreSQL
//     combine-function contract. Output perturbation composes cleanly:
//     a differing example lives in exactly one shard, so per epoch the
//     averaged model moves by at most 1/P of the single-shard
//     perturbation, and the telescoping of Lemmas 7–8 carries through
//     unchanged (see dp.SensitivityShardedStronglyConvex and friends
//     for the resulting bounds, and the empirical verification in
//     internal/dp's tests).
//
//   - Streaming: a single pass in natural row order — the online
//     scenario. No permutation array is materialized, so lazily
//     generated sources (data.Stream) train in O(d) memory at any m.
//     Sensitivity bounds hold for any fixed ordering; convergence
//     relies on the source being i.i.d.-ordered, which streams are by
//     construction.
//
// The engine sits strictly below the privacy layer: it adds no noise
// and computes no sensitivities. internal/core calibrates the noise to
// the strategy it selects; the engine's job is to make the execution
// shape a run-time choice instead of a fork of the training loop.
//
// The engine is also representation-blind: every strategy funnels into
// sgd.Run, which executes on the sparse-native kernel whenever the
// source implements sgd.SparseSamples and no white-box hook needs a
// dense gradient. Shard views preserve the source's tier (Sharder
// implementations hand out sparse views; RangeView wraps sparse
// sources in sparse views), so Sequential, Sharded and Streaming all
// take the same fast path on the same data — pinned per strategy by
// the sparse-vs-dense parity tests.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

// Strategy selects how a PSGD run is executed.
type Strategy int

const (
	// Sequential runs sgd.Run unchanged on one goroutine.
	Sequential Strategy = iota
	// Sharded runs Workers per-shard PSGD workers with per-epoch model
	// averaging.
	Sharded
	// Streaming runs a single in-order pass with no materialized
	// permutation.
	Streaming
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Sequential:
		return "sequential"
	case Sharded:
		return "sharded"
	case Streaming:
		return "streaming"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy maps a CLI-style name to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "sequential", "seq":
		return Sequential, nil
	case "sharded", "shard", "parallel":
		return Sharded, nil
	case "streaming", "stream":
		return Streaming, nil
	default:
		return 0, fmt.Errorf("engine: unknown strategy %q (want sequential|sharded|streaming)", name)
	}
}

// Sharder is implemented by sample sources whose At is not safe for
// concurrent use (typically because it decodes into a reused scratch
// buffer): Shard must return an independent read-only view of rows
// [lo, hi) with its own scratch. bismarck.Table and data.Stream
// implement it. Sources without the method are wrapped in a plain
// range view and must tolerate concurrent At (and, for sparse
// sources, AtSparse) calls from different goroutines, as data.Dataset
// and sgd.SliceSamples do. The same contract serves the intra-batch
// parallel kernel (sgd.Config.KernelWorkers): it takes full-range
// Shard views for its workers when the method exists and shares the
// source otherwise.
type Sharder interface {
	Shard(lo, hi int) sgd.Samples
}

// Config describes one engine run: the shared SGD parameters plus the
// execution strategy that realizes them.
type Config struct {
	// Strategy selects the execution plan (default Sequential).
	Strategy Strategy

	// Workers is the shard count P for Sharded (default 1). One worker
	// is delegated to the sequential path and is bit-for-bit identical
	// to Sequential — the property the engine tests pin down.
	Workers int

	// SGD carries the run parameters common to all strategies. Strategy
	// restrictions: Sharded with Workers > 1 rejects Passes < 1,
	// GradNoise (white-box per-batch noise has no sharded sensitivity
	// analysis), GradPerturb (its accounting assumes one update
	// stream), Perm and NoPerm (each worker samples its own shard
	// permutations), AverageTail, a nil Rand (it seeds the workers) and
	// a W0 of the wrong dimension; Streaming rejects Passes > 1, Perm
	// and FreshPerm.
	SGD sgd.Config
}

// Result reports one engine run.
type Result struct {
	sgd.Result

	// ShardModels are the final per-shard models before the last merge
	// (Sharded only; a single-element view of W under one-worker
	// delegation). Like Result.W they are NOT private — they exist so
	// experiments can report shard divergence. Never publish them.
	ShardModels [][]float64

	// Workers is the effective worker count of the run (1 for
	// Sequential and Streaming).
	Workers int
}

// Run executes the configured training run and returns the resulting
// model(s). It is deterministic given Config.SGD.Rand's state and the
// worker count, regardless of goroutine scheduling.
func Run(s sgd.Samples, cfg Config) (*Result, error) {
	if cfg.Workers > 1 && cfg.Strategy != Sharded {
		// Reject rather than ignore: a caller who calibrated noise for
		// a P-way sharded run must not silently get a sequential one.
		return nil, fmt.Errorf("engine: Workers=%d requires the Sharded strategy, got %v", cfg.Workers, cfg.Strategy)
	}
	switch cfg.Strategy {
	case Sequential:
		return runSequential(s, cfg.SGD)
	case Sharded:
		return runSharded(s, cfg)
	case Streaming:
		return runStreaming(s, cfg.SGD)
	default:
		return nil, fmt.Errorf("engine: unknown strategy %v", cfg.Strategy)
	}
}

func runSequential(s sgd.Samples, c sgd.Config) (*Result, error) {
	res, err := sgd.Run(s, c)
	if err != nil {
		return nil, err
	}
	return &Result{Result: *res, Workers: 1}, nil
}

func runStreaming(s sgd.Samples, c sgd.Config) (*Result, error) {
	if c.Passes == 0 {
		c.Passes = 1
	}
	if c.Passes != 1 {
		return nil, fmt.Errorf("engine: Streaming is single-pass, got Passes=%d (use Sequential with FreshPerm for multi-pass runs)", c.Passes)
	}
	if c.Perm != nil || c.FreshPerm {
		return nil, errors.New("engine: Streaming processes rows in natural order; Perm and FreshPerm do not apply")
	}
	c.NoPerm = true
	return runSequential(s, c)
}

// Plan is the shard layout of a Sharded(P) run over m rows: the single
// authority both the in-process sharded executor and the distributed
// coordinator (internal/dist) partition by, so the two always cut the
// same rows into the same shards, and whose Merge is the one epoch and
// merge loop both run — together the basis of their bit-for-bit
// parity. Build one with PlanShards.
type Plan struct {
	// Rows is the total row count m the plan covers.
	Rows int
	// Workers is the shard count P.
	Workers int
	// Bounds are the per-shard [lo, hi) global row ranges, in shard
	// order (ShardBounds' layout: contiguous, nearly equal, remainder
	// merged into the last shard).
	Bounds [][2]int
	// MinShard is the smallest shard size — the size schedules and
	// per-shard sensitivities must be evaluated at (the smallest shard
	// yields the largest bound).
	MinShard int
}

// PlanShards resolves the shard layout for m rows across workers
// shards, or an error when the worker count cannot be satisfied. It is
// the error-returning entry point callers resolving user input go
// through; ShardBounds/MinShard remain as the panicking forms for
// already-validated counts.
func PlanShards(m, workers int) (*Plan, error) {
	if workers < 1 {
		return nil, fmt.Errorf("engine: %d workers", workers)
	}
	if m < 1 {
		return nil, errors.New("engine: empty training set")
	}
	if workers > m {
		return nil, fmt.Errorf("engine: %d workers for %d rows", workers, m)
	}
	return &Plan{
		Rows:     m,
		Workers:  workers,
		Bounds:   ShardBounds(m, workers),
		MinShard: MinShard(m, workers),
	}, nil
}

// ShardBounds returns the [lo, hi) row ranges of the workers shards:
// contiguous, nearly equal, with the remainder merged into the last
// shard. It panics unless 1 ≤ workers ≤ m.
func ShardBounds(m, workers int) [][2]int {
	if workers < 1 || workers > m {
		panic(fmt.Sprintf("engine: cannot split %d rows into %d shards", m, workers))
	}
	out := make([][2]int, workers)
	size := m / workers
	for i := 0; i < workers; i++ {
		lo := i * size
		hi := lo + size
		if i == workers-1 {
			hi = m
		}
		out[i] = [2]int{lo, hi}
	}
	return out
}

// MinShard returns the smallest shard size ShardBounds produces — the
// size per-shard sensitivities must be evaluated at, since the smallest
// shard yields the largest bound. Workers ≤ 1 returns m. Like
// ShardBounds it panics when workers exceeds m: returning 0 would turn
// a downstream 2L/(γ·minShard) into +Inf instead of failing fast (use
// ShardSize for the error-returning form).
func MinShard(m, workers int) int {
	if workers <= 1 {
		return m
	}
	if workers > m {
		panic(fmt.Sprintf("engine: cannot split %d rows into %d shards", m, workers))
	}
	return m / workers
}

// ShardSize is the validating form of MinShard for callers resolving a
// run shape from user input: it returns the size schedules and
// sensitivities must be evaluated at, or an error when the worker
// count cannot be satisfied. It is the single authority the
// calibration layers (core, baselines) share.
func ShardSize(m, workers int) (int, error) {
	if workers > m {
		return 0, fmt.Errorf("engine: %d workers for %d rows", workers, m)
	}
	return MinShard(m, workers), nil
}

// shardView returns a read-only view of rows [lo, hi), through the
// source's own Sharder implementation when it has one.
func shardView(s sgd.Samples, lo, hi int) sgd.Samples {
	if sh, ok := s.(Sharder); ok {
		return sh.Shard(lo, hi)
	}
	return RangeView(s, lo, hi)
}

// RangeView wraps a concurrency-safe source in a read-only row-range
// view of [lo, hi). It is what the engine builds for sources without a
// Sharder implementation; wrappers that relabel or restrict another
// source (eval's one-vs-all binary view) reuse it rather than
// duplicating the type.
//
// The view preserves the source's tier: when the wrapped source
// implements sgd.SparseSamples, so does the view, so restricting a
// sparse source never silently demotes a run to the dense kernel.
func RangeView(s sgd.Samples, lo, hi int) sgd.Samples {
	if lo < 0 || hi < lo || hi > s.Len() {
		panic(fmt.Sprintf("engine: range view [%d,%d) out of bounds for %d rows", lo, hi, s.Len()))
	}
	rv := rangeView{s: s, lo: lo, hi: hi}
	if ss, ok := s.(sgd.SparseSamples); ok {
		return &sparseRangeView{rv, ss}
	}
	if t, ok := s.(toucher); ok {
		return &touchView{rv, t}
	}
	return &rv
}

type rangeView struct {
	s      sgd.Samples
	lo, hi int
}

func (v *rangeView) Len() int { return v.hi - v.lo }
func (v *rangeView) Dim() int { return v.s.Dim() }
func (v *rangeView) At(i int) ([]float64, float64) {
	if i < 0 || i >= v.hi-v.lo {
		panic(fmt.Sprintf("engine: view row %d out of range [0,%d)", i, v.hi-v.lo))
	}
	return v.s.At(v.lo + i)
}

// sparseRangeView is RangeView's second-tier variant: a separate type
// rather than an always-present method, so a type assertion on
// sgd.SparseSamples stays truthful about the underlying source.
type sparseRangeView struct {
	rangeView
	ss sgd.SparseSamples
}

func (v *sparseRangeView) AtSparse(i int) (*vec.Sparse, float64) {
	if i < 0 || i >= v.hi-v.lo {
		panic(fmt.Sprintf("engine: view row %d out of range [0,%d)", i, v.hi-v.lo))
	}
	return v.ss.AtSparse(v.lo + i)
}

// toucher is sgd's optional look-ahead hint. Like the sparse tier, a
// view offers it only when its source does, in parent coordinates —
// the dense view only: every sparse source here shards itself.
type toucher interface{ Touch(i int) float64 }

type touchView struct {
	rangeView
	t toucher
}

func (v *touchView) Touch(i int) float64 { return v.t.Touch(v.lo + i) }

func runSharded(s sgd.Samples, cfg Config) (*Result, error) {
	c := cfg.SGD
	if cfg.Workers <= 1 {
		// One shard is the whole dataset, so delegate: this is what
		// makes Sharded(P=1) ≡ Sequential hold bit-for-bit (the merge
		// loop would consume Rand differently through per-worker
		// seeding).
		res, err := runSequential(s, c)
		if err != nil {
			return nil, err
		}
		res.ShardModels = [][]float64{res.W}
		return res, nil
	}

	plan, err := PlanShards(s.Len(), cfg.Workers)
	if err != nil {
		return nil, err
	}
	if c.Passes < 1 {
		return nil, fmt.Errorf("engine: Passes must be >= 1, got %d", c.Passes)
	}
	if c.GradNoise != nil {
		return nil, errors.New("engine: Sharded rejects GradNoise — white-box per-batch noise has no sharded sensitivity analysis")
	}
	if c.GradPerturb != nil {
		return nil, errors.New("engine: Sharded rejects GradPerturb — the subsampled-Gaussian accounting assumes one sequential update stream")
	}
	if c.Perm != nil {
		return nil, errors.New("engine: Sharded samples per-shard permutations; Perm does not apply")
	}
	if c.NoPerm {
		return nil, errors.New("engine: Sharded samples per-shard permutations; NoPerm does not apply")
	}
	if c.AverageTail {
		return nil, errors.New("engine: AverageTail is not supported under Sharded; use Average")
	}
	if c.Rand == nil {
		return nil, errors.New("engine: Sharded requires Rand to seed its workers")
	}
	d := s.Dim()
	if c.W0 != nil && len(c.W0) != d {
		return nil, fmt.Errorf("engine: W0 has dim %d, want %d", len(c.W0), d)
	}

	shards := make([]sgd.Samples, cfg.Workers)
	for i, b := range plan.Bounds {
		shards[i] = shardView(s, b[0], b[1])
	}

	// Pre-draw per-worker generators from the caller's source so the
	// run is deterministic regardless of goroutine scheduling. Each
	// worker keeps its generator across epochs, so every epoch scans a
	// fresh shard permutation (the §3.2.3 fresh-permutation extension;
	// sensitivity is unchanged by it).
	rngs := make([]*rand.Rand, cfg.Workers)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(c.Rand.Int63()))
	}

	// Progress acts on the merged model, once per epoch; the shard runs
	// never see it.
	var after func(pass int, w []float64)
	if c.Progress != nil {
		after = func(pass int, w []float64) {
			c.Progress(pass, sgd.EmpiricalRisk(s, c.Loss, w))
		}
	}
	return plan.Merge(c.Ctx, c.Passes, c.W0, d, c.Average, func(i, _ int, w []float64, t0 int) (*sgd.Result, error) {
		return sgd.Run(shards[i], sgd.Config{
			Loss:          c.Loss,
			Step:          c.Step,
			Passes:        1,
			Batch:         c.Batch,
			Radius:        c.Radius,
			Average:       c.Average,
			KernelWorkers: c.KernelWorkers,
			Rand:          rngs[i],
			W0:            w,
			T0:            t0,
			Ctx:           c.Ctx,
		})
	}, after)
}

// ShardEpoch runs shard i's part of merge epoch e: one pass over the
// shard from the merged model w (read-only) with the shard's update
// count t0 so far. The in-process executor runs sgd.Run on a shard
// view; the distributed coordinator sends one epoch request.
type ShardEpoch func(i, e int, w []float64, t0 int) (*sgd.Result, error)

// Merge is the one merge loop of a Sharded(P) run, shared by the
// in-process executor and the distributed coordinator. Each of passes
// epochs runs epoch on every shard concurrently from the merged model
// (w0, or the origin when nil, for the first), waits for all of them,
// and averages the shard models uniformly — the combine step the
// Δ₂/P sensitivities (dp.SensitivitySharded*) are proved for. With
// average set, the shards' iterate averages are averaged too and
// weighted by the epoch's update count, so the returned WAvg is the
// uniform average over every update.
//
// The first error in shard order fails the run, as does a ctx (nil is
// allowed) done before an epoch starts. after, when non-nil, sees the
// merged model after each epoch (pass counts from 1).
func (p *Plan) Merge(ctx context.Context, passes int, w0 []float64, d int, average bool, epoch ShardEpoch, after func(pass int, w []float64)) (*Result, error) {
	P := p.Workers
	w := make([]float64, d)
	copy(w, w0)
	var wsum, epochAvg []float64
	if average {
		wsum = make([]float64, d)
		epochAvg = make([]float64, d)
	}
	models := make([][]float64, P)
	avgs := make([][]float64, P)
	counts := make([]int, P)
	offsets := make([]int, P)
	errs := make([]error, P)

	out := &Result{ShardModels: models, Workers: P}
	for e := 0; e < passes; e++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		var wg sync.WaitGroup
		for i := 0; i < P; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := epoch(i, e, w, offsets[i])
				if err != nil {
					errs[i] = err
					return
				}
				models[i], avgs[i], counts[i] = res.W, res.WAvg, res.Updates
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}

		vec.Mean(w, models...)
		epochUpdates := 0
		for i := range counts {
			offsets[i] += counts[i]
			epochUpdates += counts[i]
		}
		out.Updates += epochUpdates
		if average {
			vec.Mean(epochAvg, avgs...)
			vec.Axpy(wsum, float64(epochUpdates), epochAvg)
		}
		out.Passes++
		if after != nil {
			after(out.Passes, w)
		}
	}

	out.W = w
	if average && out.Updates > 0 {
		vec.Scale(wsum, 1/float64(out.Updates))
		out.WAvg = wsum
	}
	return out, nil
}
