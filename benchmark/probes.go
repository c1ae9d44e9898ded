package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"boltondp/internal/account"
	"boltondp/internal/account/compose"
	"boltondp/internal/baselines"
	"boltondp/internal/bismarck"
	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/online"
	"boltondp/internal/sgd"
	"boltondp/internal/store"
	"boltondp/internal/vec"
)

// The probes are the fixed-size half of the per-layer metrics: each
// times one layer's public entry point alone, so a layer's budget is a
// literal row. A workload runs only the probes of the layers its
// end-to-end metrics depend on (README: the layer → end-to-end map).

const (
	probeReps = 5 // rounds of a short probe
	slowReps  = 2 // rounds of a probe that takes about a second
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// nsPerOp times op(n) — n back-to-back operations — with n grown until
// a round takes 10 ms, and returns the median ns per operation.
func nsPerOp(op func(n int)) float64 {
	n := 1
	for {
		start := time.Now()
		op(n)
		if time.Since(start) >= 10*time.Millisecond || n >= 1<<26 {
			break
		}
		n *= 4
	}
	var per []float64
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		op(n)
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(per)
}

// secondsOf is the median wall time of fn over reps runs.
func secondsOf(reps int, fn func() error) (float64, error) {
	var s []float64
	for i := 0; i < reps; i++ {
		d, err := stopwatch(fn)
		if err != nil {
			return 0, err
		}
		s = append(s, d)
	}
	return median(s), nil
}

// mallocs counts heap allocations made by fn.
func mallocs(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// kernelProbes are the loss derivatives and the kernel's allocation
// count: every training workload's job_s rests on them.
func (r *run) kernelProbes(s sgd.Samples, batch int) error {
	huber := loss.NewHuber(0.1, lambda, 0)
	r.add("loss.logistic_deriv_ns", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += logistic.Deriv(float64(i&7)-3.5, 1)
		}
	}))
	r.add("loss.huber_deriv_ns", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += huber.Deriv(float64(i&7)-3.5, 1)
		}
	}))
	var err error
	r.add("sgd.epoch_allocs", mallocs(func() { _, err = epoch(s, batch, 1) }))
	return err
}

// epoch is one noiseless pass of the job's kernel over s.
func epoch(s sgd.Samples, batch, kernelWorkers int) (*sgd.Result, error) {
	p := logistic.Params()
	return sgd.Run(s, sgd.Config{
		Loss: logistic, Step: sgd.StronglyConvexPaper(p.Beta, p.Gamma),
		Passes: 1, Batch: batch, Radius: 1 / lambda, KernelWorkers: kernelWorkers,
		Rand: rand.New(rand.NewSource(1)),
	})
}

// epochProbes times one kernel pass at KernelWorkers 1 and 2.
func (r *run) epochProbes(kind string, s sgd.Samples, batch int) error {
	kw1, err := secondsOf(probeReps, func() error { _, err := epoch(s, batch, 1); return err })
	if err != nil {
		return err
	}
	kw2, err := secondsOf(probeReps, func() error { _, err := epoch(s, batch, 2); return err })
	if err != nil {
		return err
	}
	r.add("sgd."+kind+"_epoch_rows_per_s", float64(s.Len())/kw1)
	r.add("sgd."+kind+"_kw2_over_kw1", kw2/kw1)
	return nil
}

// sparseVecProbes: one nnz-50 row against a d=10000 dense vector.
func (r *run) sparseVecProbes(s sgd.SparseSamples) {
	row, _ := s.AtSparse(0)
	row = &vec.Sparse{Idx: append([]int(nil), row.Idx...), Val: append([]float64(nil), row.Val...)}
	dense := make([]float64, s.Dim())
	for i := range dense {
		dense[i] = float64(i%7) - 3
	}
	r.add("vec.sparse_dot_ns", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += row.Dot(dense)
		}
	}))
	r.add("vec.sparse_axpy_ns", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			row.AxpyInto(dense, 1e-9)
		}
	}))
}

func (r *run) denseVecProbes(d int) {
	a, b := make([]float64, d), make([]float64, d)
	for i := range a {
		a[i], b[i] = float64(i%7)-3, float64(i%5)-2
	}
	r.add("vec.dense_dot_ns", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += vec.Dot(a, b)
		}
	}))
	r.add("vec.dense_axpy_ns", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			vec.Axpy(a, 1e-9, b)
		}
	}))
}

// engineRun is the engine under the job's configuration, the part of a
// private run that is not the bolt-on.
func engineRun(s sgd.Samples, t trainShape, strategy engine.Strategy, workers int) error {
	p := logistic.Params()
	_, err := engine.Run(s, engine.Config{
		Strategy: strategy, Workers: workers,
		SGD: sgd.Config{
			Loss: logistic, Step: sgd.StronglyConvexPaper(p.Beta, p.Gamma),
			Passes: t.passes, Batch: t.batch, Radius: 1 / lambda,
			Rand: rand.New(rand.NewSource(1)),
		},
	})
	return err
}

// boltOnProbes: what core.TrainCtx costs beyond engine.Run at the same
// configuration (sensitivity, reservation, perturbation).
func (r *run) boltOnProbes(s sgd.Samples, t trainShape) error {
	var train, eng []float64
	for i := 0; i < slowReps; i++ {
		ts, err := stopwatch(func() error { _, _, err := trainPrivate(context.Background(), s, t, 1); return err })
		if err != nil {
			return err
		}
		es, err := stopwatch(func() error { return engineRun(s, t, engine.Sequential, 1) })
		if err != nil {
			return err
		}
		train, eng = append(train, ts), append(eng, es)
	}
	r.add("core.train_overhead_s", median(train)-median(eng))
	return nil
}

// memCopy materialises a sparse source in memory, row for row.
func memCopy(s sgd.SparseSamples) *data.SparseDataset {
	ds := data.NewSparseDataset("mem", s.Dim())
	for i := 0; i < s.Len(); i++ {
		x, y := s.AtSparse(i)
		if err := ds.Append(x, y); err != nil {
			panic(err) // rows of a verified store re-append
		}
	}
	return ds
}

func (w *storeTrain) traced(r *run) error {
	if w.distributed {
		if err := w.startPool(r, 0); err != nil {
			return err
		}
	}
	if err := w.tracedJobs(r); err != nil {
		return err
	}
	ctx := context.Background()
	mem := memCopy(w.rd)

	// One warm pass over every chunk, reading every index and value as
	// a consumer would (ChunkCSR alone hands out slices of the mapping
	// and touches nothing), and what the pass allocates.
	scan := func() error {
		for c := 0; c < w.rd.Chunks(); c++ {
			_, idx, val, _, err := w.rd.ChunkCSR(c)
			if err != nil {
				return err
			}
			var sum float64
			for k, v := range val {
				sum += v * float64(idx[k])
			}
			sink += sum
		}
		return nil
	}
	secs, err := secondsOf(probeReps, scan)
	if err != nil {
		return err
	}
	r.add("store.scan_rows_per_s", float64(w.rd.Len())/secs)
	r.add("store.scan_allocs_per_chunk", mallocs(func() { err = scan() })/float64(w.rd.Chunks()))
	if err != nil {
		return err
	}
	fi, err := os.Stat(w.rd.Path())
	if err != nil {
		return err
	}
	r.add("store.bytes_per_nnz", float64(fi.Size())/float64(w.rd.NNZ()))
	r.sparseVecProbes(mem)
	if err := r.kernelProbes(mem, w.shape.batch); err != nil {
		return err
	}
	if err := r.epochProbes("sparse", mem, w.shape.batch); err != nil {
		return err
	}

	sharded, err := secondsOf(slowReps, func() error { return engineRun(mem, w.shape, engine.Sharded, distShards) })
	if err != nil {
		return err
	}
	r.add("engine.sharded_p2_s", sharded)

	if w.distributed {
		return w.distProbes(r)
	}

	seq, err := secondsOf(slowReps, func() error { return engineRun(mem, w.shape, engine.Sequential, 1) })
	if err != nil {
		return err
	}
	r.add("engine.sequential_s", seq)
	stream, err := secondsOf(slowReps, func() error {
		return engineRun(mem, trainShape{passes: 1, batch: w.shape.batch}, engine.Streaming, 1)
	})
	if err != nil {
		return err
	}
	r.add("engine.streaming_rows_per_s", float64(mem.Len())/stream)

	// Store-backed and in-memory training: same bits, and what the
	// store costs over memory.
	var fromStore, fromMem []float64
	for i := 0; i < slowReps; i++ {
		var a, b *core.Result
		ss, err := stopwatch(func() error { a, _, err = trainPrivate(ctx, w.rd, w.shape, r.jobSeed(i)); return err })
		if err != nil {
			return err
		}
		ms, err := stopwatch(func() error { b, _, err = trainPrivate(ctx, mem, w.shape, r.jobSeed(i)); return err })
		if err != nil {
			return err
		}
		r.check(sameBits(a.W, b.W) && a.Sensitivity == b.Sensitivity, "store-backed and in-memory training differ (seed %d)", r.jobSeed(i))
		fromStore, fromMem = append(fromStore, ss), append(fromMem, ms)
	}
	r.add("store.train_over_mem", median(fromStore)/median(fromMem))
	// What TrainCtx costs beyond engine.Run at the same configuration:
	// sensitivity, reservation, perturbation.
	r.add("core.train_overhead_s", median(fromMem)-seq)

	weights := make([]float64, wideDim)
	noise := rand.New(rand.NewSource(1))
	r.add("dp.perturb_us", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			out, _ := pureGrant.Perturb(noise, weights, 0.05)
			sink += out[0]
		}
	})/1e3)
	return w.noiselessSpans(r)
}

// noiselessSpans runs the traced jobs' noiseless twins under spans, so
// baselines.noiseless_s sits beside core.train_s.
func (t *trainer) noiselessSpans(r *run) error {
	for j := 0; j < slowReps; j++ {
		if _, err := t.noiselessJob(r, j); err != nil {
			return err
		}
	}
	return nil
}

// distProbes: the wire against single-process Sharded(2) at the same
// seed — equal weights and ledger, and what the wire costs.
func (w *storeTrain) distProbes(r *run) error {
	ctx := context.Background()
	var wire, single []float64
	for i := 0; i < slowReps; i++ {
		calls, bytes := w.wire.calls.Load(), w.wire.bytes.Load()
		var got *core.Result
		var gotAcct *account.Accountant
		ds, err := stopwatch(func() (err error) { got, gotAcct, err = w.private(r, -1, maxTraceReps+i); return err })
		if err != nil {
			return err
		}
		calls, bytes = w.wire.calls.Load()-calls, w.wire.bytes.Load()-bytes
		r.add("dist.http_calls_per_job", float64(calls))
		r.add("dist.wire_bytes_per_round", float64(bytes)/float64(w.shape.passes))

		var want *core.Result
		var wantAcct *account.Accountant
		ss, err := stopwatch(func() (err error) {
			want, wantAcct, err = trainPrivate(ctx, w.rd, w.shape, r.jobSeed(maxTraceReps+i), core.WithStrategy(engine.Sharded, distShards))
			return err
		})
		if err != nil {
			return err
		}
		r.check(sameBits(got.W, want.W) && got.Sensitivity == want.Sensitivity && gotAcct.Ledger().Same(wantAcct.Ledger()),
			"distributed run differs from single-process Sharded(%d) (seed %d)", distShards, r.jobSeed(maxTraceReps+i))
		wire, single = append(wire, ds), append(single, ss)
	}
	r.add("dist.over_sharded", median(wire)/median(single))
	return nil
}

func (w *denseMem) traced(r *run) error {
	if err := w.tracedJobs(r); err != nil {
		return err
	}
	if err := w.noiselessSpans(r); err != nil {
		return err
	}
	r.denseVecProbes(w.train.Dim())
	if err := r.kernelProbes(w.train, w.shape.batch); err != nil {
		return err
	}
	if err := r.epochProbes("dense", w.train, w.shape.batch); err != nil {
		return err
	}
	if err := r.boltOnProbes(w.train, w.shape); err != nil {
		return err
	}

	// The paper's white-box contrast, one pass each: per-batch noise
	// inside the loop against the noiseless loop.
	one := baselines.Options{
		Budget: dp.Budget{Epsilon: 1, Delta: 1e-6}, Passes: 1, Batch: w.shape.batch, Radius: 1 / lambda,
	}
	timeBaseline := func(fn func(sgd.Samples, loss.Function, baselines.Options) (*baselines.Result, error)) (float64, error) {
		return secondsOf(3, func() error {
			opt := one
			opt.Rand = rand.New(rand.NewSource(1))
			_, err := fn(w.train, logistic, opt)
			return err
		})
	}
	plain, err := timeBaseline(baselines.Noiseless)
	if err != nil {
		return err
	}
	scs, err := timeBaseline(baselines.SCS13)
	if err != nil {
		return err
	}
	bst, err := timeBaseline(baselines.BST14)
	if err != nil {
		return err
	}
	r.add("baselines.scs13_over_noiseless", scs/plain)
	r.add("baselines.bst14_over_noiseless", bst/plain)
	return w.bismarckProbes(r)
}

// bismarckProbes: one UDA epoch over a memory table and over a disk
// table whose buffer pool holds a quarter of its pages.
func (w *denseMem) bismarckProbes(r *run) error {
	rows := engine.RangeView(w.train, 0, min(w.train.Len(), r.size(20000)))
	uda := func(t *bismarck.Table) (*bismarck.TrainResult, float64, error) {
		var res *bismarck.TrainResult
		secs, err := secondsOf(3, func() (err error) {
			res, err = bismarck.TrainUDA(t, logistic, bismarck.TrainConfig{
				Algorithm: bismarck.Noiseless, Passes: 1, Batch: w.shape.batch, Radius: 1 / lambda,
				NoShuffle: true, Rand: rand.New(rand.NewSource(1)),
			})
			return err
		})
		return res, secs, err
	}
	mem := bismarck.NewMemTable("covtype", rows.Dim())
	if err := mem.InsertAll(rows); err != nil {
		return err
	}
	_, secs, err := uda(mem)
	if err != nil {
		return err
	}
	r.add("bismarck.uda_epoch_rows_per_s", float64(rows.Len())/secs)

	pages := mem.NumPages()
	disk, err := bismarck.CreateDiskTable(filepath.Join(w.dir, "covtype.tbl"), rows.Dim(), max(pages/4, 1))
	if err != nil {
		return err
	}
	defer disk.Remove() //nolint:errcheck // scratch file under the run's work directory
	if err := disk.InsertAll(rows); err != nil {
		return err
	}
	if err := disk.Flush(); err != nil {
		return err
	}
	res, secs, err := uda(disk)
	if err != nil {
		return err
	}
	r.add("bismarck.disk_epoch_rows_per_s", float64(rows.Len())/secs)
	if total := res.Stats.Hits + res.Stats.Misses; total > 0 {
		r.add("bismarck.pool_hit_ratio", float64(res.Stats.Hits)/float64(total))
	}
	return nil
}

// probes of kdd_cold: the layers under its job that the spans cannot
// split, and gradient perturbation, which no job runs yet.
func (w *kddCold) probes(r *run) error {
	rows := kddRows(r.cfg.seed, r.size(50000), 0.5)
	if err := r.kernelProbes(rows, w.shape.batch); err != nil {
		return err
	}
	secs, err := secondsOf(3, func() error {
		_, err := core.TrainCtx(context.Background(), rows, logistic,
			core.WithBudget(dp.Budget{Epsilon: 1, Delta: 1e-6}), core.WithGradPerturb(1, 0),
			core.WithPasses(1), core.WithBatch(50), core.WithRadius(1/lambda),
			core.WithRand(rand.New(rand.NewSource(1))))
		return err
	})
	if err != nil {
		return err
	}
	r.add("core.gradperturb_rows_per_s", float64(rows.Len())/secs)
	return nil
}

// probes of online_windows: pricing, ledger round trip, one continual
// window, the drift statistic and a segment append, each alone.
func (w *onlineWindows) probes(r *run) error {
	ctx := context.Background()
	rows := kddRows(r.cfg.seed+10, r.size(onlineSegRowsFull), driftPriors[0])
	if err := r.kernelProbes(rows, w.shape.batch); err != nil {
		return err
	}

	const prior = 16
	slice := dp.Budget{Epsilon: 1e-3}
	r.add("account.reserve_us", nsPerOp(func(n int) {
		for i := 0; i < n; i += prior {
			acct := account.MustNew(dp.Budget{Epsilon: 1})
			for k := 0; k < prior; k++ {
				acct.Reserve("probe", slice) //nolint:errcheck // 16 × 1e-3 of ε=1 cannot overdraw
			}
		}
	})/1e3)

	// The 17th reservation under rdp: every earlier entry's curve is
	// composed again at admission.
	var rdp []float64
	var stamped *account.Accountant
	for i := 0; i < 50; i++ {
		acct, err := account.NewWithRule(compose.RuleRDP, dp.Budget{Epsilon: 8, Delta: 1e-5})
		if err != nil {
			return err
		}
		for k := 0; k < prior; k++ {
			if err := acct.ReserveGaussian("prior", 8, 1, dp.Budget{Epsilon: 0.4, Delta: 1e-7}); err != nil {
				return err
			}
		}
		secs, err := stopwatch(func() error { return acct.ReserveGaussian("probe", 8, 1, dp.Budget{Epsilon: 0.4, Delta: 1e-7}) })
		if err != nil {
			return err
		}
		rdp, stamped = append(rdp, secs*1e6), acct
	}
	r.add("compose.rdp_reserve_us", median(rdp))

	solve, err := secondsOf(probeReps, func() error {
		_, err := compose.SolveSGMSigma(compose.RuleRDP, 50.0/50000, 1000, dp.Budget{Epsilon: 1, Delta: 1e-6})
		return err
	})
	if err != nil {
		return err
	}
	r.add("compose.solve_sgm_sigma_ms", solve*1e3)

	var round []float64
	for i := 0; i < 50; i++ {
		secs, err := stopwatch(func() error {
			meta := map[string]string{}
			if err := stamped.StampMeta(meta); err != nil {
				return err
			}
			l, ok, err := account.LedgerFromMeta(meta)
			if err != nil || !ok {
				return fmt.Errorf("stamped ledger unreadable: %v", err)
			}
			_, err = account.Restore(l)
			return err
		})
		if err != nil {
			return err
		}
		round = append(round, secs*1e6)
	}
	r.add("account.stamp_restore_us", median(round))

	segDir := filepath.Join(w.dir, "probe-segments")
	var appends []float64
	for i := 0; i < 3; i++ {
		secs, err := stopwatch(func() error { _, err := store.AppendSegment(segDir, rows, store.Options{}); return err })
		if err != nil {
			return err
		}
		appends = append(appends, float64(rows.Len())/secs)
	}
	r.add("store.append_rows_per_s", median(appends))
	dir, err := store.OpenDir(segDir)
	if err != nil {
		return err
	}
	defer dir.Close()

	weights := make([]float64, kddDim)
	for i := range weights {
		weights[i] = float64(i%7) - 3
	}
	secs, err := secondsOf(probeReps, func() error { sink += online.Stats(dir, weights).MeanMargin; return nil })
	if err != nil {
		return err
	}
	r.add("online.stats_rows_per_s", float64(dir.Len())/secs)

	trainer, err := core.NewContinualRDP(w.budget, onlineSegments, logistic, w.shape.options(1)...)
	if err != nil {
		return err
	}
	var retrain []float64
	for i := 0; i < onlineSegments; i++ {
		secs, err := stopwatch(func() error { _, err := trainer.Retrain(ctx, dir); return err })
		if err != nil {
			return err
		}
		retrain = append(retrain, secs)
	}
	r.add("core.continual_retrain_s", median(retrain))
	return nil
}
