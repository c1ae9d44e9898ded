package bismarck

import "boltondp/internal/sgd"

// Shared-nothing parallel SGD, the way Bismarck parallelizes UDAs (and
// the paper's footnote 2 extends to MapReduce): the shuffled table is
// range-partitioned into P segments, each worker runs a PSGD aggregate
// over its segment, and the per-partition models are merged by
// averaging — PostgreSQL's combine-function contract.
//
// The worker pool itself lives in internal/engine (Strategy Sharded):
// per epoch every worker advances one pass over its segment from the
// shared model and the merge averages the partition models. This file
// is only the Sharder glue that gives each worker its own decode
// scratch: engine.Run (noiseless) and core.TrainCtx with
// WithStrategy(engine.Sharded, P) (private) take a *Table directly.
//
// Privacy composes cleanly with the bolt-on analysis. A single
// differing example lives in exactly one partition of size ~m/P, so
// per epoch only that partition's model is additionally displaced, and
// averaging divides the difference by P:
//
//	Δ_parallel = Δ_part(m/P) / P
//
// For the strongly convex bound Δ_part = 2L/(γ(m/P)) this gives
// 2L/(γm) — identical to the sequential bound, so parallelism is free
// privacy-wise. For the convex constant-step bound it gives 2kLη/(bP),
// strictly better than sequential. See dp.SensitivityShardedStronglyConvex
// for the telescoping argument and internal/dp's tests for the
// empirical verification.

// segment is a read-only row-range view of a table implementing
// sgd.Samples. Each worker gets its own decode scratch so segments are
// safe to scan concurrently: page bytes are immutable during training
// and the buffer pool serializes its own bookkeeping.
type segment struct {
	t       *Table
	lo, hi  int
	scratch []float64
}

func (s *segment) Len() int { return s.hi - s.lo }
func (s *segment) Dim() int { return s.t.d }

func (s *segment) At(i int) ([]float64, float64) {
	row := s.lo + i
	pg, err := s.t.page(row / s.t.rpp)
	if err != nil {
		panic(err)
	}
	y := decodeRow(pg, (row%s.t.rpp)*rowBytes(s.t.d), s.scratch)
	return s.scratch, y
}

// Shard keeps segments shardable in turn (a segment's decode scratch is
// as concurrency-unsafe as the table's): sub-shards translate to table
// coordinates, so sharded runs over a row-range view stay race-free.
func (s *segment) Shard(lo, hi int) sgd.Samples {
	return s.t.Shard(s.lo+lo, s.lo+hi)
}

// Shard implements engine.Sharder: an independent read-only view of
// rows [lo, hi) with its own decode scratch, safe to scan concurrently
// with other shards of the same table. Like At, it finishes any pending
// load first (the partially filled tail page must be appended before
// segments read page bytes concurrently) and panics if that write
// fails, mirroring the segment's own At contract.
func (t *Table) Shard(lo, hi int) sgd.Samples {
	if t.tail != nil {
		if err := t.flushTail(); err != nil {
			panic(err)
		}
	}
	return &segment{t: t, lo: lo, hi: hi, scratch: make([]float64, t.d)}
}
