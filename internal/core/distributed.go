package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"boltondp/internal/dist"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
)

// jobSeq distinguishes jobs issued by this process, so concurrent
// TrainDistributed calls sharing a worker pool never collide on shard
// state.
var jobSeq atomic.Uint64

// TrainDistributed runs the bolt-on private PSGD appropriate for the
// loss on a distributed coordinator/worker pool (internal/dist) instead
// of the in-process engine. It is the distributed counterpart of
// TrainCtx with the Sharded strategy: WithStrategy(engine.Sharded, P)
// selects the shard count (default 1), the algorithm and the noise come
// from the same plan TrainCtx prices a sharded run with, and the result
// — model, ledger entry, noise draw — is bit-identical to the
// single-process run under the same seed (the parity contract pinned by
// the internal/dist tests).
//
// Options the wire cannot honour are rejected before any reservation:
// gradient perturbation (Sequential-only), and those that require
// mid-run access to the whole dataset or change the randomness schedule
// — Tol and Progress (per-epoch risk needs every row), AverageTail (not
// supported under Sharded), and FreshPerm (the sharded executor
// resamples per-shard permutations every epoch already; the flag only
// has meaning for multi-pass sequential runs, whose distributed form
// ships one pinned permutation).
func TrainDistributed(ctx context.Context, coord *dist.Coordinator, src dist.Source, f loss.Function, opts ...Option) (*Result, error) {
	c := newConfig(opts)
	c.strategy = engine.Sharded
	if err := c.resolve(); err != nil {
		return nil, err
	}
	switch {
	case c.gradPerturb != nil:
		return nil, errors.New("core: gradient perturbation is Sequential-only (per-step accounting assumes one update stream); not available distributed")
	case c.tol > 0:
		return nil, errors.New("core: Tol-based early stopping needs per-epoch risk over the whole dataset; not available distributed")
	case c.progress != nil:
		return nil, errors.New("core: Progress needs per-epoch risk over the whole dataset; not available distributed")
	case c.averageTail:
		return nil, errors.New("core: AverageTail is not supported under Sharded execution")
	case c.freshPerm:
		return nil, errors.New("core: FreshPerm does not apply to distributed runs (sharded epochs already resample; single-shard runs ship one pinned permutation)")
	}
	stepSpec, sens, err := c.plan(f, src.Rows())
	if err != nil {
		return nil, err
	}
	lossSpec, err := dist.LossSpecFor(f)
	if err != nil {
		return nil, err
	}
	job := dist.Job{
		ID: fmt.Sprintf("train-%s-%d", f.Name(), jobSeq.Add(1)),
		Spec: dist.TrainSpec{
			Loss: lossSpec, Step: stepSpec,
			Batch: c.batch, Radius: c.radius, Average: c.average,
			KernelWorkers: c.kernelWorkers,
		},
		Shards: max(c.workers, 1),
		Passes: c.passes,
		W0:     c.w0,
	}

	if err := c.reserve(f); err != nil {
		return nil, err
	}
	res, err := coord.Train(ctx, src, job, c.rand)
	if err != nil {
		return nil, err
	}
	return c.perturb(&res.Result, sens)
}
