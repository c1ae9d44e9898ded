package core

import (
	"context"
	crand "crypto/rand"
	"errors"
	"fmt"
	"sync/atomic"

	"boltondp/internal/dist"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
)

// jobSeq numbers the jobs this process issues. It restarts in every
// process, so a job ID also carries 64 random bits: two coordinators
// sharing a worker pool must never install — or release — the same job.
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
// — Progress (per-epoch risk needs every row), AverageTail (not
// supported under Sharded), and FreshPerm (the sharded executor
// resamples per-shard permutations every epoch already; the flag only
// has meaning for multi-pass sequential runs, whose distributed form
// ships one pinned permutation).
func TrainDistributed(ctx context.Context, coord *dist.Coordinator, src *dist.Source, f loss.Function, opts ...Option) (*Result, error) {
	c := newConfig(opts)
	c.strategy = engine.Sharded
	if err := c.resolve(); err != nil {
		return nil, err
	}
	switch {
	case c.gradPerturb != nil:
		return nil, errors.New("core: gradient perturbation is Sequential-only (per-step accounting assumes one update stream); not available distributed")
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
	var nonce [8]byte
	if _, err := crand.Read(nonce[:]); err != nil {
		return nil, err
	}
	job := dist.Job{
		// From crypto/rand, not c.rand: the caller's generator must be
		// consumed exactly as the in-process run consumes it.
		ID: fmt.Sprintf("train-%s-%d-%x", f.Name(), jobSeq.Add(1), nonce),
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
