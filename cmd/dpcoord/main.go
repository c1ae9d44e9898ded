// Command dpcoord coordinates a distributed private training run over
// a pool of dpworker processes: it partitions the dataset into shard
// manifests, drives the per-epoch train/average/redistribute loop, and
// releases one noised model under the requested (ε, δ) budget. The
// result is pinned bit-identical to the single-process
// `dpsgd -strategy sharded -workers P` run under the same seed.
//
// Usage:
//
//	dpcoord -workers http://a:8090,http://b:8090 -sim protein -eps 0.1
//	dpcoord -workers http://a:8090 -store train.bolt -shards 4 -save model.json
//	dpcoord -workers http://a:8090 -publish ./registry   # then: dpserve -models ./registry
//
// Workers open the store file themselves and the wire carries only
// chunk ranges and CRCs: -store names the file, and a -sim dataset is
// first written to a temp store under $TMPDIR, which the workers must
// be able to open (a shared mount, or workers on loopback). Worker
// failures are retried, then the shard is reassigned to a live worker
// whose deterministic rewind preserves bit-parity; with no live worker
// left the run aborts fail-closed — no model, single budget
// reservation.
// See internal/dist and DESIGN.md §8.
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"boltondp/internal/cli"
)

func main() {
	cfg, err := cli.ParseDPCoord(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpcoord: %v\n", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := cli.RunDPCoordCtx(ctx, cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "dpcoord: %v\n", err)
		os.Exit(1)
	}
}
