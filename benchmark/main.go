// Command benchmark is the repo's one performance harness: six named
// workloads over the whole bolt-on pipeline, end-to-end metrics with
// tracing off, and a traced run that yields the per-layer metrics.
//
// API-STABILITY RULE. This package imports boltondp/internal/* only,
// and only API that ROADMAP items 2 and 5 keep. It must never use the
// root facade, core.Train / PrivateConvexPSGD / PrivateStronglyConvexPSGD
// (or their Ctx twins), core.Options / core.WithOptions,
// bismarck.ParallelTrainUDA, sgd.RunSVRG, dist.NewInlineSource or
// store.Options.Version — so a deletion PR never has to edit the
// benchmark. The two serve wire forms item 5 may remove (row-object
// batches, dense OvA rows) are probed over HTTP only and read "absent"
// (0) when the server refuses them.
//
//	go run ./benchmark -seed 1                     all six workloads, timed then traced
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	                                               one workload, one JSON line (the BENCHMARK.json contract)
//	go run ./benchmark -compare A.json B.json      regression gate between two result files (or lists a1,a2 b1,b2)
//
// See README.md in this directory for every metric and workload.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "run this one workload in-process and print one JSON result line (empty = all six, each in a child process)")
		seed     = flag.Int64("seed", 1, "seeds the data generators; job j trains with seed+1+j")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured seconds per workload run")
		trace    = flag.Int("trace", 1, "with -workload: 0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics); without: 1 also makes the traced run after the timed one")
		traceOut = flag.String("trace-out", "", "write the traced run's spans to this JSON file")
		out      = flag.String("out", "", "write the all-workloads result to this JSON file")
		detail   = flag.String("detail", "", "with -workload: also write every metric's n, median and quartiles to this file (how the all-workloads parent collects its children)")
		smoke    = flag.Bool("smoke", false, "every workload at about 1/50 size, all correctness checks on")
		compare  = flag.Bool("compare", false, "compare two result files (or comma-separated lists of them) given as arguments: exit non-zero when B is worse than A beyond a BENCHMARK.json bound")
	)
	flag.Parse()
	// The load shape of every run: at most four Ps, recorded in the output.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *workload != "":
		err = runChild(childConfig{
			workload: *workload, seed: *seed, seconds: *seconds, traced: *trace != 0,
			traceOut: *traceOut, detail: *detail, smoke: *smoke,
		})
	default:
		err = runAll(allConfig{
			seed: *seed, seconds: *seconds, traced: *trace != 0,
			traceOut: *traceOut, out: *out, smoke: *smoke,
		})
	}
	if err != nil {
		if !errors.Is(err, errReported) {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		return 1
	}
	return 0
}

// errReported marks a failure whose details are already printed.
var errReported = errors.New("benchmark: failed")
