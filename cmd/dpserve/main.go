// Command dpserve serves trained models over HTTP: single-row and
// batch prediction against a hot-swappable model registry, with the
// production plumbing a replica fleet needs — metrics, admission
// control, registry watching, and canary rollouts.
//
// Usage:
//
//	dpserve -models ./registry                 # serve a dpsgd -publish registry
//	dpserve -models ./registry -live protein   # pick among several versions
//	dpserve -model model.json -addr :9090      # serve one dpsgd -save file
//	dpserve -models ./registry -watch          # follow publishes/swaps from other processes
//	dpserve -models ./registry -live v1 -canary v2 -canary-pct 10
//	dpserve -models ./registry -max-inflight 32 -max-queue 64 -queue-timeout 500ms
//
// Endpoints: POST /predict (one row, dense "x" or sparse "idx"/"val"),
// POST /predict/batch (amortized scoring of one columnar CSR batch,
// "indptr"/"idx"/"val"; its rows go through the O(rows·classes·nnz)
// sparse tier), GET /healthz (reports shed-state),
// GET /modelz (which includes each model's privacy-budget ledger when
// it was published through an accountant, and the active canary), and
// GET /metrics (Prometheus text exposition).
//
// With -max-inflight set, scoring requests beyond the slot and queue
// limits are shed fast with 429 + Retry-After. With -watch, N dpserve
// replicas over one shared -models directory converge on publishes and
// live-swaps without restart. With -canary, the named version takes
// -canary-pct percent of live batch rows (deterministic row hash) and
// is rolled back automatically if its error rate regresses.
//
// SIGINT/SIGTERM shuts the server down gracefully: the listener
// closes, in-flight requests drain, and running batch scorings are
// cancelled through their request contexts. See internal/serve for the
// subsystem and DESIGN.md §5–6 and §10 for its invariants.
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
	cfg, err := cli.ParseDPServe(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpserve: %v\n", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := cli.RunDPServeCtx(ctx, cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "dpserve: %v\n", err)
		os.Exit(1)
	}
}
