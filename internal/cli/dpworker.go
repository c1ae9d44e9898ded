package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"

	"boltondp/internal/dist"
)

// DPWorkerConfig is the parsed command line of cmd/dpworker.
type DPWorkerConfig struct {
	Addr string
}

// ParseDPWorker parses and validates args (excluding argv[0]).
func ParseDPWorker(args []string, stderr io.Writer) (*DPWorkerConfig, error) {
	cfg := &DPWorkerConfig{}
	fs := flag.NewFlagSet("dpworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.Addr, "addr", ":8090", "listen address (host:port)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, _, err := net.SplitHostPort(cfg.Addr); err != nil {
		return nil, fmt.Errorf("cli: bad -addr %q: %w", cfg.Addr, err)
	}
	return cfg, nil
}

// RunDPWorkerCtx executes a parsed config: it binds cfg.Addr, announces
// the bound address on out and serves shard-training requests until
// the listener fails or ctx is cancelled. When ctx is cancelled
// (SIGINT/SIGTERM in cmd/dpworker) the worker shuts down gracefully —
// the listener closes, in-flight epoch requests get a drain window,
// and every installed shard's store reader is closed on the way out.
func RunDPWorkerCtx(ctx context.Context, cfg *DPWorkerConfig, out io.Writer) error {
	wk := dist.NewWorker()
	defer wk.Close()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return fmt.Errorf("cli: %w", err)
	}
	fmt.Fprintf(out, "dpworker: protocol v%d, listening on %s\n", dist.ProtocolVersion, ln.Addr())
	return serveHTTP(ctx, ln, wk.Handler(), out, "dpworker")
}
