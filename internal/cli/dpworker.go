package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

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
	hs := &http.Server{
		Handler: wk.Handler(),
		// Same slow-client hardening as dpserve: a training worker is
		// a long-lived network process and must survive stalled peers.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
	serveDone := make(chan struct{})
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		select {
		case <-ctx.Done():
			fmt.Fprintln(out, "dpworker: shutting down")
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			hs.Shutdown(sctx) //nolint:errcheck // best-effort drain; Serve's error is the report
		case <-serveDone:
		}
	}()
	err = hs.Serve(ln)
	close(serveDone)
	<-shutdownDone // a triggered Shutdown finishes draining before we return
	if errors.Is(err, http.ErrServerClosed) && ctx.Err() != nil {
		return nil
	}
	return err
}
