package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"boltondp/internal/eval"
	"boltondp/internal/serve"
)

// DPServeConfig is the parsed command line of cmd/dpserve.
type DPServeConfig struct {
	Addr      string
	ModelsDir string // registry directory (-models)
	ModelPath string // single model file (-model)
	Live      string // live version name inside -models
	Workers   int
	MaxBatch  int

	// Admission control (-max-inflight/-max-queue/-queue-timeout).
	MaxInflight  int
	MaxQueue     int
	QueueTimeout time.Duration

	// Watch (-watch/-watch-interval): poll the registry directory so a
	// replica fleet converges on publishes and live-swaps.
	Watch         bool
	WatchInterval time.Duration

	// Canary rollout (-canary/-canary-pct).
	Canary    string
	CanaryPct int
}

// ParseDPServe parses and validates args (excluding argv[0]).
func ParseDPServe(args []string, stderr io.Writer) (*DPServeConfig, error) {
	cfg := &DPServeConfig{}
	fs := flag.NewFlagSet("dpserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.Addr, "addr", ":8080", "listen address (host:port)")
	fs.StringVar(&cfg.ModelsDir, "models", "", "model registry directory (populate with dpsgd -publish)")
	fs.StringVar(&cfg.ModelPath, "model", "", "single model file (from dpsgd -save)")
	fs.StringVar(&cfg.Live, "live", "", "registry model to serve live (default: the only model)")
	fs.IntVar(&cfg.Workers, "workers", runtime.GOMAXPROCS(0), "goroutines scoring each batch request")
	fs.IntVar(&cfg.MaxBatch, "max-batch", 0, "max rows per batch request (0 = server default)")
	fs.IntVar(&cfg.MaxInflight, "max-inflight", 0, "max concurrent scoring requests (0 = unlimited; overflow queues, then sheds with 429)")
	fs.IntVar(&cfg.MaxQueue, "max-queue", 0, "max requests queued for a scoring slot (0 = same as -max-inflight)")
	fs.DurationVar(&cfg.QueueTimeout, "queue-timeout", 0, "max time a request may queue before shedding (0 = server default, 1s)")
	fs.BoolVar(&cfg.Watch, "watch", false, "poll -models for publishes and live-swaps from other processes")
	fs.DurationVar(&cfg.WatchInterval, "watch-interval", 0, "poll interval for -watch (0 = default, 2s)")
	fs.StringVar(&cfg.Canary, "canary", "", "registry model to canary: routes -canary-pct% of live batch rows to it")
	fs.IntVar(&cfg.CanaryPct, "canary-pct", 10, "percent of live batch rows routed to the -canary model (0-100)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, _, err := net.SplitHostPort(cfg.Addr); err != nil {
		return nil, fmt.Errorf("cli: bad -addr %q: %w", cfg.Addr, err)
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("cli: -workers must be >= 1, got %d", cfg.Workers)
	}
	if cfg.MaxBatch < 0 {
		return nil, fmt.Errorf("cli: -max-batch must be >= 0, got %d", cfg.MaxBatch)
	}
	if cfg.MaxInflight < 0 {
		return nil, fmt.Errorf("cli: -max-inflight must be >= 0, got %d", cfg.MaxInflight)
	}
	if cfg.MaxQueue < 0 || cfg.QueueTimeout < 0 {
		return nil, errors.New("cli: -max-queue and -queue-timeout must be >= 0")
	}
	if cfg.MaxInflight == 0 && (cfg.MaxQueue > 0 || cfg.QueueTimeout > 0) {
		return nil, errors.New("cli: -max-queue/-queue-timeout need -max-inflight to enable admission control")
	}
	if cfg.CanaryPct < 0 || cfg.CanaryPct > 100 {
		return nil, fmt.Errorf("cli: -canary-pct must be in [0,100], got %d", cfg.CanaryPct)
	}
	switch {
	case cfg.ModelsDir == "" && cfg.ModelPath == "":
		return nil, errors.New("cli: need a model source: -models DIR or -model FILE")
	case cfg.ModelsDir != "" && cfg.ModelPath != "":
		return nil, errors.New("cli: -models and -model are mutually exclusive")
	case cfg.ModelPath != "" && cfg.Live != "":
		return nil, errors.New("cli: -live selects inside a -models registry; it conflicts with -model")
	case cfg.ModelPath != "" && cfg.Watch:
		return nil, errors.New("cli: -watch polls a -models registry; it conflicts with -model")
	case cfg.ModelPath != "" && cfg.Canary != "":
		return nil, errors.New("cli: -canary selects inside a -models registry; it conflicts with -model")
	}
	return cfg, nil
}

// buildDPServe assembles the registry and prediction service for a
// validated config — the testable core of RunDPServeCtx, stopping just
// short of binding a socket.
func buildDPServe(cfg *DPServeConfig) (*serve.Registry, *serve.Server, error) {
	var reg *serve.Registry
	switch {
	case cfg.ModelsDir != "":
		var err error
		reg, err = serve.NewRegistry(cfg.ModelsDir)
		if err != nil {
			return nil, nil, err
		}
		if reg.Len() == 0 {
			return nil, nil, fmt.Errorf("cli: no models in %s (publish one with dpsgd -publish)", cfg.ModelsDir)
		}
		if cfg.Live != "" {
			if _, err := reg.SetLive(cfg.Live); err != nil {
				return nil, nil, err
			}
		}
		if reg.Live() == nil {
			return nil, nil, fmt.Errorf("cli: %s holds %d models; pick one with -live (have %v)",
				cfg.ModelsDir, reg.Len(), reg.Names())
		}
	default:
		c, meta, err := eval.LoadClassifier(cfg.ModelPath)
		if err != nil {
			return nil, nil, err
		}
		reg, err = serve.NewRegistry("")
		if err != nil {
			return nil, nil, err
		}
		if _, err := reg.Publish(modelStem(cfg.ModelPath), c, meta); err != nil {
			return nil, nil, err
		}
	}
	if cfg.Canary != "" {
		if err := reg.SetCanary(cfg.Canary, cfg.CanaryPct); err != nil {
			return nil, nil, err
		}
	}
	return reg, serve.New(reg, serve.Config{
		Workers:      cfg.Workers,
		MaxBatch:     cfg.MaxBatch,
		MaxInflight:  cfg.MaxInflight,
		MaxQueue:     cfg.MaxQueue,
		QueueTimeout: cfg.QueueTimeout,
	}), nil
}

// modelStem derives a registry model name from a file path: the base
// name without its extension. Shared by dpserve -model and dpsgd
// -publish so both sides name the same file identically.
func modelStem(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// RunDPServeCtx executes a parsed config: it builds the service, binds
// cfg.Addr, announces the bound address on out and serves until the
// listener fails or ctx is cancelled. When ctx is cancelled
// (SIGINT/SIGTERM in cmd/dpserve) the server shuts down gracefully —
// the listener closes, in-flight requests get a drain window, and the
// per-request contexts of any still-running batch scorings are
// cancelled so they release their workers immediately.
func RunDPServeCtx(ctx context.Context, cfg *DPServeConfig, out io.Writer) error {
	reg, srv, err := buildDPServe(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return fmt.Errorf("cli: %w", err)
	}
	live := reg.Live()
	fmt.Fprintf(out, "dpserve: %d model(s), live=%q (dim=%d classes=%d), workers=%d, listening on %s\n",
		reg.Len(), live.Name, live.Dim, live.Classes, cfg.Workers, ln.Addr())
	if cm, pct, _, _ := reg.Canary(); cm != nil {
		fmt.Fprintf(out, "dpserve: canary %q taking %d%% of live batch rows\n", cm.Name, pct)
	}
	if cfg.Watch {
		// The watcher shares the server's lifetime: ctx cancellation
		// stops it alongside the listener.
		go reg.WatchEvery(ctx, cfg.WatchInterval) //nolint:errcheck // only returns ctx.Err()
		every := cfg.WatchInterval
		if every <= 0 {
			every = serve.DefaultWatchInterval
		}
		fmt.Fprintf(out, "dpserve: watching %s every %v for publishes and live-swaps\n", cfg.ModelsDir, every)
	}
	return serveHTTP(ctx, ln, srv.Handler(), out, "dpserve")
}

// serveHTTP serves h on ln until the listener fails or ctx is
// cancelled, then shuts down gracefully: the listener closes, in-flight
// requests get a 5 s drain window, and their contexts, which inherit
// ctx, are cancelled with it. A shutdown that ctx triggered returns
// nil. name prefixes the shutdown line on out.
func serveHTTP(ctx context.Context, ln net.Listener, h http.Handler, out io.Writer, name string) error {
	hs := &http.Server{
		Handler: h,
		// A long-lived network process must survive slow or stalled
		// clients: without these, each slowloris-style connection pins
		// a goroutine and fd forever (MaxBytesReader only guards the
		// body once headers arrive).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
		// Request contexts inherit ctx, so shutdown (and anything else
		// that cancels ctx) propagates into in-flight requests.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	serveDone := make(chan struct{})
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		select {
		case <-ctx.Done():
			fmt.Fprintf(out, "%s: shutting down\n", name)
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			hs.Shutdown(sctx) //nolint:errcheck // best-effort drain; Serve's error is the report
		case <-serveDone:
		}
	}()
	err := hs.Serve(ln)
	close(serveDone)
	<-shutdownDone // a triggered Shutdown finishes draining before we return
	if errors.Is(err, http.ErrServerClosed) && ctx.Err() != nil {
		return nil
	}
	return err
}
