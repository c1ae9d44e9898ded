package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"boltondp/internal/account"
	"boltondp/internal/account/compose"
	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dist"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/eval"
	"boltondp/internal/serve"
	"boltondp/internal/sgd"
	"boltondp/internal/store"
)

// DPCoordConfig is the parsed command line of cmd/dpcoord.
type DPCoordConfig struct {
	Workers   []string // worker base URLs (-workers, comma-separated)
	StorePath string   // on-disk columnar store to train from (-store)
	Sim       string
	Scale     float64
	LossName  string
	Lambda    float64
	HuberH    float64
	Eps       float64
	Delta     float64
	Passes    int
	Batch     int
	Shards    int // 0 = one shard per worker
	// Accounting is the privacy-composition rule the run's accountant
	// prices reservations under (-accounting simple|advanced|rdp).
	Accounting string
	// KernelWorkers is the intra-batch parallelism degree each dist
	// worker applies inside its shard (-kernel-workers; 1 =
	// sequential). Bit-identical output for every value.
	KernelWorkers int
	Seed          int64
	Retries       int
	EpochTimeout  time.Duration
	SavePath      string
	Publish       string
	Timeout       time.Duration
}

// ParseDPCoord parses and validates args (excluding argv[0]).
func ParseDPCoord(args []string, stderr io.Writer) (*DPCoordConfig, error) {
	cfg := &DPCoordConfig{}
	var workers string
	fs := flag.NewFlagSet("dpcoord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&workers, "workers", "", "comma-separated worker base URLs, e.g. http://a:8090,http://b:8090 (required)")
	fs.StringVar(&cfg.StorePath, "store", "", "on-disk columnar store to train from (workers must see the same path; overrides -sim)")
	fs.StringVar(&cfg.Sim, "sim", "protein", "built-in simulator: mnist|protein|covtype|higgs|kdd (written to a temp store under $TMPDIR that workers must be able to open: a shared mount, or workers on loopback)")
	fs.Float64Var(&cfg.Scale, "scale", 0.05, "simulator scale (1.0 = paper-sized)")
	fs.StringVar(&cfg.LossName, "loss", "logistic", "logistic|huber")
	fs.Float64Var(&cfg.Lambda, "lambda", 1e-3, "L2 regularization λ (0 = convex case)")
	fs.Float64Var(&cfg.HuberH, "huber-h", 0.1, "Huber smoothing width")
	fs.Float64Var(&cfg.Eps, "eps", 0.1, "privacy budget ε (with -delta > 0, the classical Gaussian σ of output perturbation is proven (ε,δ)-DP only for ε ≤ 1, and is not (ε,δ)-DP above ε ≈ 9 at δ = 1e-5)")
	fs.Float64Var(&cfg.Delta, "delta", 0, "privacy budget δ (0 = pure ε-DP)")
	fs.IntVar(&cfg.Passes, "passes", 10, "passes over the data (k)")
	fs.IntVar(&cfg.Batch, "batch", 50, "mini-batch size (b)")
	fs.IntVar(&cfg.Shards, "shards", 0, "shard count P (0 = one per worker)")
	fs.StringVar(&cfg.Accounting, "accounting", "", "privacy composition rule: simple|advanced|rdp (default simple)")
	fs.IntVar(&cfg.KernelWorkers, "kernel-workers", 1, "per-worker intra-batch SGD parallelism (bit-identical to 1 at any value)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "random seed")
	fs.IntVar(&cfg.Retries, "retries", 2, "same-worker retries per request before reassigning the shard")
	fs.DurationVar(&cfg.EpochTimeout, "epoch-timeout", 0, "deadline per worker request, e.g. 30s (0 = no limit)")
	fs.StringVar(&cfg.SavePath, "save", "", "write the trained model (JSON) to this path")
	fs.StringVar(&cfg.Publish, "publish", "", "publish the trained model into this registry directory (serve it with dpserve -models)")
	fs.DurationVar(&cfg.Timeout, "timeout", 0, "cancel the whole run after this duration (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	for _, u := range strings.Split(workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			cfg.Workers = append(cfg.Workers, u)
		}
	}
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cli: -workers needs at least one worker URL (start them with dpworker)")
	}
	for _, w := range cfg.Workers {
		u, err := url.Parse(w)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cli: bad worker URL %q (want http://host:port)", w)
		}
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("cli: -shards must be >= 0, got %d", cfg.Shards)
	}
	if cfg.KernelWorkers < 1 {
		return nil, fmt.Errorf("cli: -kernel-workers must be >= 1, got %d", cfg.KernelWorkers)
	}
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("cli: -retries must be >= 0, got %d", cfg.Retries)
	}
	if cfg.EpochTimeout < 0 || cfg.Timeout < 0 {
		return nil, errors.New("cli: -epoch-timeout and -timeout must be >= 0")
	}
	if err := checkAccounting(cfg.Accounting); err != nil {
		return nil, err
	}
	return cfg, nil
}

// evalSet is one labeled sample set the final model is scored on.
type evalSet struct {
	tag     string
	samples sgd.Samples
}

// coordPublishName derives the registry name for a -publish run: the
// store file's stem, or the simulator name (mirrors dpsgd).
func coordPublishName(cfg *DPCoordConfig) string {
	if cfg.StorePath == "" {
		return cfg.Sim
	}
	return modelStem(cfg.StorePath)
}

// RunDPCoordCtx executes a parsed config, writing the report to out.
// Cancellation of ctx (plus cfg.Timeout, when set) aborts the epoch
// loop fail-closed — workers keep no authoritative state, so an aborted
// run releases nothing.
func RunDPCoordCtx(ctx context.Context, cfg *DPCoordConfig, out io.Writer) error {
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	if cfg.Publish != "" {
		// Fail before training, not after: a rejected name would
		// otherwise discard the whole distributed run at publish time.
		if err := serve.ValidModelName(coordPublishName(cfg)); err != nil {
			return err
		}
	}
	coord := dist.NewCoordinator(dist.CoordinatorConfig{
		Retries:      cfg.Retries,
		EpochTimeout: cfg.EpochTimeout,
	})
	for _, w := range cfg.Workers {
		if err := coord.Register(ctx, w); err != nil {
			return fmt.Errorf("cli: registering worker %s: %w", w, err)
		}
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = len(cfg.Workers)
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	// The workers open the same store file and train their chunk
	// ranges: -store names it; a simulator set is written to a temp
	// store first, removed when the run ends.
	path := cfg.StorePath
	var evalSets []evalSet
	if path == "" {
		gen := simGenerators[cfg.Sim]
		if gen == nil {
			return fmt.Errorf("cli: unknown simulator %q", cfg.Sim)
		}
		train, test := gen(r, cfg.Scale)
		dir, err := os.MkdirTemp("", "dpcoord-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		path = filepath.Join(dir, cfg.Sim+".bolt")
		if err := store.Write(path, data.FromDense(train), store.Options{Classes: train.Classes}); err != nil {
			return err
		}
		evalSets = append(evalSets, evalSet{"train", train}, evalSet{"test ", test})
	}
	rd, err := store.Open(path)
	if err != nil {
		return err
	}
	defer rd.Close()
	classes := rd.Classes()
	if classes == 0 {
		return fmt.Errorf("cli: %s holds too many distinct labels to classify", path)
	}
	src := dist.NewStoreSource(rd)
	if cfg.StorePath != "" {
		evalSets = append(evalSets, evalSet{"train", rd})
		fmt.Fprintf(out, "store: %s m=%d d=%d density=%.4f — workers train chunk ranges of the shared file\n",
			cfg.StorePath, rd.Len(), rd.Dim(), rd.Density())
	}
	if classes > 2 {
		return fmt.Errorf("cli: multiclass training is not supported here; see examples/multiclass")
	}

	f, radius, err := lossFor(cfg.LossName, cfg.Lambda, cfg.HuberH)
	if err != nil {
		return err
	}
	budget := dp.Budget{Epsilon: cfg.Eps, Delta: cfg.Delta}
	rule := compose.Normalize(cfg.Accounting)
	acct, err := account.NewWithRule(rule, budget)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "dpcoord: m=%d d=%d loss=%s budget=%v shards=%d over %d worker(s) %v\n",
		src.Rows(), src.Dim(), f.Name(), budget, shards, len(cfg.Workers), coord.Workers())

	res, err := core.TrainDistributed(ctx, coord, src, f,
		core.WithAccountant(acct), core.WithAccounting(rule),
		core.WithPasses(cfg.Passes), core.WithBatch(cfg.Batch), core.WithRadius(radius),
		core.WithStrategy(engine.Sharded, shards),
		core.WithKernelWorkers(cfg.KernelWorkers),
		core.WithRand(r))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sensitivity Δ₂=%.6g  noise ‖κ‖=%.4g  updates=%d\n",
		res.Sensitivity, res.NoiseNorm, res.Updates)

	model := &eval.Linear{W: res.W}
	for _, es := range evalSets {
		fmt.Fprintf(out, "%s accuracy: %.4f\n", es.tag, eval.Accuracy(es.samples, model))
	}
	sp := acct.Spent()
	fmt.Fprintf(out, "accounting: rule=%s  spent ε=%.6g δ=%g\n", acct.Rule(), sp.Epsilon, sp.Delta)

	meta := map[string]string{
		"algorithm": "ours-dist",
		"loss":      f.Name(),
		"epsilon":   fmt.Sprint(cfg.Eps),
		"delta":     fmt.Sprint(cfg.Delta),
		"passes":    fmt.Sprint(cfg.Passes),
		"batch":     fmt.Sprint(cfg.Batch),
		"shards":    fmt.Sprint(shards),
		"workers":   fmt.Sprint(len(cfg.Workers)),
	}
	// The audited spend travels with the model exactly as in the
	// single-process command; /modelz serves it back verbatim.
	if err := acct.StampMeta(meta); err != nil {
		return err
	}
	return release(out, model, meta, cfg.SavePath, cfg.Publish, coordPublishName(cfg))
}
