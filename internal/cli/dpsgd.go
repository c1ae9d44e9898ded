// Package cli implements the dpsgd, dpserve, dpcoord and dpworker
// commands' logic as a testable library: flag parsing, dataset
// selection, training and serving dispatch and report formatting,
// with all I/O injected.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"boltondp/internal/account"
	"boltondp/internal/account/compose"
	"boltondp/internal/baselines"
	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/eval"
	"boltondp/internal/loss"
	"boltondp/internal/online"
	"boltondp/internal/serve"
	"boltondp/internal/sgd"
	"boltondp/internal/store"
	"boltondp/internal/vec"
)

// DPSGDConfig is the parsed command line of cmd/dpsgd.
type DPSGDConfig struct {
	DataPath  string
	CachePath string
	ChunkRows int
	Sim       string
	Scale     float64
	Algo      string
	LossName  string
	Lambda    float64
	HuberH    float64
	Eps       float64
	Delta     float64
	Passes    int
	Batch     int
	Strategy  string
	Workers   int
	// Accounting is the privacy-composition rule the run's accountant
	// prices reservations under (-accounting simple|advanced|rdp).
	Accounting string
	// Clip and NoiseMult configure -strategy gradperturb: per-example
	// gradient clipping norm and the noise multiplier σ̃ (0 = solve the
	// smallest σ̃ that fits the budget).
	Clip      float64
	NoiseMult float64
	// KernelWorkers is the intra-batch parallelism degree of the SGD
	// kernel (-kernel-workers; 1 = sequential). Bit-identical output
	// for every value, so it composes with any -strategy.
	KernelWorkers int
	Seed          int64
	SavePath      string
	Publish       string
	Timeout       time.Duration
	// Ingest appends a LIBSVM file as a new segment to the -cache
	// segment directory (fail-closed integrity checks) and runs the
	// drift detector; with Online set, drift triggers a warm continual
	// retrain and a canary publish into the -publish registry.
	Ingest string
	Online bool
	// Windows is the continual-training window count: the accountant's
	// remaining budget is split N ways and each drift-triggered retrain
	// spends exactly one window.
	Windows int
	// CanaryPct is the traffic percentage a drift-triggered canary
	// model receives in the registry.
	CanaryPct int
	// DriftLabel and DriftMargin override the drift thresholds
	// (0 = package defaults).
	DriftLabel  float64
	DriftMargin float64
}

// ParseDPSGD parses args (excluding argv[0]) into a config.
func ParseDPSGD(args []string, stderr io.Writer) (*DPSGDConfig, error) {
	cfg := &DPSGDConfig{}
	fs := flag.NewFlagSet("dpsgd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.DataPath, "data", "", "LIBSVM training file (overrides -sim)")
	fs.StringVar(&cfg.CachePath, "cache", "", "on-disk columnar store: convert -data into this file once, then train out-of-core from it (reused if it already exists)")
	fs.IntVar(&cfg.ChunkRows, "chunk", 0, "rows per store chunk for the -cache conversion (0 = default)")
	fs.StringVar(&cfg.Sim, "sim", "protein", "built-in simulator: mnist|protein|covtype|higgs|kdd")
	fs.Float64Var(&cfg.Scale, "scale", 0.05, "simulator scale (1.0 = paper-sized)")
	fs.StringVar(&cfg.Algo, "algo", "ours", "ours|noiseless|scs13|bst14")
	fs.StringVar(&cfg.LossName, "loss", "logistic", "logistic|huber")
	fs.Float64Var(&cfg.Lambda, "lambda", 1e-3, "L2 regularization λ (0 = convex case)")
	fs.Float64Var(&cfg.HuberH, "huber-h", 0.1, "Huber smoothing width")
	fs.Float64Var(&cfg.Eps, "eps", 0.1, "privacy budget ε (with -delta > 0, the classical Gaussian σ of output perturbation is proven (ε,δ)-DP only for ε ≤ 1, and is not (ε,δ)-DP above ε ≈ 9 at δ = 1e-5)")
	fs.Float64Var(&cfg.Delta, "delta", 0, "privacy budget δ (0 = pure ε-DP)")
	fs.IntVar(&cfg.Passes, "passes", 10, "passes over the data (k)")
	fs.IntVar(&cfg.Batch, "batch", 50, "mini-batch size (b)")
	fs.StringVar(&cfg.Strategy, "strategy", "sequential", "execution strategy: sequential|sharded|streaming (streaming needs -passes 1), or gradperturb (per-step clipped-gradient noise instead of output perturbation; needs -delta > 0)")
	fs.IntVar(&cfg.Workers, "workers", 1, "shard count for -strategy sharded")
	fs.StringVar(&cfg.Accounting, "accounting", "", "privacy composition rule: simple|advanced|rdp (default simple; rdp for -strategy gradperturb)")
	fs.Float64Var(&cfg.Clip, "clip", 1, "per-example gradient clipping norm C for -strategy gradperturb")
	fs.Float64Var(&cfg.NoiseMult, "noise-multiplier", 0, "gradperturb noise multiplier σ̃ (0 = solve the smallest that fits the budget)")
	fs.IntVar(&cfg.KernelWorkers, "kernel-workers", 1, "intra-batch SGD parallelism (bit-identical to 1 at any value)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "random seed")
	fs.StringVar(&cfg.SavePath, "save", "", "write the trained model (JSON) to this path")
	fs.StringVar(&cfg.Publish, "publish", "", "publish the trained model into this registry directory (serve it with dpserve -models)")
	fs.DurationVar(&cfg.Timeout, "timeout", 0, "cancel training after this duration, e.g. 30s or 2m (0 = no limit)")
	fs.StringVar(&cfg.Ingest, "ingest", "", "append this LIBSVM file as a new segment to the -cache segment directory (fail-closed integrity checks) and report drift; with -online, drift triggers a warm continual retrain and canary publish")
	fs.BoolVar(&cfg.Online, "online", false, "continual training: a drifting -ingest segment spends one budget window on a warm-started retrain and stages a canary in the -publish registry")
	fs.IntVar(&cfg.Windows, "windows", 4, "continual budget windows for -online (the remaining privacy budget is split N ways)")
	fs.IntVar(&cfg.CanaryPct, "canary-pct", 10, "traffic percentage a drift-triggered canary model receives")
	fs.Float64Var(&cfg.DriftLabel, "drift-label", 0, "label-rate drift threshold (0 = default 0.2)")
	fs.Float64Var(&cfg.DriftMargin, "drift-margin", 0, "mean-margin drift threshold (0 = default 0.5)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if cfg.Timeout < 0 {
		return nil, fmt.Errorf("cli: -timeout must be >= 0, got %v", cfg.Timeout)
	}
	if cfg.KernelWorkers < 1 {
		return nil, fmt.Errorf("cli: -kernel-workers must be >= 1, got %d", cfg.KernelWorkers)
	}
	if cfg.ChunkRows < 0 {
		return nil, fmt.Errorf("cli: -chunk must be >= 0, got %d", cfg.ChunkRows)
	}
	if cfg.ChunkRows > 0 && cfg.CachePath == "" {
		return nil, fmt.Errorf("cli: -chunk only applies to the -cache conversion")
	}
	if cfg.CachePath != "" && cfg.DataPath == "" && cfg.Ingest == "" {
		return nil, fmt.Errorf("cli: -cache converts a -data file; give one")
	}
	if cfg.Ingest != "" && cfg.CachePath == "" {
		return nil, fmt.Errorf("cli: -ingest appends to a -cache segment directory; give one")
	}
	if cfg.Online && cfg.Ingest == "" {
		return nil, fmt.Errorf("cli: -online reacts to an ingested segment; give -ingest")
	}
	if cfg.Online && cfg.Publish == "" {
		return nil, fmt.Errorf("cli: -online retrains the live model of a -publish registry; give one")
	}
	if cfg.Windows < 1 {
		return nil, fmt.Errorf("cli: -windows must be >= 1, got %d", cfg.Windows)
	}
	if cfg.CanaryPct < 0 || cfg.CanaryPct > 100 {
		return nil, fmt.Errorf("cli: -canary-pct must be in [0,100], got %d", cfg.CanaryPct)
	}
	if cfg.DriftLabel < 0 || cfg.DriftMargin < 0 {
		return nil, fmt.Errorf("cli: drift thresholds must be >= 0")
	}
	if err := checkAccounting(cfg.Accounting); err != nil {
		return nil, err
	}
	if cfg.Strategy == "gradperturb" {
		if cfg.Algo != "ours" {
			return nil, fmt.Errorf("cli: -strategy gradperturb only applies to -algo ours, got %q", cfg.Algo)
		}
		if cfg.Delta <= 0 {
			return nil, fmt.Errorf("cli: -strategy gradperturb is a Gaussian mechanism; give -delta > 0")
		}
		if cfg.Workers > 1 {
			return nil, fmt.Errorf("cli: -strategy gradperturb is sequential-only; drop -workers")
		}
		if cfg.Clip <= 0 {
			return nil, fmt.Errorf("cli: -clip must be > 0, got %v", cfg.Clip)
		}
		if cfg.NoiseMult < 0 {
			return nil, fmt.Errorf("cli: -noise-multiplier must be >= 0, got %v", cfg.NoiseMult)
		}
	}
	return cfg, nil
}

// simGenerators maps -sim names to dataset simulators.
var simGenerators = map[string]func(*rand.Rand, float64) (*data.Dataset, *data.Dataset){
	"mnist":   data.MNISTSim,
	"protein": data.ProteinSim,
	"covtype": data.CovtypeSim,
	"higgs":   data.HIGGSSim,
	"kdd":     data.KDDSim,
}

// sparseDensityThreshold routes -data files through the CSR
// representation (and with it the engine's sparse kernel) when their
// density is below this fraction. LIBSVM is a sparse on-disk format,
// so the density is known before any dense row is materialized; above
// the threshold CSR indices cost more than they save.
const sparseDensityThreshold = 0.25

// RunDPSGDCtx executes a parsed config, writing the report to out. ctx
// (plus cfg.Timeout, when set) cancels the training run through the
// engine's per-update checks — the command exits within one epoch slice
// of a SIGINT or deadline instead of finishing the remaining passes.
func RunDPSGDCtx(ctx context.Context, cfg *DPSGDConfig, out io.Writer) error {
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	if cfg.Ingest != "" {
		return runIngest(ctx, cfg, out)
	}
	if cfg.Publish != "" {
		// Fail before training, not after: a rejected name would
		// otherwise discard the whole run at the publish step.
		if err := serve.ValidModelName(publishName(cfg)); err != nil {
			return err
		}
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	var train, test sgd.Samples
	classes := 2
	switch {
	case cfg.CachePath != "":
		// Out-of-core: convert the LIBSVM file into the columnar store
		// once (a single streaming parse pass — the same pass that
		// estimates the density), then train every strategy straight
		// from the store file. The dataset is never resident in RAM.
		rd, err := openOrConvertStore(ctx, cfg, out)
		if err != nil {
			return err
		}
		defer rd.Close()
		classes = rd.Classes()
		if classes == 0 {
			return fmt.Errorf("cli: %s holds too many distinct labels to classify", cfg.CachePath)
		}
		m := rd.Len()
		cut := int(float64(m) * 0.8)
		if cut < 1 || cut >= m {
			return fmt.Errorf("cli: %d rows is too few to split", m)
		}
		// Contiguous 80/20 split in store order: a bigger-than-memory
		// file cannot be shuffled in RAM (the in-memory path's Split
		// does), so the store keeps the file's row order and the split
		// is positional.
		train, test = rd.Shard(0, cut), rd.Shard(cut, m)
		fmt.Fprintf(out, "store: density %.4f — sparse execution kernel over on-disk chunks, split %d/%d in store order\n",
			rd.Density(), cut, m-cut)
	case cfg.DataPath != "":
		// Always parse into CSR first: the sparse loader never
		// materializes a dense row, so the density decides the
		// representation before any O(m·d) cost is paid.
		full, err := data.LoadLIBSVMSparse(cfg.DataPath, 0)
		if err != nil {
			return err
		}
		full.Normalize()
		classes = full.Classes
		if den := full.Density(); den < sparseDensityThreshold {
			fmt.Fprintf(out, "data: density %.4f < %.2f — using the sparse execution kernel\n",
				den, sparseDensityThreshold)
			train, test = full.Split(r, 0.8)
		} else {
			fmt.Fprintf(out, "data: density %.4f ≥ %.2f — materializing dense rows\n",
				den, sparseDensityThreshold)
			// Same Split randomness either way: the partition is
			// representation-independent.
			trainSp, testSp := full.Split(r, 0.8)
			train, test = trainSp.ToDense(), testSp.ToDense()
		}
	default:
		gen := simGenerators[cfg.Sim]
		if gen == nil {
			return fmt.Errorf("cli: unknown simulator %q", cfg.Sim)
		}
		trainDs, testDs := gen(r, cfg.Scale)
		classes = trainDs.Classes
		train, test = trainDs, testDs
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
	if cfg.Accounting == "" && cfg.Strategy == "gradperturb" {
		rule = compose.RuleRDP // the rule the strategy exists for
	}
	// gradperturb is not an engine strategy — it is the ours-algorithm
	// trainer that swaps output perturbation for per-step gradient noise
	// on the sequential engine.
	gradPerturb := cfg.Strategy == "gradperturb"
	strategyName := cfg.Strategy
	if gradPerturb {
		strategyName = "sequential"
	}
	strategy, err := engine.ParseStrategy(strategyName)
	if err != nil {
		return err
	}
	passes := cfg.Passes
	if strategy == engine.Streaming && passes != 1 {
		// The streaming engine is single-pass by construction; say so
		// instead of silently training a 1-pass model under a k-pass
		// flag (the library errors in the same case).
		fmt.Fprintf(out, "streaming is single-pass: overriding -passes %d with 1\n", passes)
		passes = 1
	}

	fmt.Fprintf(out, "train: m=%d d=%d  test: m=%d  loss=%s  algo=%s  budget=%v  strategy=%v workers=%d  accounting=%s\n",
		train.Len(), train.Dim(), test.Len(), f.Name(), cfg.Algo, budget, cfg.Strategy, cfg.Workers, rule)

	if (strategy != engine.Sequential || cfg.Workers > 1) && cfg.Algo != "ours" && cfg.Algo != "noiseless" {
		return fmt.Errorf("cli: algorithm %q is white-box and sequential-only; drop -strategy/-workers", cfg.Algo)
	}

	// Every private run draws from an accountant so the released model
	// carries an audited ledger (the -save/-publish metadata below).
	var acct *account.Accountant
	var w []float64
	switch cfg.Algo {
	case "ours":
		acct, err = account.NewWithRule(rule, budget)
		if err != nil {
			return err
		}
		opts := []core.Option{
			core.WithAccountant(acct),
			core.WithAccounting(rule),
			core.WithPasses(passes), core.WithBatch(cfg.Batch), core.WithRadius(radius),
			core.WithStrategy(strategy, cfg.Workers),
			core.WithKernelWorkers(cfg.KernelWorkers),
			core.WithRand(r),
		}
		if gradPerturb {
			opts = append(opts, core.WithGradPerturb(cfg.Clip, cfg.NoiseMult))
		}
		res, err := core.TrainCtx(ctx, train, f, opts...)
		if err != nil {
			return err
		}
		w = res.W
		fmt.Fprintf(out, "sensitivity Δ₂=%.6g  noise ‖κ‖=%.4g  updates=%d\n",
			res.Sensitivity, res.NoiseNorm, res.Updates)
	case "noiseless":
		res, err := baselines.Noiseless(train, f, baselines.Options{
			Passes: passes, Batch: cfg.Batch, Radius: radius,
			Strategy: strategy, Workers: cfg.Workers,
			KernelWorkers: cfg.KernelWorkers, Rand: r, Ctx: ctx,
		})
		if err != nil {
			return err
		}
		w = res.W
	case "scs13":
		acct, err = account.NewWithRule(rule, budget)
		if err != nil {
			return err
		}
		res, err := baselines.SCS13(train, f, baselines.Options{
			Budget: budget, Passes: cfg.Passes, Batch: cfg.Batch, Radius: radius,
			Rand: r, Ctx: ctx, Accountant: acct,
		})
		if err != nil {
			return err
		}
		w = res.W
		fmt.Fprintf(out, "per-batch noise draws: %d\n", res.NoiseDraws)
	case "bst14":
		if radius <= 0 {
			radius = 10
		}
		acct, err = account.NewWithRule(rule, budget)
		if err != nil {
			return err
		}
		res, err := baselines.BST14(train, f, baselines.Options{
			Budget: budget, Passes: cfg.Passes, Batch: cfg.Batch, Radius: radius,
			Rand: r, Ctx: ctx, Accountant: acct,
		})
		if err != nil {
			return err
		}
		w = res.W
		fmt.Fprintf(out, "per-batch noise draws: %d\n", res.NoiseDraws)
	default:
		return fmt.Errorf("cli: unknown algorithm %q", cfg.Algo)
	}

	model := &eval.Linear{W: w}
	fmt.Fprintf(out, "train accuracy: %.4f\n", eval.Accuracy(train, model))
	fmt.Fprintf(out, "test  accuracy: %.4f\n", eval.Accuracy(test, model))
	if acct != nil {
		sp := acct.Spent()
		fmt.Fprintf(out, "accounting: rule=%s  spent ε=%.6g δ=%g\n", acct.Rule(), sp.Epsilon, sp.Delta)
	}

	meta := map[string]string{
		"algorithm": cfg.Algo,
		"loss":      f.Name(),
		"epsilon":   fmt.Sprint(cfg.Eps),
		"delta":     fmt.Sprint(cfg.Delta),
		"passes":    fmt.Sprint(cfg.Passes),
		"batch":     fmt.Sprint(cfg.Batch),
	}
	if acct != nil {
		// The audited record of the spend travels with the model file;
		// /modelz serves it back verbatim.
		if err := acct.StampMeta(meta); err != nil {
			return err
		}
	}
	return release(out, model, meta, cfg.SavePath, cfg.Publish, publishName(cfg))
}

// publishName derives the registry name for a -publish run: the data
// file's stem, or the simulator name.
func publishName(cfg *DPSGDConfig) string {
	if cfg.DataPath == "" {
		return cfg.Sim
	}
	return modelStem(cfg.DataPath)
}

// lossFor builds the -loss/-lambda/-huber-h loss and the radius 1/λ of
// the ball the run projects onto (0, no projection, when λ = 0).
func lossFor(name string, lambda, huberH float64) (loss.Function, float64, error) {
	var f loss.Function
	switch name {
	case "logistic":
		f = loss.NewLogistic(lambda, 0)
	case "huber":
		f = loss.NewHuber(huberH, lambda, 0)
	default:
		return nil, 0, fmt.Errorf("cli: unknown loss %q", name)
	}
	radius := 0.0
	if lambda > 0 {
		radius = 1 / lambda
	}
	return f, radius, nil
}

// checkAccounting validates an -accounting value ("" keeps the default).
func checkAccounting(rule string) error {
	if rule == "" {
		return nil
	}
	if _, err := compose.New(compose.Normalize(rule)); err != nil {
		return fmt.Errorf("cli: -accounting must be one of %v, got %q", compose.Rules(), rule)
	}
	return nil
}

// release writes model to savePath and publishes it into the registry
// at publishDir under name, each only when its path is set, and reports
// both to out.
func release(out io.Writer, model *eval.Linear, meta map[string]string, savePath, publishDir, name string) error {
	if savePath != "" {
		if err := eval.SaveClassifier(savePath, model, meta); err != nil {
			return err
		}
		fmt.Fprintf(out, "model written to %s\n", savePath)
	}
	if publishDir == "" {
		return nil
	}
	// Train-and-publish: the model goes straight into a serving registry
	// (atomic write + hot-swap), carrying its privacy statement in the
	// metadata.
	reg, err := serve.NewRegistry(publishDir)
	if err != nil {
		return err
	}
	m, err := reg.Publish(name, model, meta)
	if err != nil {
		return err
	}
	// Publish only goes live into an empty registry (or when
	// republishing the live name) — promotion into a populated registry
	// is an explicit SetLive/canary step on the serving side, so the
	// message must not claim traffic it didn't take.
	if reg.Live() == m {
		fmt.Fprintf(out, "model published to %s as %q (live)\n", publishDir, name)
	} else {
		fmt.Fprintf(out, "model published to %s as %q (live is %q; promote with dpserve -live or a canary rollout)\n",
			publishDir, name, reg.Live().Name)
	}
	return nil
}

// runIngest implements dpsgd -ingest: append one LIBSVM file as a new
// segment of the -cache segment directory behind the store's
// fail-closed integrity gate. Without -online that is the whole job
// (plus a drift report is impossible — there is no live model to
// measure margins under); with -online the online.Runner closes the
// loop: drift past the thresholds spends one continual budget window
// on a warm-started retrain over the full union and stages the result
// as a canary in the -publish registry.
func runIngest(ctx context.Context, cfg *DPSGDConfig, out io.Writer) error {
	dir, err := store.OpenDir(cfg.CachePath)
	if err != nil {
		return fmt.Errorf("cli: -ingest needs an existing -cache segment directory (train with -cache first): %w", err)
	}
	defer dir.Close()

	src, err := data.LoadLIBSVMSparse(cfg.Ingest, dir.Dim())
	if err != nil {
		return err
	}
	// Same unit-ball normalization as every other entry path; labels
	// arrive through the loader already remapped to ±1, so the segment
	// writer must NOT remap again.
	src.Normalize()
	opt := store.Options{ChunkRows: cfg.ChunkRows}

	if !cfg.Online {
		seg, err := store.AppendSegment(dir.Path(), src, opt)
		if err != nil {
			return fmt.Errorf("cli: ingest rejected: %w", err)
		}
		if err := dir.Reload(); err != nil {
			return err
		}
		fmt.Fprintf(out, "ingest: segment %s appended (+%d rows, union m=%d d=%d density=%.4f, %d segments)\n",
			seg, src.Len(), dir.Len(), dir.Dim(), dir.Density(), len(dir.SegmentNames()))
		return nil
	}

	reg, err := serve.NewRegistry(cfg.Publish)
	if err != nil {
		return err
	}
	live := reg.Live()
	if live == nil {
		return fmt.Errorf("cli: -online needs a live model in %s (train with -publish first)", cfg.Publish)
	}

	// The continual budget resumes from the ledger stamped into the
	// live model when it records window spends — windows spent by an
	// earlier process stay spent, fail-closed. A live model whose
	// ledger only records its own (typically exhausting) initial
	// training spend, or none at all, starts the continual phase on a
	// fresh grant from -eps/-delta under the rdp rule by default (the
	// rule that prices a window sequence tightest).
	rule := compose.Normalize(cfg.Accounting)
	if cfg.Accounting == "" {
		rule = compose.RuleRDP
	}
	var acct *account.Accountant
	if l, ok, err := account.LedgerFromMeta(live.Meta); err != nil {
		return err
	} else if ok && core.ContinualWindowsSpent(l) > 0 {
		if acct, err = account.Restore(l); err != nil {
			return err
		}
		fmt.Fprintf(out, "online: resuming the live model's continual ledger (%d window spends recorded)\n",
			core.ContinualWindowsSpent(l))
	} else {
		if acct, err = account.NewWithRule(rule, dp.Budget{Epsilon: cfg.Eps, Delta: cfg.Delta}); err != nil {
			return err
		}
	}

	f, radius, err := lossFor(cfg.LossName, cfg.Lambda, cfg.HuberH)
	if err != nil {
		return err
	}
	trainer, err := core.NewContinualTrainer(acct, cfg.Windows, f,
		core.WithPasses(cfg.Passes), core.WithBatch(cfg.Batch), core.WithRadius(radius),
		core.WithKernelWorkers(cfg.KernelWorkers),
		core.WithRand(rand.New(rand.NewSource(cfg.Seed))),
	)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "online: continual budget %v over %d windows (%v each, rule=%s), %d/%d spent\n",
		acct.Total(), trainer.Windows(), trainer.WindowBudget(), acct.Rule(), trainer.Window(), trainer.Windows())

	run := &online.Runner{
		Dir:      dir,
		Registry: reg,
		Trainer:  trainer,
		Thresholds: online.Thresholds{
			LabelRate: cfg.DriftLabel,
			Margin:    cfg.DriftMargin,
		},
		CanaryPct: cfg.CanaryPct,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		},
	}
	rep, err := run.Ingest(ctx, src, opt)
	if rep != nil {
		fmt.Fprintf(out, "drift: segment %s  Δlabel=%.3f Δmargin=%.3f  fired=%v\n",
			rep.Segment, rep.LabelShift, rep.MarginShift, rep.Fired)
	}
	if err != nil {
		return err
	}
	if rep.Fired {
		if name, pct, _, _ := reg.Canary(); name != nil {
			fmt.Fprintf(out, "canary: %q staged at %d%% in %s (promote with dpserve -live %s or roll back by clearing the canary)\n",
				name.Name, pct, cfg.Publish, name.Name)
		}
	}
	return nil
}

// storeSource is the store-backed dataset surface RunDPSGDCtx trains
// from, satisfied by both the single-file store.Reader (legacy caches)
// and the segment-directory store.Dir. A one-segment directory is
// bit-identical to the single file for training purposes (pinned by
// the store parity tests), so which one backs -cache is invisible to
// everything downstream of this interface.
type storeSource interface {
	sgd.Samples
	engine.Sharder
	Classes() int
	Density() float64
	Close() error
}

// scanLIBSVMNormalized streams path row-by-row into emit, applying the
// same unit-ball normalization the in-memory path applies with
// Normalize(), and polling ctx once per stride of rows.
func scanLIBSVMNormalized(ctx context.Context, path string, emit func(x *vec.Sparse, y float64) error) error {
	const ctxStride = 4096 // poll cadence: one Err check per stride of rows
	n := 0
	return data.ScanLIBSVM(path, func(row *vec.Sparse, y float64) error {
		if n%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		n++
		if nrm := row.Norm(); nrm > 1 {
			row.Scale(1 / nrm)
		}
		return emit(row, y)
	})
}

// openOrConvertStore resolves the -cache flag. An existing regular
// file is a legacy single-file store and opens as before; everything
// else routes through the segment API: an existing directory is
// reused, and a fresh path converts the -data LIBSVM file into a
// one-segment directory in a single streaming pass (parse → normalize
// row → append; O(chunk) memory). The dataset is never resident in
// RAM either way.
func openOrConvertStore(ctx context.Context, cfg *DPSGDConfig, out io.Writer) (storeSource, error) {
	if fi, err := os.Stat(cfg.CachePath); err == nil {
		if !fi.IsDir() {
			rd, err := store.Open(cfg.CachePath)
			if err != nil {
				return nil, fmt.Errorf("cli: reusing -cache failed (delete it to reconvert): %w", err)
			}
			if cfg.ChunkRows > 0 && rd.ChunkRows() != cfg.ChunkRows {
				fmt.Fprintf(out, "store: -chunk %d ignored — %s was written with %d-row chunks (delete it to reconvert)\n",
					cfg.ChunkRows, cfg.CachePath, rd.ChunkRows())
			}
			fmt.Fprintf(out, "store: reusing %s (m=%d d=%d density=%.4f, %d chunks)\n",
				cfg.CachePath, rd.Len(), rd.Dim(), rd.Density(), rd.Chunks())
			return rd, nil
		}
		d, err := store.OpenDir(cfg.CachePath)
		if err != nil {
			return nil, fmt.Errorf("cli: reusing -cache failed (delete it to reconvert): %w", err)
		}
		fmt.Fprintf(out, "store: reusing %s (m=%d d=%d density=%.4f, %d segments)\n",
			cfg.CachePath, d.Len(), d.Dim(), d.Density(), len(d.SegmentNames()))
		return d, nil
	}

	start := time.Now()
	// RemapLabels01: this path writes raw, never-loaded labels, so the
	// loaders' {0,1} → ±1 convenience remap must be asked for here to
	// keep -cache and plain -data training equivalent.
	seg, err := store.AppendSegmentScan(cfg.CachePath, 0,
		store.Options{ChunkRows: cfg.ChunkRows, RemapLabels01: true},
		func(emit func(x *vec.Sparse, y float64) error) error {
			return scanLIBSVMNormalized(ctx, cfg.DataPath, emit)
		})
	if err != nil {
		return nil, err
	}
	d, err := store.OpenDir(cfg.CachePath)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "store: converted %s → %s in %v (segment %s: m=%d d=%d nnz=%d density=%.4f)\n",
		cfg.DataPath, cfg.CachePath, time.Since(start).Round(time.Millisecond),
		seg, d.Len(), d.Dim(), d.NNZ(), d.Density())
	return d, nil
}
