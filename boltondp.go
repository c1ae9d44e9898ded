// Package boltondp is a Go implementation of "Bolt-on Differential
// Privacy for Scalable Stochastic Gradient Descent-based Analytics"
// (Wu et al., SIGMOD 2017): differentially private permutation-based
// SGD via output perturbation, where a standard SGD run is treated as a
// black box and noise calibrated to a tight L2-sensitivity bound is
// added once, to the final model.
//
// The package is a thin facade over the implementation packages under
// internal/; it exposes everything a downstream user needs to train
// private linear models. The primary entry point is TrainCtx: a
// context-aware, functional-options trainer that draws its privacy
// budget from an Accountant — the single owner of a total (ε, δ)
// budget, which debits every training run in an auditable ledger and
// fails closed when a request would overdraw it:
//
//	acct, _ := boltondp.NewAccountant(boltondp.Budget{Epsilon: 0.1})
//	train, test := boltondp.ProteinSim(rand.New(rand.NewSource(1)), 1.0)
//	res, err := boltondp.TrainCtx(ctx, train, boltondp.NewLogisticLoss(1e-3),
//		boltondp.WithAccountant(acct), // or boltondp.WithBudget(...) stand-alone
//		boltondp.WithPasses(10), boltondp.WithBatch(50), boltondp.WithRadius(1000),
//		boltondp.WithRand(rand.New(rand.NewSource(2))))
//	// res.W is (ε = 0.1)-differentially private; acct.Ledger() is the
//	// audited record of the spend, and cancelling ctx stops the run
//	// within one epoch slice.
//
// Composite workflows — the one-vs-all multiclass build of §4.3, the
// private tuning of Algorithm 3 — split the accountant's budget with
// Accountant.Split, which enforces that the pieces sum to the stated
// guarantee; StampMeta serializes the ledger into model metadata so a
// published model carries its own privacy audit (round-tripped by the
// serving subsystem's /modelz endpoint).
//
// TrainCtx is the ONE training entry point: algorithm selection is an
// option (WithConvexity; the default picks Algorithm 2 for strongly
// convex losses and Algorithm 1 otherwise), as is the execution
// strategy (WithStrategy). There is no other way to train and no other
// way to configure a run than the With* options.
//
// Data can live out of core: OpenStoreDir / AppendStoreSegment manage
// an append-only segment directory (immutable store files behind a
// CRC'd manifest with fail-closed ingest integrity checks) that trains
// in O(chunk) memory, and NewContinualTrainer retrains over a growing
// directory under one fixed total budget, one audited window per
// retrain — the online ingestion loop cmd/dpsgd exposes as -ingest /
// -online.
//
// The white-box baselines the paper compares against (SCS13, BST14),
// the Bismarck-style in-RDBMS substrate, the private tuning algorithm
// and the full experiment harness are re-exported alongside. See
// DESIGN.md for the system inventory (§6 for budget accounting and
// cancellation) and EXPERIMENTS.md for the paper-vs-measured record.
package boltondp

import (
	"context"
	"math/rand"

	"boltondp/internal/account"
	"boltondp/internal/baselines"
	"boltondp/internal/bismarck"
	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/eval"
	"boltondp/internal/loss"
	"boltondp/internal/projection"
	"boltondp/internal/serve"
	"boltondp/internal/sgd"
	"boltondp/internal/store"
	"boltondp/internal/tuning"
)

// Core types, re-exported.
type (
	// Budget is an (ε, δ) differential-privacy budget; δ = 0 selects
	// pure ε-DP (Laplace-style noise), δ > 0 the Gaussian mechanism.
	Budget = dp.Budget
	// Samples is the read-only training-set view every trainer accepts.
	Samples = sgd.Samples
	// SparseSamples is the second tier of the data contract: sources
	// that hand out rows in sparse coordinate form. Trainers detect it
	// automatically and run the sparse-native kernel (O(nnz) per
	// example) whenever the loss supports it — implementing it is purely
	// an optimization, never a requirement.
	SparseSamples = sgd.SparseSamples
	// SparseDataset is a CSR-form labeled dataset implementing
	// SparseSamples — the right representation for one-hot-heavy and
	// text-like data.
	SparseDataset = data.SparseDataset
	// LossFunction is a convex per-example loss of a linear model with
	// its (L, β, γ) constants, in factored form g(⟨w,x⟩, y) + (λ/2)‖w‖².
	// A caller's loss implements five methods: Name, Params (L, β, γ),
	// Deriv (∂g/∂p at p = ⟨w,x⟩), EvalDot (g itself) and Reg (λ).
	LossFunction = loss.Function
	// TrainOption is a functional option for TrainCtx (WithBudget,
	// WithAccountant, WithStrategy, WithProgress, …).
	TrainOption = core.Option
	// TrainResult reports a private training run; only W is private.
	TrainResult = core.Result
	// TrainConvexity selects the algorithm TrainCtx runs (see
	// WithConvexity); the zero value picks from the loss's constants.
	TrainConvexity = core.Convexity
	// ContinualTrainer retrains over growing data under one fixed total
	// budget: the accountant's remainder is split into N windows up
	// front, every Retrain spends exactly one window warm-started from
	// the previous released model, and the (N+1)-th retrain fails
	// closed with ErrBudgetOverdraw before reading a single row.
	ContinualTrainer = core.ContinualTrainer
	// Accountant owns a total (ε, δ) privacy budget: every training run
	// that draws from it is debited in an auditable ledger, and a
	// request exceeding the remainder fails closed (ErrBudgetOverdraw)
	// before any training work.
	Accountant = account.Accountant
	// Ledger is the serializable accountant snapshot a released model
	// carries in its metadata (under LedgerMetaKey).
	Ledger = account.Ledger
	// BaselineOptions configures the comparison algorithms.
	BaselineOptions = baselines.Options
	// BaselineResult reports a baseline run.
	BaselineResult = baselines.Result
	// Dataset is an in-memory labeled dataset implementing Samples.
	Dataset = data.Dataset
	// Classifier predicts labels; see LinearClassifier and
	// OneVsAllClassifier.
	Classifier = eval.Classifier
	// LinearClassifier is sign(⟨w, x⟩).
	LinearClassifier = eval.Linear
	// OneVsAllClassifier is argmax_c ⟨w_c, x⟩.
	OneVsAllClassifier = eval.OneVsAll
	// TuningParams is a hyperparameter tuple (k, b, λ).
	TuningParams = tuning.Params
	// TuningResult reports a tuning run.
	TuningResult = tuning.Result
	// Projector is a Gaussian random projection for high-dimensional
	// data.
	Projector = projection.Projector
	// ExecutionStrategy selects how training runs execute (see
	// DESIGN.md §2): StrategySequential, StrategySharded or
	// StrategyStreaming, selected with WithStrategy.
	ExecutionStrategy = engine.Strategy
	// StoreReader is a random-access view of an on-disk columnar
	// dataset store (DESIGN.md §7). It implements Samples,
	// SparseSamples and the engine's sharding contract, so every
	// execution strategy trains straight from the file, holding one
	// chunk — not the dataset — in memory.
	StoreReader = store.Reader
	// StoreOptions configures store conversion (chunk geometry, class
	// count override).
	StoreOptions = store.Options
	// StoreDir is an append-only segment directory: immutable store
	// files behind a CRC'd manifest, trained as one logical dataset
	// (it implements Samples, SparseSamples and the sharding contract).
	// Grow it with AppendStoreSegment — ingest is fail-closed behind
	// dim / label-set / density invariants and full CRC verification.
	StoreDir = store.Dir
	// Table is the Bismarck-style page-organized table.
	Table = bismarck.Table
	// UDATrainConfig configures in-RDBMS training via the UDA
	// architecture.
	UDATrainConfig = bismarck.TrainConfig
	// UDATrainResult reports an in-RDBMS training run.
	UDATrainResult = bismarck.TrainResult
)

// Losses.

// NewLogisticLoss returns the (optionally L2-regularized) logistic loss
// of the paper's equation (1). For lambda > 0 the hypothesis radius
// defaults to 1/λ, the paper's convention.
func NewLogisticLoss(lambda float64) LossFunction { return loss.NewLogistic(lambda, 0) }

// NewHuberSVMLoss returns the smoothed hinge ("Huber SVM") loss with
// smoothing width h (the paper uses h = 0.1).
func NewHuberSVMLoss(h, lambda float64) LossFunction { return loss.NewHuber(h, lambda, 0) }

// Execution strategies for WithStrategy, re-exported from the execution
// engine (internal/engine).
const (
	// StrategySequential is the paper's Algorithms 1–2 verbatim: one
	// goroutine, one permutation (the default).
	StrategySequential = engine.Sequential
	// StrategySharded trains WithStrategy's worker count of disjoint
	// shards in parallel with per-epoch model averaging — the paper's
	// multicore bolt-on scheme. Noise is calibrated for the averaged model; for
	// strongly convex losses the bound equals the sequential one, so
	// parallelism is privacy-free.
	StrategySharded = engine.Sharded
	// StrategyStreaming trains in a single in-order pass with no
	// materialized permutation — the online scenario.
	StrategyStreaming = engine.Streaming
)

// Out-of-core dataset store (see DESIGN.md §7). A store file makes
// "the training set fits in RAM" a per-run choice: convert once with
// WriteStore, then train any strategy from OpenStore's reader. Training from a store is
// bit-identical to training from the source it was written from —
// sensitivity calibration never depends on the representation.

// OpenStore opens an on-disk columnar dataset store for training or
// scoring. The reader fails closed: any corruption (bad checksum,
// truncation, invalid CSR geometry) is an error, never silently wrong
// rows.
func OpenStore(path string) (*StoreReader, error) { return store.Open(path) }

// WriteStore converts any sparse-tier sample source into a store file
// in one sequential pass, preserving row order and exact value bits.
func WriteStore(path string, src SparseSamples, opt StoreOptions) error {
	return store.Write(path, src, opt)
}

// Segment directories (see DESIGN.md §12): the growing form of the
// store. New data arrives as whole immutable segments, visibility is a
// manifest commit, and training over the union is bit-identical to
// training over one concatenated file.

// OpenStoreDir opens a segment directory as one logical dataset. Like
// OpenStore it fails closed: a manifest/CRC mismatch or cross-segment
// disagreement (dim, label set) is an error, never silently wrong rows.
func OpenStoreDir(dir string) (*StoreDir, error) { return store.OpenDir(dir) }

// AppendStoreSegment appends src as a new immutable segment of dir
// (creating the directory on first use) and returns the segment's file
// name. The segment becomes visible only after it passes the
// fail-closed integrity gate — structural and payload CRCs plus the
// directory's dim / label-set / density invariants; on any failure the
// directory is exactly as before.
func AppendStoreSegment(dir string, src SparseSamples, opt StoreOptions) (string, error) {
	return store.AppendSegment(dir, src, opt)
}

// CompactStoreDir merges runs of adjacent segments smaller than
// minRows into consolidated segments, bit-identical for training (row
// order, value bits, and every strategy's output are pinned unchanged).
// It returns the segment counts before and after.
func CompactStoreDir(dir string, minRows int) (before, after int, err error) {
	return store.Compact(dir, minRows)
}

// Budget accounting (see DESIGN.md §6).

// ErrBudgetOverdraw is wrapped by every reservation an Accountant
// refuses because it would exceed the remaining budget; test with
// errors.Is. The refused computation never runs.
var ErrBudgetOverdraw = account.ErrOverdraw

// NewAccountant returns an accountant owning the given total budget.
// Draw training spends from it with WithAccountant, split it across
// composite workflows (one-vs-all classes, tuning candidates) with
// Accountant.Split, and stamp its ledger into released-model metadata
// with Accountant.StampMeta.
func NewAccountant(total Budget) (*Accountant, error) { return account.New(total) }

// RestoreAccountant rebuilds a live accountant from a ledger — the
// resume path for continual training across process restarts: read the
// published model's ledger with LedgerFromMeta, restore, and hand the
// result to NewContinualTrainer. The replay is fail-closed: a ledger
// whose recorded spends exceed its stated total, or whose arithmetic
// does not reproduce under its own composition rule, is rejected.
func RestoreAccountant(l *Ledger) (*Accountant, error) { return account.Restore(l) }

// LedgerFromMeta extracts the ledger a model-metadata map carries; ok
// is false when the model was not published through an accountant.
func LedgerFromMeta(meta map[string]string) (l *Ledger, ok bool, err error) {
	return account.LedgerFromMeta(meta)
}

// Training.

// TrainCtx is THE training entry point: bolt-on private PSGD
// (Algorithm 2 when the loss is strongly convex, Algorithm 1
// otherwise — override with WithConvexity), configured by functional
// options and cancellable through ctx — every execution strategy polls
// the context once per mini-batch update, so cancellation or deadline
// expiry stops the run within one epoch slice with ctx.Err().
//
// Everything else about a run — budget or accountant, passes, batch,
// radius, strategy — is a With* option; the zero configuration is one
// sequential pass at batch 1.
func TrainCtx(ctx context.Context, s Samples, f LossFunction, opts ...TrainOption) (*TrainResult, error) {
	return core.TrainCtx(ctx, s, f, opts...)
}

// Algorithm selectors for WithConvexity.
const (
	// ConvexityConvex forces Algorithm 1 (valid for every convex loss,
	// including strongly convex ones — the bound is just looser).
	ConvexityConvex = core.ConvexityConvex
	// ConvexityStronglyConvex forces Algorithm 2 (requires γ > 0;
	// training fails closed otherwise).
	ConvexityStronglyConvex = core.ConvexityStronglyConvex
)

// WithConvexity pins which of the paper's two algorithms TrainCtx
// runs, instead of deriving it from the loss's constants.
func WithConvexity(c TrainConvexity) TrainOption { return core.WithConvexity(c) }

// WithPaperBatchSensitivity calibrates Algorithm 2's noise to the
// paper's Δ₂ = 2L/(γmb) instead of the sound b-independent 2L/(γm) —
// a bound that brute-force neighbouring-dataset runs violate at b > 1.
// For reproducing the paper's reported figures only; do not rely on it
// for real privacy.
func WithPaperBatchSensitivity() TrainOption { return core.WithPaperBatchSensitivity() }

// WithBudget sets the privacy budget the released model is calibrated
// to. Combined with WithAccountant the budget is reserved (fail-closed)
// against the accountant before training.
func WithBudget(b Budget) TrainOption { return core.WithBudget(b) }

// WithAccountant attaches the privacy-budget accountant the run draws
// from; without WithBudget the entire remaining budget is drawn.
func WithAccountant(a *Accountant) TrainOption { return core.WithAccountant(a) }

// WithSpendLabel names the run's entry in the accountant's ledger
// (default "train(<loss name>)").
func WithSpendLabel(label string) TrainOption { return core.WithSpendLabel(label) }

// WithPasses sets k, the number of passes over the data.
func WithPasses(k int) TrainOption { return core.WithPasses(k) }

// WithBatch sets the mini-batch size b.
func WithBatch(b int) TrainOption { return core.WithBatch(b) }

// WithRadius constrains the hypothesis space to the L2 ball of radius
// r (the paper uses R = 1/λ for strongly convex losses).
func WithRadius(r float64) TrainOption { return core.WithRadius(r) }

// WithStrategy selects the execution strategy and its worker count
// (workers only matters for StrategySharded).
func WithStrategy(s ExecutionStrategy, workers int) TrainOption {
	return core.WithStrategy(s, workers)
}

// WithRand sets the randomness source for permutations, worker seeds
// and the privacy noise.
func WithRand(r *rand.Rand) TrainOption { return core.WithRand(r) }

// WithProgress installs a per-epoch observability hook: fn receives
// the 1-based epoch number and the empirical risk of the current
// pre-noise iterate. The risk values are NOT private — log them on the
// trusted side only, never release them under the run's budget.
func WithProgress(fn func(epoch int, risk float64)) TrainOption { return core.WithProgress(fn) }

// Continual training (see DESIGN.md §12).

// NewContinualTrainer builds a continual trainer drawing windows equal
// shares of acct's current remainder; base options apply to every
// window's run (budget, accountant, spend label and warm start are
// managed by the trainer and always win). An accountant restored from
// a ledger already carrying window spends resumes the sequence instead
// of re-splitting.
func NewContinualTrainer(acct *Accountant, windows int, f LossFunction, base ...TrainOption) (*ContinualTrainer, error) {
	return core.NewContinualTrainer(acct, windows, f, base...)
}

// NewContinualRDP is NewContinualTrainer over a fresh accountant under
// the "rdp" composition rule owning total — the default configuration of the online
// retraining loop (the rdp rule prices a window sequence tightest).
func NewContinualRDP(total Budget, windows int, f LossFunction, base ...TrainOption) (*ContinualTrainer, error) {
	return core.NewContinualRDP(total, windows, f, base...)
}

// Baselines.

// NoiselessSGD runs plain permutation-based SGD (no privacy).
func NoiselessSGD(s Samples, f LossFunction, opt BaselineOptions) (*BaselineResult, error) {
	return baselines.Noiseless(s, f, opt)
}

// SCS13 runs the per-iteration-noise baseline of Song, Chaudhuri and
// Sarwate (2013).
func SCS13(s Samples, f LossFunction, opt BaselineOptions) (*BaselineResult, error) {
	return baselines.SCS13(s, f, opt)
}

// BST14 runs the paper's constant-epoch extension of Bassily, Smith
// and Thakurta (2014). Requires δ > 0 and a positive Radius.
func BST14(s Samples, f LossFunction, opt BaselineOptions) (*BaselineResult, error) {
	return baselines.BST14(s, f, opt)
}

// Evaluation.

// Accuracy returns the fraction of s that c classifies correctly.
func Accuracy(s Samples, c Classifier) float64 { return eval.Accuracy(s, c) }

// TrainOneVsAllCtx builds a multiclass model from per-class binary
// trainers; callers should split the privacy budget across classes —
// preferably with Accountant.Split (enforced), or with Budget.Split
// (caller-trusted). ctx is checked before each per-class run (and
// inside each run when the trainer uses TrainCtx with the same ctx).
func TrainOneVsAllCtx(ctx context.Context, s Samples, classes int, train eval.BinaryTrainer) (*OneVsAllClassifier, error) {
	return eval.TrainOneVsAllCtx(ctx, s, classes, train)
}

// SaveClassifier writes a trained classifier to path as JSON; pass
// metadata (ε, δ, loss, sensitivity) so the model file carries its own
// privacy statement.
func SaveClassifier(path string, c Classifier, meta map[string]string) error {
	return eval.SaveClassifier(path, c, meta)
}

// LoadClassifier reads a classifier written by SaveClassifier.
func LoadClassifier(path string) (Classifier, map[string]string, error) {
	return eval.LoadClassifier(path)
}

// Serving (see DESIGN.md §5).

type (
	// ModelRegistry holds named trained-model versions persisted via
	// SaveClassifier's format, with an atomically hot-swappable live
	// model — the deployment artifact the paper trains in-RDBMS to
	// produce.
	ModelRegistry = serve.Registry
	// ModelServer is the HTTP prediction service over a registry:
	// POST /predict, POST /predict/batch (one columnar CSR batch,
	// "indptr"/"idx"/"val", scored at O(rows·classes·nnz)),
	// GET /healthz, GET /modelz.
	ModelServer = serve.Server
	// ServeOptions tunes the prediction service (batch-scoring
	// workers, batch and body caps).
	ServeOptions = serve.Config
	// ServeRow is the wire form of one example: dense "x" or sparse
	// coordinate "idx"/"val".
	ServeRow = serve.Row
)

// NewModelRegistry opens (or creates) the model registry rooted at
// dir, loading every model already published into it; dir == "" gives
// an in-memory registry. Train-and-publish in three lines:
//
//	res, _ := boltondp.TrainCtx(ctx, train, f, opts...)
//	reg, _ := boltondp.NewModelRegistry("registry")
//	reg.Publish("fraud", &boltondp.LinearClassifier{W: res.W}, meta)
//
// and serve it with NewModelServer (or cmd/dpserve).
func NewModelRegistry(dir string) (*ModelRegistry, error) { return serve.NewRegistry(dir) }

// NewModelServer builds the HTTP prediction service over a registry;
// mount NewModelServer(reg, opt).Handler() on any http server.
func NewModelServer(reg *ModelRegistry, opt ServeOptions) *ModelServer { return serve.New(reg, opt) }

// Tuning.

// PaperTuningGrid is the §4.3 grid: k ∈ {5, 10}, b = 50,
// λ ∈ {1e-4, 1e-3, 1e-2}.
func PaperTuningGrid() []TuningParams { return tuning.PaperGrid() }

// PrivateTuneCtx is the private hyperparameter tuner (Algorithm 3). ctx
// is checked before each candidate's training run, and when acct is
// non-nil the tuner's own spend — the ε of the exponential-mechanism
// pick — is reserved against it (fail-closed) before any work. Pass a
// TrainFunc that hands the same ctx to TrainCtx to make the candidate
// runs themselves cancellable too.
func PrivateTuneCtx(ctx context.Context, d *Dataset, grid []TuningParams, budget Budget, acct *Accountant, train tuning.TrainFunc, r *rand.Rand) (*TuningResult, error) {
	return tuning.PrivateCtx(ctx, d, grid, budget, acct, train, r)
}

// PublicTune tunes against a public validation set (§4.1).
func PublicTune(train, public *Dataset, grid []TuningParams, fit tuning.TrainFunc) (*TuningResult, error) {
	return tuning.Public(train, public, grid, fit)
}

// Data.

// LoadLIBSVM reads a LIBSVM/SVMlight format file.
func LoadLIBSVM(path string, dim int) (*Dataset, error) { return data.LoadLIBSVM(path, dim) }

// KDDSimSparse generates the KDDCup-99 simulation in its natural
// one-hot sparse encoding (~10% density, d = 122); see DESIGN.md §4.
func KDDSimSparse(r *rand.Rand, scale float64) (train, test *SparseDataset) {
	return data.KDDSimSparse(r, scale)
}

// MNISTSim, ProteinSim, CovtypeSim, HIGGSSim and KDDSim generate the
// paper's benchmark datasets (simulated; see DESIGN.md §4) at the given
// scale (1.0 = the paper's full size).
func MNISTSim(r *rand.Rand, scale float64) (train, test *Dataset)   { return data.MNISTSim(r, scale) }
func ProteinSim(r *rand.Rand, scale float64) (train, test *Dataset) { return data.ProteinSim(r, scale) }
func CovtypeSim(r *rand.Rand, scale float64) (train, test *Dataset) { return data.CovtypeSim(r, scale) }
func HIGGSSim(r *rand.Rand, scale float64) (train, test *Dataset)   { return data.HIGGSSim(r, scale) }
func KDDSim(r *rand.Rand, scale float64) (train, test *Dataset)     { return data.KDDSim(r, scale) }

// NewProjection samples a Gaussian random projection from dimension d
// down to p (the paper projects MNIST 784 → 50).
func NewProjection(r *rand.Rand, d, p int) *Projector { return projection.New(r, d, p) }

// In-RDBMS (Bismarck-style) substrate.

// NewMemTable creates an in-memory page-organized table.
func NewMemTable(name string, d int) *Table { return bismarck.NewMemTable(name, d) }

// CreateDiskTable creates a file-backed table whose buffer pool holds
// poolPages pages; pools smaller than the table force real file I/O.
func CreateDiskTable(path string, d, poolPages int) (*Table, error) {
	return bismarck.CreateDiskTable(path, d, poolPages)
}

// TrainInRDBMS trains through the UDA architecture (Figure 1),
// supporting all four integrations: bismarck.Noiseless,
// bismarck.OutputPerturb, bismarck.AlgSCS13 and bismarck.AlgBST14.
func TrainInRDBMS(t *Table, f LossFunction, cfg UDATrainConfig) (*UDATrainResult, error) {
	return bismarck.TrainUDA(t, f, cfg)
}

// Algorithm selectors for UDATrainConfig, re-exported.
const (
	UDANoiseless     = bismarck.Noiseless
	UDAOutputPerturb = bismarck.OutputPerturb
	UDASCS13         = bismarck.AlgSCS13
	UDABST14         = bismarck.AlgBST14
)
