package bismarck

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"boltondp/internal/baselines"
	"boltondp/internal/dp"
	"boltondp/internal/loss"
	"boltondp/internal/rng"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

// driver is the front-end controller of Figure 1(A) (Bismarck's Python
// controller): it issues one aggregate "query" (a full table scan
// through the UDA) per epoch, feeds the previous epoch's model back via
// Initialize.
type driver struct {
	table  *Table
	agg    aggregate
	epochs int
}

// Run executes epochs scans and returns the final aggregate value and
// the number of epochs that completed.
func (d *driver) Run() (any, int, error) {
	if d.table == nil || d.agg == nil {
		return nil, 0, errors.New("bismarck: the driver needs a Table and an aggregate")
	}
	if d.epochs < 1 {
		return nil, 0, fmt.Errorf("bismarck: epochs = %d", d.epochs)
	}
	var prev any
	epochs := 0
	for e := 0; e < d.epochs; e++ {
		d.agg.Initialize(prev)
		if err := d.table.Scan(func(x []float64, y float64) error {
			d.agg.Transition(x, y)
			return nil
		}); err != nil {
			return nil, epochs, err
		}
		prev = d.agg.Terminate()
		epochs++
	}
	return prev, epochs, nil
}

// Algorithm selects which private SGD variant TrainUDA runs inside the
// UDA architecture.
type Algorithm int

const (
	// Noiseless is plain Bismarck SGD.
	Noiseless Algorithm = iota
	// OutputPerturb is the paper's bolt-on approach: unmodified UDA,
	// noise added once by the driver (integration point B).
	OutputPerturb
	// AlgSCS13 injects per-batch noise inside the transition function
	// (integration point C).
	AlgSCS13
	// AlgBST14 injects the extended-BST14 per-batch Gaussian noise
	// inside the transition function (integration point C).
	AlgBST14
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Noiseless:
		return "noiseless"
	case OutputPerturb:
		return "ours"
	case AlgSCS13:
		return "scs13"
	case AlgBST14:
		return "bst14"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// TrainConfig configures TrainUDA.
type TrainConfig struct {
	Algorithm Algorithm
	Budget    dp.Budget // ignored by Noiseless
	Passes    int       // epochs k (default 1)
	Batch     int       // mini-batch size b (default 1)
	Radius    float64   // projection radius (required for AlgBST14)
	// PaperBatchSensitivity mirrors core.WithPaperBatchSensitivity:
	// calibrate the strongly convex OutputPerturb noise to the paper's
	// 2L/(γmb) instead of the sound 2L/(γm). For reproducing the
	// paper's figures only.
	PaperBatchSensitivity bool
	// NoShuffle skips Figure 1's Shuffle step, which materializes the
	// table in random order first: the zero value shuffles. Tests set
	// it for determinism, and the runtime experiments to time the
	// epochs without the one-off shuffle.
	NoShuffle bool
	Rand      *rand.Rand
}

// TrainResult reports a TrainUDA run.
type TrainResult struct {
	W           []float64
	Epochs      int
	Updates     int
	NoiseDraws  int
	Sensitivity float64 // OutputPerturb only
	Stats       PoolStats
}

// TrainUDA trains a model over the table through the UDA architecture,
// reproducing the four integrations of Figure 1 and §4.2. It is the
// in-RDBMS counterpart of core.TrainCtx / the baselines package and the
// engine behind the runtime and scalability experiments (Figures 2
// and 5).
func TrainUDA(t *Table, f loss.Function, cfg TrainConfig) (*TrainResult, error) {
	if cfg.Rand == nil {
		return nil, errors.New("bismarck: TrainConfig.Rand is required")
	}
	if t.Len() == 0 {
		return nil, errors.New("bismarck: empty table")
	}
	if cfg.Passes < 0 {
		return nil, fmt.Errorf("bismarck: negative Passes (%d)", cfg.Passes)
	}
	if cfg.Batch < 0 {
		return nil, fmt.Errorf("bismarck: negative Batch (%d)", cfg.Batch)
	}
	if cfg.Passes == 0 {
		cfg.Passes = 1
	}
	if cfg.Batch == 0 {
		cfg.Batch = 1
	}
	if cfg.Algorithm != Noiseless {
		if err := cfg.Budget.Validate(); err != nil {
			return nil, err
		}
	}
	m := t.Len()
	d := t.Dim()
	p := f.Params()
	if cfg.Batch > m {
		cfg.Batch = m // mirror the engine's clamp for sensitivity
	}

	// Step sizes per Table 4.
	var step sgd.Schedule
	var sens float64
	switch cfg.Algorithm {
	case Noiseless:
		if p.StronglyConvex() {
			step = sgd.InvT(p.Gamma)
		} else {
			step = sgd.Constant(1 / math.Sqrt(float64(m)))
		}
	case OutputPerturb:
		if p.StronglyConvex() {
			step = sgd.StronglyConvexPaper(p.Beta, p.Gamma)
			if cfg.PaperBatchSensitivity {
				sens = dp.SensitivityStronglyConvexPaperBatch(p.L, p.Gamma, m, cfg.Batch)
			} else {
				sens = dp.SensitivityStronglyConvex(p.L, p.Gamma, m)
			}
		} else {
			eta := math.Min(1/math.Sqrt(float64(m)), 2/p.Beta)
			step = sgd.Constant(eta)
			sens = dp.SensitivityConvexConstant(p.L, eta, cfg.Passes, cfg.Batch)
		}
	case AlgSCS13, AlgBST14:
		step = sgd.InvSqrtT(1)
		if cfg.Algorithm == AlgBST14 {
			if cfg.Budget.Pure() {
				return nil, errors.New("bismarck: BST14 requires δ > 0")
			}
			if cfg.Radius <= 0 {
				return nil, errors.New("bismarck: BST14 requires a positive Radius")
			}
			if p.StronglyConvex() {
				step = sgd.InvT(p.Gamma)
			} else {
				_, sigma := baselines.BST14NoiseParams(cfg.Budget.Epsilon, cfg.Budget.Delta, cfg.Passes, m, cfg.Batch)
				g := math.Sqrt(float64(d)*sigma*sigma + float64(cfg.Batch*cfg.Batch)*p.L*p.L)
				step = bst14ConvexStep{r: cfg.Radius, g: g}
			}
		}
	default:
		return nil, fmt.Errorf("bismarck: unknown algorithm %v", cfg.Algorithm)
	}

	agg := newSGDAgg(d, f, step, cfg.Batch, cfg.Radius)
	agg.SetEpochRows(m)
	draws := 0
	noise := make([]float64, d)
	switch cfg.Algorithm {
	case AlgSCS13:
		perPass := cfg.Budget.Split(cfg.Passes)
		sensIter := 2 * p.L / float64(cfg.Batch)
		agg.noiseInject = func(tt int, grad []float64) {
			if perPass.Pure() {
				rng.GammaSphere(cfg.Rand, noise, sensIter, perPass.Epsilon)
			} else {
				sigma := rng.GaussianSigma(sensIter, perPass.Epsilon, perPass.Delta)
				rng.GaussianVec(cfg.Rand, noise, sigma)
			}
			draws++
			vec.Axpy(grad, 1, noise)
		}
	case AlgBST14:
		_, sigma := baselines.BST14NoiseParams(cfg.Budget.Epsilon, cfg.Budget.Delta, cfg.Passes, m, cfg.Batch)
		agg.noiseInject = func(tt int, grad []float64) {
			rng.GaussianVec(cfg.Rand, noise, sigma)
			draws++
			vec.Axpy(grad, 1, noise)
		}
	}

	if !cfg.NoShuffle {
		if err := t.Shuffle(cfg.Rand); err != nil {
			return nil, err
		}
	}

	drv := &driver{table: t, agg: agg, epochs: cfg.Passes}
	out, epochs, err := drv.Run()
	if err != nil {
		return nil, err
	}
	w := out.([]float64)

	// Integration point (B): the bolt-on noise — the only private step
	// our algorithm needs, roughly the "10 lines of Python" of §4.2.
	if cfg.Algorithm == OutputPerturb {
		w, err = cfg.Budget.Perturb(cfg.Rand, w, sens)
		if err != nil {
			return nil, err
		}
		draws++
	}

	return &TrainResult{
		W: w, Epochs: epochs, Updates: agg.Updates(),
		NoiseDraws: draws, Sensitivity: sens, Stats: t.Stats(),
	}, nil
}

// bst14ConvexStep is η_t = 2R/(G√t) (Algorithm 4, line 12).
type bst14ConvexStep struct{ r, g float64 }

func (s bst14ConvexStep) Name() string { return fmt.Sprintf("2R/(G√t), R=%g G=%g", s.r, s.g) }
func (s bst14ConvexStep) Eta(t int) float64 {
	return 2 * s.r / (s.g * math.Sqrt(float64(t)))
}
