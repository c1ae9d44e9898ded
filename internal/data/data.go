// Package data provides the training data substrate: an in-memory
// Dataset type implementing sgd.Samples, synthetic generators standing
// in for the paper's benchmark datasets (Table 3 plus Appendix C), a
// LIBSVM-format reader so real datasets can be swapped in, and
// the unit-ball normalization preprocessing the sensitivity analysis
// assumes (§2).
//
// The real MNIST/Protein/Covertype/HIGGS/KDDCup-99 files cannot ship
// with an offline module, so each simulator reproduces the properties
// the algorithms are sensitive to — training-set size m, dimension d,
// class count, and separability (Bayes error) — with Gaussian class
// clusters on the unit sphere. DESIGN.md §4 documents the substitution
// argument per dataset.
package data

import (
	"fmt"
	"math/rand"

	"boltondp/internal/vec"
)

// Dataset is an in-memory labeled dataset. For binary tasks labels are
// ±1; for multiclass tasks labels are class indices 0..Classes-1 stored
// as float64 (use eval.OneVsAll to train binary sub-models).
type Dataset struct {
	Name    string
	X       [][]float64
	Y       []float64
	Classes int // 2 for binary
}

// Len implements sgd.Samples.
func (d *Dataset) Len() int { return len(d.X) }

// Dim implements sgd.Samples.
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// At implements sgd.Samples.
func (d *Dataset) At(i int) ([]float64, float64) { return d.X[i], d.Y[i] }

// Touch is the epoch loops' look-ahead hint (sgd's Touch contract).
func (d *Dataset) Touch(i int) float64 { return d.Y[i] + vec.Touch(d.X[i]) }

// Normalize rescales every row to the unit ball in place (no-op for
// rows already inside), establishing the ‖x‖ ≤ 1 invariant.
func (d *Dataset) Normalize() {
	for _, x := range d.X {
		if n := vec.Norm(x); n > 1 {
			vec.Scale(x, 1/n)
		}
	}
}

// MaxNorm returns the largest row norm (≤ 1 after Normalize).
func (d *Dataset) MaxNorm() float64 {
	var m float64
	for _, x := range d.X {
		if n := vec.Norm(x); n > m {
			m = n
		}
	}
	return m
}

// Split partitions the dataset into a training set of the given
// fraction and a test set of the remainder, after a random shuffle.
func (d *Dataset) Split(r *rand.Rand, trainFrac float64) (train, test *Dataset) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("data: trainFrac must be in (0,1), got %v", trainFrac))
	}
	perm := r.Perm(len(d.X))
	cut := int(float64(len(d.X)) * trainFrac)
	mk := func(idx []int, suffix string) *Dataset {
		out := &Dataset{Name: d.Name + suffix, Classes: d.Classes}
		out.X = make([][]float64, len(idx))
		out.Y = make([]float64, len(idx))
		for i, j := range idx {
			out.X[i] = d.X[j]
			out.Y[i] = d.Y[j]
		}
		return out
	}
	return mk(perm[:cut], "-train"), mk(perm[cut:], "-test")
}

// Portions divides the dataset into n (nearly) equal disjoint portions
// — the l+1-way split of the private tuning Algorithm 3, line 2.
func (d *Dataset) Portions(r *rand.Rand, n int) []*Dataset {
	if n < 1 || n > len(d.X) {
		panic(fmt.Sprintf("data: cannot split %d rows into %d portions", len(d.X), n))
	}
	perm := r.Perm(len(d.X))
	out := make([]*Dataset, n)
	size := len(d.X) / n
	for p := 0; p < n; p++ {
		lo := p * size
		hi := lo + size
		if p == n-1 {
			hi = len(d.X)
		}
		ds := &Dataset{Name: fmt.Sprintf("%s-part%d", d.Name, p), Classes: d.Classes}
		for _, j := range perm[lo:hi] {
			ds.X = append(ds.X, d.X[j])
			ds.Y = append(ds.Y, d.Y[j])
		}
		out[p] = ds
	}
	return out
}

// GenConfig parameterizes the synthetic cluster generator.
type GenConfig struct {
	Name    string
	M       int     // number of examples
	D       int     // dimension
	Classes int     // ≥ 2
	Spread  float64 // cluster standard deviation (controls separability)
	Flip    float64 // label noise probability (controls Bayes error)
}

// Synthetic generates M examples from Classes Gaussian clusters whose
// centers are drawn uniformly on the unit sphere, normalizes rows to
// the unit ball and flips each label with probability Flip. For binary
// problems (Classes == 2) labels are ±1; otherwise class indices.
func Synthetic(r *rand.Rand, cfg GenConfig) *Dataset {
	if cfg.M < 1 || cfg.D < 1 || cfg.Classes < 2 {
		panic(fmt.Sprintf("data: bad GenConfig %+v", cfg))
	}
	centers := make([][]float64, cfg.Classes)
	for c := range centers {
		centers[c] = make([]float64, cfg.D)
		for j := range centers[c] {
			centers[c][j] = r.NormFloat64()
		}
		vec.Normalize(centers[c])
	}
	d := &Dataset{Name: cfg.Name, Classes: cfg.Classes}
	d.X = make([][]float64, cfg.M)
	d.Y = make([]float64, cfg.M)
	for i := 0; i < cfg.M; i++ {
		c := r.Intn(cfg.Classes)
		x := make([]float64, cfg.D)
		for j := range x {
			x[j] = centers[c][j] + r.NormFloat64()*cfg.Spread
		}
		if n := vec.Norm(x); n > 1 {
			vec.Scale(x, 1/n)
		}
		d.X[i] = x
		label := c
		if cfg.Flip > 0 && r.Float64() < cfg.Flip {
			label = r.Intn(cfg.Classes)
		}
		if cfg.Classes == 2 {
			d.Y[i] = float64(2*label - 1) // 0,1 → -1,+1
		} else {
			d.Y[i] = float64(label)
		}
	}
	return d
}

// scaled returns max(int(x*scale), min).
func scaled(x int, scale float64, min int) int {
	m := int(float64(x) * scale)
	if m < min {
		m = min
	}
	return m
}

// MNISTSim simulates the MNIST task of Table 3: 10 classes in 784
// dimensions, 60,000 train / 10,000 test examples at scale 1. Feature
// vectors live on the unit sphere; use projection.New to reduce to 50
// dimensions exactly as §4.3 does before private training.
func MNISTSim(r *rand.Rand, scale float64) (train, test *Dataset) {
	full := Synthetic(r, GenConfig{
		Name: "mnist-sim", M: scaled(70000, scale, 700), D: 784, Classes: 10,
		Spread: 0.075, Flip: 0.02,
	})
	n := full.Len()
	cut := n * 6 / 7 // 60k/10k ratio
	train = &Dataset{Name: "mnist-sim-train", Classes: 10, X: full.X[:cut], Y: full.Y[:cut]}
	test = &Dataset{Name: "mnist-sim-test", Classes: 10, X: full.X[cut:], Y: full.Y[cut:]}
	return train, test
}

// ProteinSim simulates the Protein dataset: binary, 74 dimensions,
// 72,876 train / 72,875 test at scale 1 (the paper halves the original
// training file). Logistic regression fits it well (§4.5), so the
// simulator is well-separated with mild label noise.
func ProteinSim(r *rand.Rand, scale float64) (train, test *Dataset) {
	full := Synthetic(r, GenConfig{
		Name: "protein-sim", M: scaled(145751, scale, 200), D: 74, Classes: 2,
		Spread: 0.45, Flip: 0.03,
	})
	n := full.Len()
	cut := n / 2
	train = &Dataset{Name: "protein-sim-train", Classes: 2, X: full.X[:cut], Y: full.Y[:cut]}
	test = &Dataset{Name: "protein-sim-test", Classes: 2, X: full.X[cut:], Y: full.Y[cut:]}
	return train, test
}

// CovtypeSim simulates Forest Covertype (binarized): 54 dimensions,
// 498,010 train / 83,002 test at scale 1. Moderately hard: the paper's
// noiseless accuracy sits near 0.75.
func CovtypeSim(r *rand.Rand, scale float64) (train, test *Dataset) {
	full := Synthetic(r, GenConfig{
		Name: "covtype-sim", M: scaled(581012, scale, 600), D: 54, Classes: 2,
		Spread: 0.95, Flip: 0.08,
	})
	n := full.Len()
	cut := n * 857 / 1000 // 498010/581012
	train = &Dataset{Name: "covtype-sim-train", Classes: 2, X: full.X[:cut], Y: full.Y[:cut]}
	test = &Dataset{Name: "covtype-sim-test", Classes: 2, X: full.X[cut:], Y: full.Y[cut:]}
	return train, test
}

// HIGGSSim simulates HIGGS (Appendix C): binary, 28 dimensions,
// 10,500,000 train at scale 1 — the "privacy for free at large m"
// regime. It is a hard task: noiseless accuracy is only ~0.64.
func HIGGSSim(r *rand.Rand, scale float64) (train, test *Dataset) {
	full := Synthetic(r, GenConfig{
		Name: "higgs-sim", M: scaled(11000000, scale, 1100), D: 28, Classes: 2,
		Spread: 1.6, Flip: 0.18,
	})
	n := full.Len()
	cut := n * 21 / 22 // 10.5M train / 0.5M test
	train = &Dataset{Name: "higgs-sim-train", Classes: 2, X: full.X[:cut], Y: full.Y[:cut]}
	test = &Dataset{Name: "higgs-sim-test", Classes: 2, X: full.X[cut:], Y: full.Y[cut:]}
	return train, test
}

// KDDSim simulates KDDCup-99 intrusion detection (Appendix C): binary,
// 41 dimensions, 494,021 train at scale 1, and nearly separable — both
// private and noiseless models reach ≈1.0 accuracy quickly.
func KDDSim(r *rand.Rand, scale float64) (train, test *Dataset) {
	full := Synthetic(r, GenConfig{
		Name: "kdd-sim", M: scaled(543423, scale, 550), D: 41, Classes: 2,
		Spread: 0.25, Flip: 0.004,
	})
	n := full.Len()
	cut := n * 10 / 11
	train = &Dataset{Name: "kdd-sim-train", Classes: 2, X: full.X[:cut], Y: full.Y[:cut]}
	test = &Dataset{Name: "kdd-sim-test", Classes: 2, X: full.X[cut:], Y: full.Y[cut:]}
	return train, test
}

// ScaleSim is the analogue of Bismarck's data synthesizer used for the
// scalability experiments (Figure 2): m binary examples in d dimensions
// with a fixed margin, generated deterministically from the seed.
func ScaleSim(seed int64, m, d int) *Dataset {
	r := rand.New(rand.NewSource(seed))
	return Synthetic(r, GenConfig{
		Name: fmt.Sprintf("scale-sim-%d", m), M: m, D: d, Classes: 2,
		Spread: 0.5, Flip: 0.02,
	})
}

// LoadLIBSVM reads a dataset in LIBSVM/SVMlight sparse format
// ("label idx:val idx:val ..." per line, 1-based indices). dim, when
// positive, fixes the dimension; otherwise the maximum index observed
// is used. Labels are kept as parsed; callers wanting ±1 should ensure
// the file uses ±1 (0/1 files are remapped to ±1 as a convenience).
// Duplicate column entries on one line are summed (the canonical form
// every LIBSVM consumer in this repository shares via ScanLIBSVM).
// The result is dense: it costs rows × dim floats however few values
// the file holds, so a sparse file belongs in LoadLIBSVMSparse, whose
// cost is the file's.
func LoadLIBSVM(path string, dim int) (*Dataset, error) {
	s, err := LoadLIBSVMSparse(path, dim)
	if err != nil {
		return nil, err
	}
	d := s.ToDense()
	d.Name = path
	return d, nil
}

// ClassCounts returns the number of examples per label.
func (d *Dataset) ClassCounts() map[float64]int {
	out := map[float64]int{}
	for _, y := range d.Y {
		out[y]++
	}
	return out
}
