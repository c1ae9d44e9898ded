package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"boltondp/internal/bismarck"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/loss"
)

// udaAlgorithms are the four integrations of Figure 1, in plot order.
var udaAlgorithms = []bismarck.Algorithm{
	bismarck.Noiseless, bismarck.OutputPerturb, bismarck.AlgSCS13, bismarck.AlgBST14,
}

// loadMemTable materializes a dataset into an in-memory Bismarck table.
func loadMemTable(d *data.Dataset) (*bismarck.Table, error) {
	t := bismarck.NewMemTable(d.Name, d.Dim())
	if err := t.InsertAll(d); err != nil {
		return nil, err
	}
	return t, nil
}

// timeTrain runs one TrainUDA call and returns the wall-clock duration.
func timeTrain(t *bismarck.Table, f loss.Function, cfg bismarck.TrainConfig) (time.Duration, *bismarck.TrainResult, error) {
	start := time.Now()
	res, err := bismarck.TrainUDA(t, f, cfg)
	return time.Since(start), res, err
}

// timeTrainRepeated mirrors the paper's measurement protocol ("the
// average of 4 warm-cache runs"): one warm-up run, then `runs` timed
// repetitions. It returns the mean duration, the spread (max−min), and
// the last run's result.
func timeTrainRepeated(t *bismarck.Table, f loss.Function, cfg bismarck.TrainConfig, runs int) (mean, spread time.Duration, res *bismarck.TrainResult, err error) {
	if runs < 1 {
		runs = 1
	}
	if _, res, err = timeTrain(t, f, cfg); err != nil { // warm-up
		return 0, 0, nil, err
	}
	var total, min, max time.Duration
	for i := 0; i < runs; i++ {
		var d time.Duration
		d, res, err = timeTrain(t, f, cfg)
		if err != nil {
			return 0, 0, nil, err
		}
		total += d
		if i == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return total / time.Duration(runs), max - min, res, nil
}

// fig1Integration demonstrates the integration-effort contrast of
// Figure 1 and §4.2: the bolt-on algorithm touches only the driver
// (one Perturb call after all epochs — integration point B), while
// SCS13/BST14 must hook the UDA's transition function and sample noise
// on every mini-batch (integration point C). The run reports, per
// algorithm, where noise is injected and how many times the sampling
// code executes.
func fig1Integration(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "== Figure 1: UDA integration points and noise-sampling counts ==")
	root := rand.New(rand.NewSource(cfg.Seed))
	d := data.ScaleSim(cfg.Seed, scaled(20000, cfg.Scale, 500), 50)
	f := loss.NewLogistic(1e-4, 0)
	w := newTab(cfg)
	fmt.Fprintln(w, "algorithm\tinjection point\tUDA modified\tnoise draws\tupdates")
	for _, alg := range udaAlgorithms {
		tab, err := loadMemTable(d)
		if err != nil {
			return err
		}
		res, err := bismarck.TrainUDA(tab, f, bismarck.TrainConfig{
			Algorithm: alg,
			Budget:    dp.Budget{Epsilon: 0.1, Delta: 1e-6},
			Passes:    2, Batch: 10, Radius: 1e4,
			Rand: root,
		})
		if err != nil {
			return err
		}
		point, modified := "—", "no"
		switch alg {
		case bismarck.OutputPerturb:
			point = "driver, after all epochs (B)"
		case bismarck.AlgSCS13, bismarck.AlgBST14:
			point, modified = "transition fn, every mini-batch (C)", "yes"
		}
		fmt.Fprintf(w, "%v\t%s\t%s\t%d\t%d\n", alg, point, modified, res.NoiseDraws, res.Updates)
	}
	return w.Flush()
}

// scalabilitySweep runs one epoch of every algorithm at each table size
// and prints runtime per epoch — the series of Figure 2.
func scalabilitySweep(cfg Config, disk bool) error {
	cfg = cfg.withDefaults()
	root := rand.New(rand.NewSource(cfg.Seed))
	const d = 50 // Figure 2: "All datasets have d = 50 features"
	sizes := []int{
		scaled(1000000, cfg.Scale, 2000),
		scaled(2000000, cfg.Scale, 4000),
		scaled(4000000, cfg.Scale, 8000),
	}
	if cfg.Quick {
		sizes = sizes[:2]
	}
	f := loss.NewLogistic(1e-4, 0) // ε=0.1, λ=1e-4 per the caption
	w := newTab(cfg)
	fmt.Fprintln(w, "rows\talgorithm\truntime/epoch\tpage reads")
	var tmpDir string
	if disk {
		var err error
		tmpDir, err = os.MkdirTemp("", "boltondp-fig2b-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmpDir)
	}
	for _, m := range sizes {
		ds := data.ScaleSim(cfg.Seed+int64(m), m, d)
		for _, alg := range udaAlgorithms {
			var tab *bismarck.Table
			var err error
			if disk {
				// Pool sized to ~10% of the table: scans must hit disk.
				pages := m/(8192/((d+1)*8))/10 + 1
				tab, err = bismarck.CreateDiskTable(
					filepath.Join(tmpDir, fmt.Sprintf("%d-%v.tbl", m, alg)), d, pages)
				if err == nil {
					err = tab.InsertAll(ds)
				}
			} else {
				tab, err = loadMemTable(ds)
			}
			if err != nil {
				return err
			}
			// Batch size 1 per the caption — the worst case for the
			// white-box algorithms' per-batch sampling.
			dur, res, err := timeTrain(tab, f, bismarck.TrainConfig{
				Algorithm: alg,
				Budget:    dp.Budget{Epsilon: 0.1, Delta: 1e-6},
				Passes:    1, Batch: 1, Radius: 1e4,
				NoShuffle: true, // time the epoch, not the one-off shuffle
				Rand:      root, PaperBatchSensitivity: true,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d\t%v\t%v\t%d\n", m, alg, dur.Round(time.Millisecond), res.Stats.Reads)
			if disk {
				tab.Remove()
			}
		}
	}
	return w.Flush()
}

// fig2ScalabilityMemory reproduces Figure 2(a): runtime per epoch vs
// dataset size when the table fits in memory. All algorithms scale
// linearly; SCS13/BST14 carry a linearly growing sampling overhead.
func fig2ScalabilityMemory(cfg Config) error {
	fmt.Fprintln(cfg.withDefaults().Out, "== Figure 2(a): scalability, in-memory (b=1, ε=0.1, λ=1e-4, d=50) ==")
	return scalabilitySweep(cfg, false)
}

// fig2ScalabilityDisk reproduces Figure 2(b): runtime per epoch vs
// dataset size when the table exceeds the buffer pool, so every scan
// pays file I/O that affects all algorithms equally.
func fig2ScalabilityDisk(cfg Config) error {
	fmt.Fprintln(cfg.withDefaults().Out, "== Figure 2(b): scalability, disk-based (pool = 10% of table) ==")
	return scalabilitySweep(cfg, true)
}

// fig5Runtime reproduces Figure 5: runtime of the Bismarck integrations
// on the three simulated datasets — varying the number of epochs at
// batch size 10 (row 1) and varying the batch size for a single epoch
// (row 2), strongly convex (ε,δ)-DP, ε = 0.1.
func fig5Runtime(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "== Figure 5: runtime overhead (strongly convex, (ε,δ)-DP, ε=0.1) ==")
	root := rand.New(rand.NewSource(cfg.Seed))
	f := loss.NewLogistic(1e-4, 0)

	sets := make([]*data.Dataset, 0, 3)
	for _, nd := range figure3Datasets {
		train, _ := nd.gen(root, cfg.Scale)
		train.Name = nd.name
		// Runtime only depends on (m, d, b, k); binarize multiclass
		// labels so one SGD UDA covers every dataset.
		if train.Classes > 2 {
			for i, y := range train.Y {
				if y < float64(train.Classes)/2 {
					train.Y[i] = -1
				} else {
					train.Y[i] = 1
				}
			}
			train.Classes = 2
		}
		sets = append(sets, train)
	}

	w := newTab(cfg)
	fmt.Fprintln(w, "dataset\tvary\tvalue\talgorithm\truntime\t±spread")
	epochGrid := []int{1, 5, 10, 20}
	batchGrid := []int{1, 10, 100, 500}
	runs := 3
	if cfg.Quick {
		epochGrid = []int{1, 5}
		batchGrid = []int{1, 100}
		runs = 1
	}
	for _, ds := range sets {
		// Row 1: vary epochs at batch 10.
		for _, k := range epochGrid {
			for _, alg := range udaAlgorithms {
				tab, err := loadMemTable(ds)
				if err != nil {
					return err
				}
				mean, spread, _, err := timeTrainRepeated(tab, f, bismarck.TrainConfig{
					Algorithm: alg, Budget: dp.Budget{Epsilon: 0.1, Delta: deltaFor(ds.Len())},
					Passes: k, Batch: 10, Radius: 1e4, NoShuffle: true, Rand: root,
					PaperBatchSensitivity: true,
				}, runs)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%s\tepochs\t%d\t%v\t%v\t%v\n",
					ds.Name, k, alg, mean.Round(time.Millisecond), spread.Round(time.Millisecond))
			}
		}
		// Row 2: vary batch size for one epoch.
		for _, b := range batchGrid {
			for _, alg := range udaAlgorithms {
				tab, err := loadMemTable(ds)
				if err != nil {
					return err
				}
				mean, spread, _, err := timeTrainRepeated(tab, f, bismarck.TrainConfig{
					Algorithm: alg, Budget: dp.Budget{Epsilon: 0.1, Delta: deltaFor(ds.Len())},
					Passes: 1, Batch: b, Radius: 1e4, NoShuffle: true, Rand: root,
					PaperBatchSensitivity: true,
				}, runs)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%s\tbatch\t%d\t%v\t%v\t%v\n",
					ds.Name, b, alg, mean.Round(time.Millisecond), spread.Round(time.Millisecond))
			}
		}
	}
	return w.Flush()
}

// scaled mirrors data's size helper for experiment workloads.
func scaled(x int, scale float64, min int) int {
	m := int(float64(x) * scale)
	if m < min {
		m = min
	}
	return m
}
