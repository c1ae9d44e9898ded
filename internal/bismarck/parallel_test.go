package bismarck

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"boltondp/internal/core"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

func buildTable(t *testing.T, m, d int, seed int64) *Table {
	t.Helper()
	tab := NewMemTable("t", d)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < m; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		if math.Abs(x[0]) < 0.3 {
			x[0] = math.Copysign(0.3, x[0])
		}
		vec.Normalize(x)
		if err := tab.Insert(x, math.Copysign(1, x[0])); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// Sharding a freshly loaded table whose tail page was never flushed
// must work: Shard flushes pending rows exactly as At does, so a
// direct engine.Run over the table sees every row.
func TestShardFlushesTailPage(t *testing.T) {
	tab := buildTable(t, 255, 4, 30) // 255 rows never fill page-sized batches
	f := loss.NewLogistic(1e-2, 0)
	p := f.Params()
	res, err := engine.Run(tab, engine.Config{
		Strategy: engine.Sharded,
		Workers:  2,
		SGD: sgd.Config{
			Loss: f, Step: sgd.StronglyConvexPaper(p.Beta, p.Gamma),
			Passes: 2, Batch: 5, Radius: 100,
			Rand: rand.New(rand.NewSource(31)),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.W) != 4 || res.Passes != 2 {
		t.Errorf("unexpected result shape: dim %d passes %d", len(res.W), res.Passes)
	}
}

func TestSegmentView(t *testing.T) {
	tab := buildTable(t, 50, 4, 2)
	seg := &segment{t: tab, lo: 10, hi: 25, scratch: make([]float64, 4)}
	if seg.Len() != 15 || seg.Dim() != 4 {
		t.Fatalf("segment shape %dx%d", seg.Len(), seg.Dim())
	}
	wantX, wantY := tab.At(12)
	want := vec.Copy(wantX)
	gotX, gotY := seg.At(2)
	if !vec.Equal(gotX, want, 0) || gotY != wantY {
		t.Error("segment At(2) != table At(12)")
	}
}

// runSharded trains noiseless strongly convex PSGD over the table's
// segments through the engine's Sharded strategy — the in-RDBMS
// parallel path: per-partition aggregates merged by model averaging.
func runSharded(tab *Table, f loss.Function, workers, passes, batch int, radius float64, r *rand.Rand) (*engine.Result, error) {
	p := f.Params()
	return engine.Run(tab, engine.Config{
		Strategy: engine.Sharded,
		Workers:  workers,
		SGD: sgd.Config{
			Loss: f, Step: sgd.StronglyConvexPaper(p.Beta, p.Gamma),
			Passes: passes, Batch: batch, Radius: radius, Rand: r,
		},
	})
}

func TestParallelOneWorkerMatchesShape(t *testing.T) {
	tab := buildTable(t, 400, 5, 3)
	f := loss.NewLogistic(1e-2, 0)
	res, err := runSharded(tab, f, 1, 3, 10, 100, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ShardModels) != 1 {
		t.Fatalf("%d partition models", len(res.ShardModels))
	}
	// Merge of one model is that model.
	if !vec.Equal(res.W, res.ShardModels[0], 1e-12) {
		t.Error("P=1 merge differs from the single model")
	}
	if res.Updates != 3*40 {
		t.Errorf("updates %d", res.Updates)
	}
}

func TestParallelTrainsAccurately(t *testing.T) {
	tab := buildTable(t, 2000, 5, 5)
	f := loss.NewLogistic(1e-2, 0)
	res, err := runSharded(tab, f, 4, 5, 10, 100, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < tab.Len(); i++ {
		x, y := tab.At(i)
		if math.Copysign(1, vec.Dot(res.W, x)) == y {
			correct++
		}
	}
	if acc := float64(correct) / 2000; acc < 0.9 {
		t.Errorf("parallel merged accuracy %v", acc)
	}
}

func TestParallelDeterministic(t *testing.T) {
	run := func() []float64 {
		tab := buildTable(t, 300, 4, 7)
		f := loss.NewLogistic(1e-2, 0)
		res, err := core.TrainCtx(context.Background(), tab, f,
			core.WithStrategy(engine.Sharded, 3),
			core.WithBudget(dp.Budget{Epsilon: 1}),
			core.WithPasses(2), core.WithBatch(5), core.WithRadius(100),
			core.WithRand(rand.New(rand.NewSource(8))))
		if err != nil {
			t.Fatal(err)
		}
		return res.W
	}
	if !vec.Equal(run(), run(), 0) {
		t.Error("parallel run not deterministic under fixed seed")
	}
}

func TestParallelSensitivityFormula(t *testing.T) {
	// Strongly convex: Δ_parallel = 2L/(γ·minPart·b)/P; with equal
	// partitions minPart = m/P so this equals the sequential 2L/(γm).
	tab := buildTable(t, 1000, 4, 9)
	lambda := 1e-2
	f := loss.NewLogistic(lambda, 0)
	p := f.Params()
	res, err := core.TrainCtx(context.Background(), tab, f,
		core.WithStrategy(engine.Sharded, 5), core.WithBudget(dp.Budget{Epsilon: 1}),
		core.WithPasses(2), core.WithBatch(10), core.WithRadius(1/lambda),
		core.WithRand(rand.New(rand.NewSource(10))))
	if err != nil {
		t.Fatal(err)
	}
	want := dp.SensitivityStronglyConvex(p.L, p.Gamma, 200) / 5
	if math.Abs(res.Sensitivity-want) > 1e-15 {
		t.Errorf("sensitivity %v, want %v", res.Sensitivity, want)
	}
	seq := dp.SensitivityStronglyConvex(p.L, p.Gamma, 1000)
	if math.Abs(res.Sensitivity-seq) > 1e-15 {
		t.Errorf("parallel sensitivity %v should equal sequential %v (equal partitions)", res.Sensitivity, seq)
	}
}

// Parallel training over a disk table with a pool far smaller than the
// table: concurrent segment scans must be correct (run under -race in
// CI) and produce the same merged model as a memory table.
func TestParallelDiskTableSmallPool(t *testing.T) {
	mem := buildTable(t, 600, 5, 20)
	path := t.TempDir() + "/p.tbl"
	disk, err := CreateDiskTable(path, 5, 3) // 3-page pool, many pages
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Remove()
	if err := disk.InsertAll(mem); err != nil {
		t.Fatal(err)
	}
	f := loss.NewLogistic(1e-2, 0)
	rm, err := runSharded(mem, f, 4, 3, 5, 100, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := runSharded(disk, f, 4, 3, 5, 100, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(rm.W, rd.W, 1e-12) {
		t.Error("disk-backed parallel model differs from memory-backed one")
	}
	if disk.Stats().Reads == 0 {
		t.Error("no page reads recorded")
	}
}

// The empirical parallel-sensitivity property: replace one row, rerun
// with the same seeds, and the merged models must stay within the
// claimed Δ_parallel.
func TestParallelEmpiricalSensitivityProperty(t *testing.T) {
	lambda := 0.05
	f := loss.NewLogistic(lambda, 0)
	p := f.Params()
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		m, d, workers := 120, 3, 3
		rows := make([][]float64, m)
		ys := make([]float64, m)
		for i := 0; i < m; i++ {
			x := make([]float64, d)
			for j := range x {
				x[j] = r.NormFloat64()
			}
			vec.Normalize(x)
			rows[i] = x
			ys[i] = math.Copysign(1, r.NormFloat64())
		}
		build := func(alt int, ax []float64, ay float64) *Table {
			tab := NewMemTable("t", d)
			for i := 0; i < m; i++ {
				if i == alt {
					tab.Insert(ax, ay)
					continue
				}
				tab.Insert(rows[i], ys[i])
			}
			return tab
		}
		alt := r.Intn(m)
		nx := []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		vec.Normalize(nx)

		r1, err := runSharded(build(alt, rows[alt], ys[alt]), f, workers, 2, 2, 1/lambda, rand.New(rand.NewSource(500+seed)))
		if err != nil {
			t.Fatal(err)
		}
		// same worker seeds
		r2, err := runSharded(build(alt, nx, math.Copysign(1, r.NormFloat64())), f, workers, 2, 2, 1/lambda, rand.New(rand.NewSource(500+seed)))
		if err != nil {
			t.Fatal(err)
		}
		bound := dp.SensitivityStronglyConvex(p.L, p.Gamma, m/workers) / float64(workers)
		if dist := vec.Dist(r1.W, r2.W); dist > bound+1e-9 {
			t.Fatalf("seed %d: parallel empirical sensitivity %v exceeds bound %v", seed, dist, bound)
		}
	}
}
