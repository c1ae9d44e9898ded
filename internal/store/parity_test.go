package store_test

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/eval"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/store"
)

// bitsEqual compares two models for bit-for-bit identity.
func bitsEqual(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: dim %d != %d", tag, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: w[%d] = %x, want %x — store-backed training diverged from in-memory", tag, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestStoreTrainingParity pins the tentpole invariant: training from a
// store file is bit-identical to training from the in-memory dataset
// it was written from, under every execution strategy. The store holds
// the exact IEEE-754 bits and the engine consumes randomness
// identically either way, so the final iterates must agree exactly —
// not approximately.
func TestStoreTrainingParity(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ds, _ := data.KDDSimSparse(r, 0.004) // ~2.1k rows, d=122, ~10% density
	rd := openStore(t, writeStore(t, t.TempDir(), ds, store.Options{ChunkRows: 256}))

	f := loss.NewLogistic(1e-2, 0)
	base := sgd.Config{
		Loss:   f,
		Step:   sgd.InvSqrtT(1),
		Radius: 100,
	}

	cases := []struct {
		name    string
		cfg     engine.Config
		seed    int64
		passes  int
		average bool
	}{
		{name: "sequential", cfg: engine.Config{Strategy: engine.Sequential}, seed: 1, passes: 3},
		{name: "sequential-avg", cfg: engine.Config{Strategy: engine.Sequential}, seed: 2, passes: 3, average: true},
		{name: "sharded-4", cfg: engine.Config{Strategy: engine.Sharded, Workers: 4}, seed: 3, passes: 3},
		{name: "streaming", cfg: engine.Config{Strategy: engine.Streaming}, seed: 4, passes: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(s sgd.Samples) *engine.Result {
				cfg := tc.cfg
				cfg.SGD = base
				cfg.SGD.Passes = tc.passes
				cfg.SGD.Average = tc.average
				if tc.cfg.Strategy != engine.Streaming {
					cfg.SGD.Rand = rand.New(rand.NewSource(tc.seed))
				}
				res, err := engine.Run(s, cfg)
				if err != nil {
					t.Fatalf("engine.Run: %v", err)
				}
				return res
			}
			mem := run(ds)
			disk := run(rd)
			bitsEqual(t, "W", disk.W, mem.W)
			if tc.average {
				bitsEqual(t, "WAvg", disk.WAvg, mem.WAvg)
			}
			if !sgd.UsesSparseKernel(rd, sgd.Config{Loss: f}) {
				t.Fatal("store reader fell off the sparse kernel")
			}
		})
	}
}

// TestStorePrivateTrainingParity pins the DESIGN.md §7 invariant that
// sensitivity calibration is representation-independent: a private
// TrainCtx run from a store file produces the same calibrated Δ₂ and —
// because noise is drawn from the same Rand after identical
// consumption — the bit-identical released model, per strategy.
func TestStorePrivateTrainingParity(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	ds, _ := data.KDDSimSparse(r, 0.002)
	rd := openStore(t, writeStore(t, t.TempDir(), ds, store.Options{ChunkRows: 128}))

	f := loss.NewLogistic(1e-2, 0)
	for _, tc := range []struct {
		name     string
		strategy engine.Strategy
		workers  int
		passes   int
	}{
		{"sequential", engine.Sequential, 1, 2},
		{"sharded-3", engine.Sharded, 3, 2},
		{"streaming", engine.Streaming, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(s sgd.Samples) *core.Result {
				res, err := core.TrainCtx(context.Background(), s, f,
					core.WithBudget(dp.Budget{Epsilon: 1}),
					core.WithPasses(tc.passes), core.WithBatch(10), core.WithRadius(100),
					core.WithStrategy(tc.strategy, tc.workers),
					core.WithRand(rand.New(rand.NewSource(99))))
				if err != nil {
					t.Fatalf("TrainCtx: %v", err)
				}
				return res
			}
			mem := run(ds)
			disk := run(rd)
			if disk.Sensitivity != mem.Sensitivity {
				t.Fatalf("Δ₂ differs by representation: %v != %v", disk.Sensitivity, mem.Sensitivity)
			}
			if disk.NoiseNorm != mem.NoiseNorm {
				t.Fatalf("noise norm differs: %v != %v", disk.NoiseNorm, mem.NoiseNorm)
			}
			bitsEqual(t, "private W", disk.W, mem.W)
		})
	}
}

// TestStoreScoringParity: eval's scoring helpers accept a store reader
// like any other sample source and take the sparse tier.
func TestStoreScoringParity(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	ds := data.SparseSynthetic(r, 400, 50, 6, 0.02)
	rd := openStore(t, writeStore(t, t.TempDir(), ds, store.Options{ChunkRows: 64}))

	w := make([]float64, ds.Dim())
	for i := range w {
		w[i] = r.NormFloat64()
	}
	model := &eval.Linear{W: w}
	if got, want := eval.Accuracy(rd, model), eval.Accuracy(ds, model); got != want {
		t.Fatalf("store-backed accuracy %v != in-memory %v", got, want)
	}
	if got, want := eval.Errors(rd, model), eval.Errors(ds, model); got != want {
		t.Fatalf("store-backed errors %v != in-memory %v", got, want)
	}
}

// noHint hides a store source's look-ahead hint (sgd's Touch contract)
// and nothing else: Shard stays, and hides the hint of the views too.
type noHint struct{ sgd.SparseSamples }

func (h noHint) Shard(lo, hi int) sgd.Samples {
	return noHint{h.SparseSamples.(engine.Sharder).Shard(lo, hi).(sgd.SparseSamples)}
}

// TestStoreHintParity: on a single file and on a segment directory the
// hint reads exactly the row it is asked for — the sum of the words it
// touches equals the in-memory dataset's for every row, through shard
// views too — and training with it hidden ends on the same bits, under
// Sequential and (the -race case: two shard cursors over one mapping)
// Sharded P=2.
func TestStoreHintParity(t *testing.T) {
	type toucher interface{ Touch(i int) float64 }
	ds, _ := data.KDDSimSparse(rand.New(rand.NewSource(23)), 0.003)
	base := t.TempDir()
	rd := openStore(t, writeStore(t, base, ds, store.Options{ChunkRows: 128}))
	half := ds.Len() / 2
	segDir := filepath.Join(base, "segs")
	appendSlice(t, segDir, ds, 0, half, store.Options{ChunkRows: 128})
	appendSlice(t, segDir, ds, half, ds.Len(), store.Options{ChunkRows: 128})
	dir := openDir(t, segDir)

	lo, hi := 100, ds.Len()-70 // straddles the segment boundary
	for name, src := range map[string]sgd.Samples{"file": rd, "dir": dir} {
		view := src.(engine.Sharder).Shard(lo, hi)
		for _, s := range []sgd.Samples{src, view} { // one verifying pass each
			for i := 0; i < s.Len(); i++ {
				s.(sgd.SparseSamples).AtSparse(i)
			}
		}
		for i := 0; i < ds.Len(); i++ {
			if got, want := src.(toucher).Touch(i), ds.Touch(i); got != want {
				t.Fatalf("%s: hint for row %d read %v, the row holds %v", name, i, got, want)
			}
		}
		for _, i := range []int{0, half - lo - 1, half - lo, hi - lo - 1} {
			if got, want := view.(toucher).Touch(i), ds.Touch(lo+i); got != want {
				t.Fatalf("%s view: hint for row %d read %v, parent row %d holds %v", name, i, got, lo+i, want)
			}
		}

		for _, ec := range []engine.Config{{Strategy: engine.Sequential}, {Strategy: engine.Sharded, Workers: 2}} {
			run := func(s sgd.Samples) *engine.Result {
				ec.SGD = sgd.Config{
					Loss: loss.NewLogistic(1e-2, 0), Step: sgd.InvSqrtT(1), Radius: 100,
					Passes: 3, Batch: 10, Average: true, Rand: rand.New(rand.NewSource(8)),
				}
				res, err := engine.Run(s, ec)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want, got := run(noHint{src.(sgd.SparseSamples)}), run(src)
			bitsEqual(t, name+" W", got.W, want.W)
			bitsEqual(t, name+" WAvg", got.WAvg, want.WAvg)
		}
	}
}

// TestLabels01PermutedParity: a store holding raw {0,1} labels under
// the remap flag and its ±1 twin are the same training set — permuted
// multi-pass runs end on the same bits as each other and as memory.
// (That the remap is per row served, not per chunk switch, is pinned
// structurally by TestChunkTable.)
func TestLabels01PermutedParity(t *testing.T) {
	ds, _ := data.KDDSimSparse(rand.New(rand.NewSource(29)), 0.003)
	dir := t.TempDir()
	twin := openStore(t, writeStore(t, dir, ds, store.Options{ChunkRows: 64}))

	path01 := filepath.Join(dir, "labels01.bolt")
	w, err := store.Create(path01, store.Options{ChunkRows: 64, RemapLabels01: true})
	if err != nil {
		t.Fatal(err)
	}
	w.SetDim(ds.Dim())
	for i := 0; i < ds.Len(); i++ {
		x, y := ds.Row(i)
		if err := w.Append(x, (y+1)/2); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd01 := openStore(t, path01)
	if rd01.Flags()&store.FlagLabels01 == 0 {
		t.Fatal("fixture did not record FlagLabels01")
	}

	for _, b := range []int{1, 50} {
		run := func(s sgd.Samples) []float64 {
			res, err := sgd.Run(s, sgd.Config{
				Loss: loss.NewLogistic(1e-2, 0), Step: sgd.InvSqrtT(1), Radius: 100,
				Passes: 2, Batch: b, FreshPerm: true, Rand: rand.New(rand.NewSource(4)),
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.W
		}
		mem := run(ds)
		bitsEqual(t, "±1 store", run(twin), mem)
		bitsEqual(t, "{0,1} store", run(rd01), mem)
	}
}
