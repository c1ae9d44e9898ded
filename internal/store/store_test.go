package store_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"boltondp/internal/data"
	"boltondp/internal/engine"
	"boltondp/internal/sgd"
	"boltondp/internal/store"
	"boltondp/internal/vec"
)

// writeStore converts ds to a store file under dir and returns the
// path.
func writeStore(t *testing.T, dir string, ds *data.SparseDataset, opt store.Options) string {
	t.Helper()
	path := filepath.Join(dir, "ds.bolt")
	if err := store.Write(path, ds, opt); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return path
}

func openStore(t *testing.T, path string) *store.Reader {
	t.Helper()
	r, err := store.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestRoundTrip pins the core contract: every row read back from a
// store is bit-identical to the row written, across chunk geometries
// that exercise exact-fit, remainder and single-chunk layouts.
func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ds := data.SparseSynthetic(r, 257, 100, 9, 0.05)
	for _, chunkRows := range []int{1, 16, 64, 257, 1000} {
		rd := openStore(t, writeStore(t, t.TempDir(), ds, store.Options{ChunkRows: chunkRows}))
		if rd.Len() != ds.Len() {
			t.Fatalf("chunkRows=%d: Len %d != %d", chunkRows, rd.Len(), ds.Len())
		}
		if rd.Dim() != ds.Dim() {
			t.Fatalf("chunkRows=%d: Dim %d != %d", chunkRows, rd.Dim(), ds.Dim())
		}
		if rd.Classes() != ds.Classes {
			t.Fatalf("chunkRows=%d: Classes %d != %d", chunkRows, rd.Classes(), ds.Classes)
		}
		if int(rd.NNZ()) != ds.NNZ() {
			t.Fatalf("chunkRows=%d: NNZ %d != %d", chunkRows, rd.NNZ(), ds.NNZ())
		}
		if rd.Density() != ds.Density() {
			t.Fatalf("chunkRows=%d: Density %v != %v", chunkRows, rd.Density(), ds.Density())
		}
		wantChunks := (ds.Len() + chunkRows - 1) / chunkRows
		if rd.Chunks() != wantChunks {
			t.Fatalf("chunkRows=%d: Chunks %d != %d", chunkRows, rd.Chunks(), wantChunks)
		}
		for i := 0; i < ds.Len(); i++ {
			want, wy := ds.AtSparse(i)
			got, gy := rd.AtSparse(i)
			if gy != wy {
				t.Fatalf("chunkRows=%d row %d: label %v != %v", chunkRows, i, gy, wy)
			}
			if len(got.Idx) != len(want.Idx) {
				t.Fatalf("chunkRows=%d row %d: nnz %d != %d", chunkRows, i, len(got.Idx), len(want.Idx))
			}
			for k := range want.Idx {
				if got.Idx[k] != want.Idx[k] ||
					math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
					t.Fatalf("chunkRows=%d row %d: coordinate %d differs", chunkRows, i, k)
				}
			}
		}
		// Dense tier agrees with the sparse tier.
		for _, i := range []int{0, ds.Len() / 2, ds.Len() - 1} {
			want, wy := ds.At(i)
			wx := make([]float64, len(want))
			copy(wx, want) // ds.At reuses its scratch
			got, gy := rd.At(i)
			if gy != wy {
				t.Fatalf("dense row %d: label %v != %v", i, gy, wy)
			}
			for k := range wx {
				if got[k] != wx[k] {
					t.Fatalf("dense row %d: col %d: %v != %v", i, k, got[k], wx[k])
				}
			}
		}
		if err := rd.Verify(); err != nil {
			t.Fatalf("Verify: %v", err)
		}
	}
}

// TestRandomAccessAcrossChunks walks rows in a shuffled order, which
// forces chunk reloads, and checks every row still comes back right.
func TestRandomAccessAcrossChunks(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ds := data.SparseSynthetic(r, 300, 60, 7, 0)
	rd := openStore(t, writeStore(t, t.TempDir(), ds, store.Options{ChunkRows: 32}))
	for _, i := range r.Perm(ds.Len()) {
		want, wy := ds.AtSparse(i)
		got, gy := rd.AtSparse(i)
		if gy != wy || len(got.Idx) != len(want.Idx) {
			t.Fatalf("row %d mismatch after random access", i)
		}
		for k := range want.Idx {
			if got.Idx[k] != want.Idx[k] || got.Val[k] != want.Val[k] {
				t.Fatalf("row %d: coordinate %d differs", i, k)
			}
		}
	}
}

// TestShardViews checks that Shard hands out independent, correctly
// translated views (including sub-shards), the contract the sharded
// engine's /P sensitivity division rests on.
func TestShardViews(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ds := data.SparseSynthetic(r, 120, 40, 5, 0)
	rd := openStore(t, writeStore(t, t.TempDir(), ds, store.Options{ChunkRows: 17}))

	v, ok := rd.Shard(30, 90).(sgd.SparseSamples)
	if !ok {
		t.Fatal("shard view lost the sparse tier")
	}
	if v.Len() != 60 {
		t.Fatalf("shard Len = %d, want 60", v.Len())
	}
	for i := 0; i < v.Len(); i++ {
		want, wy := ds.AtSparse(30 + i)
		got, gy := v.AtSparse(i)
		if gy != wy || len(got.Idx) != len(want.Idx) {
			t.Fatalf("shard row %d mismatch", i)
		}
	}
	// Sub-shards translate to parent coordinates and keep both tiers.
	sub, ok := v.(engine.Sharder)
	if !ok {
		t.Fatal("shard view is not shardable in turn")
	}
	sv := sub.Shard(10, 20).(sgd.SparseSamples)
	for i := 0; i < sv.Len(); i++ {
		want, wy := ds.AtSparse(40 + i)
		got, gy := sv.AtSparse(i)
		if gy != wy || len(got.Idx) != len(want.Idx) {
			t.Fatalf("sub-shard row %d mismatch", i)
		}
		for k := range want.Idx {
			if got.Idx[k] != want.Idx[k] || got.Val[k] != want.Val[k] {
				t.Fatalf("sub-shard row %d: coordinate %d differs", i, k)
			}
		}
	}

	for _, bad := range [][2]int{{-1, 10}, {5, 4}, {0, rd.Len() + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Shard(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			rd.Shard(bad[0], bad[1])
		}()
	}
}

// TestWriterValidation pins the writer's fail-closed behaviors.
func TestWriterValidation(t *testing.T) {
	dir := t.TempDir()

	if _, err := store.Create(filepath.Join(dir, "a.bolt"), store.Options{ChunkRows: -1}); err == nil {
		t.Fatal("negative ChunkRows accepted")
	}

	w, err := store.Create(filepath.Join(dir, "b.bolt"), store.Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := w.Append(&vec.Sparse{Idx: []int{3, 1}, Val: []float64{1, 2}}, 1); err == nil {
		t.Fatal("out-of-order indices accepted")
	}
	if err := w.Append(&vec.Sparse{Idx: []int{1}, Val: []float64{1, 2}}, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// Zero rows is an error at Close, like the loaders' "no examples".
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "no examples") {
		t.Fatalf("empty Close err = %v, want no examples", err)
	}
	if err := w.Append(&vec.Sparse{Idx: []int{0}, Val: []float64{1}}, 1); err == nil {
		t.Fatal("Append after Close accepted")
	}
}

// TestLabels01Remap: under Options.RemapLabels01 a store written with
// raw {0,1} labels serves ±1, matching the LIBSVM loaders' convenience
// remap; without the opt-in the same labels round-trip bit-for-bit
// (the Write bit-identity contract).
func TestLabels01Remap(t *testing.T) {
	ys := []float64{0, 1, 1, 0, 1}
	write := func(t *testing.T, path string, opt store.Options) {
		t.Helper()
		w, err := store.Create(path, opt)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		for i, y := range ys {
			if err := w.Append(&vec.Sparse{Idx: []int{i}, Val: []float64{1}}, y); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}

	remapped := filepath.Join(t.TempDir(), "l.bolt")
	write(t, remapped, store.Options{ChunkRows: 2, RemapLabels01: true})
	rd := openStore(t, remapped)
	if rd.Classes() != 2 {
		t.Fatalf("Classes = %d, want 2", rd.Classes())
	}
	for i, y := range ys {
		_, gy := rd.AtSparse(i)
		if want := 2*y - 1; gy != want {
			t.Fatalf("row %d: label %v, want %v", i, gy, want)
		}
	}

	raw := filepath.Join(t.TempDir(), "r.bolt")
	write(t, raw, store.Options{ChunkRows: 2})
	rr := openStore(t, raw)
	for i, y := range ys {
		_, gy := rr.AtSparse(i)
		if gy != y {
			t.Fatalf("row %d: label %v changed without the remap opt-in, want %v", i, gy, y)
		}
	}
}

// TestStoreScanAllocs gates the arena reuse claim: a steady-state
// sequential sparse scan of a multi-chunk store performs zero
// allocations — chunk decode reuses the cursor's arenas.
func TestStoreScanAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ds := data.SparseSynthetic(r, 512, 80, 8, 0)
	rd := openStore(t, writeStore(t, t.TempDir(), ds, store.Options{ChunkRows: 64}))
	scan := func() {
		for i := 0; i < rd.Len(); i++ {
			rd.AtSparse(i)
		}
	}
	scan() // warm the arenas to their high-water capacity
	if allocs := testing.AllocsPerRun(10, scan); allocs != 0 {
		t.Fatalf("sequential scan allocates %v per pass, want 0", allocs)
	}
}
