package store_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"boltondp/internal/data"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/store"
	"boltondp/internal/vec"
)

// appendSlice ingests rows [lo, hi) of ds as one segment of dir.
func appendSlice(t *testing.T, dir string, ds *data.SparseDataset, lo, hi int, opt store.Options) string {
	t.Helper()
	name, err := store.AppendSegment(dir, ds.Shard(lo, hi).(sgd.SparseSamples), opt)
	if err != nil {
		t.Fatalf("AppendSegment [%d,%d): %v", lo, hi, err)
	}
	return name
}

func openDir(t *testing.T, dir string) *store.Dir {
	t.Helper()
	d, err := store.OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestSegmentDirRoundTrip pins the union contract: a directory of
// segments serves, row for row and bit for bit, the concatenation of
// what was ingested — both access tiers, plus the eager Verify sweep.
func TestSegmentDirRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ds := data.SparseSynthetic(r, 301, 90, 9, 0.05)
	dir := t.TempDir()
	for _, cut := range [][2]int{{0, 100}, {100, 130}, {130, 301}} {
		appendSlice(t, dir, ds, cut[0], cut[1], store.Options{ChunkRows: 64})
	}
	d := openDir(t, dir)
	if d.Segments() != 3 {
		t.Fatalf("Segments = %d, want 3", d.Segments())
	}
	if d.Len() != ds.Len() || d.Dim() != ds.Dim() || d.Classes() != 2 {
		t.Fatalf("union shape (%d,%d,%d) != (%d,%d,2)", d.Len(), d.Dim(), d.Classes(), ds.Len(), ds.Dim())
	}
	if int(d.NNZ()) != ds.NNZ() {
		t.Fatalf("NNZ %d != %d", d.NNZ(), ds.NNZ())
	}
	for i := 0; i < ds.Len(); i++ {
		want, wy := ds.AtSparse(i)
		got, gy := d.AtSparse(i)
		if gy != wy || len(got.Idx) != len(want.Idx) {
			t.Fatalf("row %d: shape/label mismatch", i)
		}
		for k := range want.Idx {
			if got.Idx[k] != want.Idx[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
				t.Fatalf("row %d coordinate %d differs", i, k)
			}
		}
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestSegmentDirShardViews pins the engine.Sharder contract across
// segment boundaries: shard views agree with the union reader and can
// be re-sharded.
func TestSegmentDirShardViews(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	ds := data.SparseSynthetic(r, 200, 60, 7, 0.05)
	dir := t.TempDir()
	appendSlice(t, dir, ds, 0, 80, store.Options{})
	appendSlice(t, dir, ds, 80, 200, store.Options{})
	d := openDir(t, dir)
	v := d.Shard(50, 150) // spans the segment boundary
	if v.Len() != 100 {
		t.Fatalf("shard Len = %d, want 100", v.Len())
	}
	for i := 0; i < v.Len(); i++ {
		want, wy := d.AtSparse(50 + i)
		got, gy := v.(sgd.SparseSamples).AtSparse(i)
		if gy != wy || len(got.Idx) != len(want.Idx) {
			t.Fatalf("shard row %d mismatch", i)
		}
	}
	nested := v.(engine.Sharder).Shard(25, 75)
	x, y := nested.At(0)
	wx, wy := d.At(75)
	if y != wy || len(x) != len(wx) {
		t.Fatalf("nested shard row 0 mismatch")
	}
}

// TestDirShardBounds: a directory's Shard, and a shard's Shard in turn,
// refuses a range outside its rows with the message Reader.Shard uses,
// instead of serving misaligned rows or dying on a bare index panic.
func TestDirShardBounds(t *testing.T) {
	ds := data.SparseSynthetic(rand.New(rand.NewSource(14)), 100, 40, 5, 0)
	dir := t.TempDir()
	appendSlice(t, dir, ds, 0, 60, store.Options{ChunkRows: 16})
	appendSlice(t, dir, ds, 60, 100, store.Options{ChunkRows: 16})
	d := openDir(t, dir)
	nested := d.Shard(10, 90).(engine.Sharder).Shard(5, 75).(engine.Sharder)
	for _, c := range []struct {
		name string
		s    engine.Sharder
		rows int
	}{{"dir", d, 100}, {"shard of a shard", nested, 70}} {
		for _, r := range [][2]int{{-3, 10}, {0, 105}} {
			want := fmt.Sprintf("store: shard [%d,%d) out of bounds for %d rows", r[0], r[1], c.rows)
			func() {
				defer func() {
					if got := recover(); got != want {
						t.Fatalf("%s: Shard(%d,%d) panicked with %v, want %q", c.name, r[0], r[1], got, want)
					}
				}()
				c.s.Shard(r[0], r[1])
			}()
		}
	}
}

// TestSegmentDirTrainingParity pins the tentpole invariant one level
// up from TestStoreTrainingParity: training from a segment directory
// is bit-identical to training from the in-memory dataset, under every
// execution strategy — and a single-segment directory is bit-identical
// to the plain single-file store it wraps.
func TestSegmentDirTrainingParity(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	ds, _ := data.KDDSimSparse(r, 0.003)
	base := t.TempDir()

	// Single-file store (the old -cache behavior)…
	rd := openStore(t, writeStore(t, base, ds, store.Options{ChunkRows: 256}))
	// …a single-segment directory…
	oneDir := filepath.Join(base, "one")
	appendSlice(t, oneDir, ds, 0, ds.Len(), store.Options{ChunkRows: 256})
	one := openDir(t, oneDir)
	// …and a three-segment directory of the same rows.
	threeDir := filepath.Join(base, "three")
	third := ds.Len() / 3
	appendSlice(t, threeDir, ds, 0, third, store.Options{ChunkRows: 256})
	appendSlice(t, threeDir, ds, third, 2*third, store.Options{ChunkRows: 256})
	appendSlice(t, threeDir, ds, 2*third, ds.Len(), store.Options{ChunkRows: 256})
	three := openDir(t, threeDir)

	f := loss.NewLogistic(1e-2, 0)
	cases := []struct {
		name   string
		cfg    engine.Config
		passes int
	}{
		{name: "sequential", cfg: engine.Config{Strategy: engine.Sequential}, passes: 2},
		{name: "sharded-4", cfg: engine.Config{Strategy: engine.Sharded, Workers: 4}, passes: 2},
		{name: "streaming", cfg: engine.Config{Strategy: engine.Streaming}, passes: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(s sgd.Samples) []float64 {
				cfg := tc.cfg
				cfg.SGD = sgd.Config{Loss: f, Step: sgd.InvSqrtT(1), Radius: 100, Passes: tc.passes}
				if tc.cfg.Strategy != engine.Streaming {
					cfg.SGD.Rand = rand.New(rand.NewSource(5))
				}
				res, err := engine.Run(s, cfg)
				if err != nil {
					t.Fatalf("engine.Run: %v", err)
				}
				return res.W
			}
			mem := run(ds)
			bitsEqual(t, "single-file", run(rd), mem)
			bitsEqual(t, "one-segment dir", run(one), mem)
			bitsEqual(t, "three-segment dir", run(three), mem)
		})
	}
}

// TestCompactParity pins the compaction acceptance criterion: training
// from a compacted directory is bit-identical to the uncompacted
// union, for all three strategies, and the compacted directory still
// passes the full Verify sweep.
func TestCompactParity(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	ds, _ := data.KDDSimSparse(r, 0.003)
	dir := t.TempDir()
	// Five uneven segments, several below the compaction threshold.
	cuts := []int{0, 40, 90, 150, 170, ds.Len()}
	for i := 0; i+1 < len(cuts); i++ {
		appendSlice(t, dir, ds, cuts[i], cuts[i+1], store.Options{ChunkRows: 64})
	}

	f := loss.NewLogistic(1e-2, 0)
	train := func(d *store.Dir, strat engine.Strategy, workers, passes int) []float64 {
		cfg := engine.Config{Strategy: strat, Workers: workers}
		cfg.SGD = sgd.Config{Loss: f, Step: sgd.InvSqrtT(1), Radius: 100, Passes: passes}
		if strat != engine.Streaming {
			cfg.SGD.Rand = rand.New(rand.NewSource(9))
		}
		res, err := engine.Run(d, cfg)
		if err != nil {
			t.Fatalf("engine.Run: %v", err)
		}
		return res.W
	}

	d := openDir(t, dir)
	beforeSeq := train(d, engine.Sequential, 0, 2)
	beforeShard := train(d, engine.Sharded, 4, 2)
	beforeStream := train(d, engine.Streaming, 0, 1)

	nb, na, err := store.Compact(dir, 200)
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if nb != 5 || na >= nb {
		t.Fatalf("Compact: %d → %d segments, want fewer than 5", nb, na)
	}
	if err := d.Reload(); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if d.Len() != ds.Len() {
		t.Fatalf("post-compaction Len %d != %d", d.Len(), ds.Len())
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("post-compaction Verify: %v", err)
	}
	bitsEqual(t, "sequential", train(d, engine.Sequential, 0, 2), beforeSeq)
	bitsEqual(t, "sharded-4", train(d, engine.Sharded, 4, 2), beforeShard)
	bitsEqual(t, "streaming", train(d, engine.Streaming, 0, 1), beforeStream)

	// Compact-everything leaves one segment and the same training.
	if _, na, err = store.Compact(dir, 0); err != nil {
		t.Fatalf("Compact(0): %v", err)
	}
	if na != 1 {
		t.Fatalf("full compaction left %d segments, want 1", na)
	}
	if err := d.Reload(); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	bitsEqual(t, "sequential/full", train(d, engine.Sequential, 0, 2), beforeSeq)
}

// TestCompactKeepsExplicitClasses: under an explicit Options.Classes a
// window may miss a class, so a merged segment must carry the
// directory's class count instead of re-inferring it from its own rows
// — and a merge that does not reproduce the run it replaces (here: a
// segment file swapped behind the manifest's back) is refused with the
// manifest untouched and no merged file left behind.
func TestCompactKeepsExplicitClasses(t *testing.T) {
	dir := t.TempDir()
	seg := func(ys ...float64) *memRows {
		return &memRows{dim: 10, xs: repeatRows(&vec.Sparse{Idx: []int{1, 4}, Val: []float64{1, -1}}, len(ys)), ys: ys}
	}
	opt := store.Options{Classes: 3}
	for _, src := range []*memRows{seg(0, 1, 2, 0, 1, 2, 0, 1), seg(0, 1, 0, 1), seg(1, 0, 1, 0)} {
		if _, err := store.AppendSegment(dir, src, opt); err != nil {
			t.Fatalf("AppendSegment: %v", err)
		}
	}
	if nb, na, err := store.Compact(dir, 5); err != nil || nb != 3 || na != 2 {
		t.Fatalf("Compact: %d → %d segments, err %v; want 3 → 2", nb, na, err)
	}
	d := openDir(t, dir)
	if d.Len() != 16 || d.Classes() != 3 {
		t.Fatalf("compacted directory has %d rows / %d classes, want 16 / 3", d.Len(), d.Classes())
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}

	// Two more small windows, then the second is replaced by a valid
	// store of a different length: the merge no longer matches the
	// manifest's rows for the run and must be refused.
	for _, src := range []*memRows{seg(0, 1, 0), seg(1, 2, 1)} {
		if _, err := store.AppendSegment(dir, src, opt); err != nil {
			t.Fatalf("AppendSegment: %v", err)
		}
	}
	if err := d.Reload(); err != nil {
		t.Fatal(err)
	}
	names := d.SegmentNames()
	if err := store.Write(filepath.Join(dir, names[len(names)-1]), seg(1, 2), opt); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "MANIFEST")
	before, _ := os.ReadFile(manifest)
	files, _ := os.ReadDir(dir)
	if _, _, err := store.Compact(dir, 4); err == nil {
		t.Fatal("Compact accepted a merge that lost a row of the run it replaces")
	}
	after, _ := os.ReadFile(manifest)
	left, _ := os.ReadDir(dir)
	if string(after) != string(before) || len(left) != len(files) {
		t.Fatalf("refused compaction changed the directory (%d → %d files)", len(files), len(left))
	}
}

// memRows is a hand-built sparse source for invariant-violation tests.
type memRows struct {
	dim int
	xs  []*vec.Sparse
	ys  []float64
}

func (m *memRows) Len() int { return len(m.ys) }
func (m *memRows) Dim() int { return m.dim }
func (m *memRows) At(i int) ([]float64, float64) {
	x := make([]float64, m.dim)
	m.xs[i].Scatter(x)
	return x, m.ys[i]
}
func (m *memRows) AtSparse(i int) (*vec.Sparse, float64) { return m.xs[i], m.ys[i] }

// TestAppendSegmentFailClosed pins the visibility contract: a segment
// that violates any ingest invariant — dimension, label set, density,
// emptiness — is rejected before it joins the manifest, and the
// directory afterwards is byte-identical to the directory before.
func TestAppendSegmentFailClosed(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	ds := data.SparseSynthetic(r, 120, 100, 30, 0.05) // density 0.3
	dir := t.TempDir()
	appendSlice(t, dir, ds, 0, 120, store.Options{})
	manifest := filepath.Join(dir, "MANIFEST")
	before, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	entries := func() int {
		ents, _ := os.ReadDir(dir)
		return len(ents)
	}
	nfiles := entries()

	row := func(idx []int, val []float64) *vec.Sparse { return &vec.Sparse{Idx: idx, Val: val} }
	cases := []struct {
		name string
		src  sgd.SparseSamples
		want string
	}{
		{
			name: "dim widens",
			src: &memRows{dim: 150, xs: []*vec.Sparse{row([]int{0, 149}, []float64{1, 1})},
				ys: []float64{1}},
			want: "dim",
		},
		{
			name: "label set grows",
			src: &memRows{dim: 100,
				xs: repeatRows(row([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29},
					ones(30)), 3),
				ys: []float64{-1, 1, 7}},
			want: "classes",
		},
		{
			name: "density collapses",
			src: &memRows{dim: 100, xs: repeatRows(row([]int{3}, []float64{1}), 4),
				ys: []float64{1, -1, 1, -1}},
			want: "density",
		},
		{
			name: "empty segment",
			src:  &memRows{dim: 100},
			want: "no examples", // Writer.Close's own zero-row refusal
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := store.AppendSegment(dir, tc.src, store.Options{}); err == nil {
				t.Fatalf("append accepted a segment violating the %s invariant", tc.name)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			after, err := os.ReadFile(manifest)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(before) {
				t.Fatal("manifest changed after a rejected append")
			}
			if entries() != nfiles {
				t.Fatal("rejected append left files behind")
			}
		})
	}
}

func repeatRows(x *vec.Sparse, n int) []*vec.Sparse {
	out := make([]*vec.Sparse, n)
	for i := range out {
		out[i] = x
	}
	return out
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// TestSegmentDirFailClosed pins corruption handling: a flipped bit in
// the manifest fails OpenDir; a flipped bit in a segment payload fails
// the Verify sweep (structural opens stay lazy, exactly like Open).
func TestSegmentDirFailClosed(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	ds := data.SparseSynthetic(r, 100, 60, 7, 0.05)

	t.Run("manifest corruption", func(t *testing.T) {
		dir := t.TempDir()
		appendSlice(t, dir, ds, 0, 100, store.Options{})
		path := filepath.Join(dir, "MANIFEST")
		raw, _ := os.ReadFile(path)
		raw[len(raw)/3] ^= 0x40
		os.WriteFile(path, raw, 0o644)
		if _, err := store.OpenDir(dir); err == nil {
			t.Fatal("OpenDir accepted a corrupted manifest")
		}
	})
	t.Run("segment payload corruption", func(t *testing.T) {
		dir := t.TempDir()
		name := appendSlice(t, dir, ds, 0, 100, store.Options{})
		path := filepath.Join(dir, name)
		raw, _ := os.ReadFile(path)
		raw[len(raw)/2] ^= 0x01
		os.WriteFile(path, raw, 0o644)
		d, err := store.OpenDir(dir)
		if err != nil {
			// Structural metadata happened to take the hit: still fail-closed.
			return
		}
		defer d.Close()
		if err := d.Verify(); err == nil {
			t.Fatal("Verify accepted a corrupted segment")
		}
	})
	t.Run("missing manifest", func(t *testing.T) {
		if _, err := store.OpenDir(t.TempDir()); err == nil || !strings.Contains(err.Error(), "segment directory") {
			t.Fatalf("OpenDir on an empty dir: %v", err)
		}
	})
}

// TestDirReload pins the live-handle contract: appends become visible
// through Reload without disturbing rows already open, and compaction
// folds in the same way.
func TestDirReload(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	ds := data.SparseSynthetic(r, 300, 80, 8, 0.05)
	dir := t.TempDir()
	appendSlice(t, dir, ds, 0, 100, store.Options{})
	d := openDir(t, dir)
	if d.Len() != 100 {
		t.Fatalf("Len = %d, want 100", d.Len())
	}
	appendSlice(t, dir, ds, 100, 300, store.Options{})
	if d.Len() != 100 {
		t.Fatal("append became visible without Reload")
	}
	if err := d.Reload(); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if d.Len() != 300 || d.Segments() != 2 {
		t.Fatalf("post-reload (%d rows, %d segments), want (300, 2)", d.Len(), d.Segments())
	}
	x, y := d.AtSparse(250)
	wx, wy := ds.AtSparse(250)
	if y != wy || len(x.Idx) != len(wx.Idx) {
		t.Fatal("post-reload row mismatch")
	}
	if _, _, err := store.Compact(dir, 0); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := d.Reload(); err != nil {
		t.Fatalf("Reload after Compact: %v", err)
	}
	if d.Segments() != 1 || d.Len() != 300 {
		t.Fatalf("post-compaction reload (%d segments, %d rows)", d.Segments(), d.Len())
	}
}
