package bismarck

import (
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"boltondp/internal/dp"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

func TestRowCodecRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(20)
		x := make([]float64, d)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		y := r.NormFloat64()
		buf := make([]byte, rowBytes(d)+16)
		encodeRow(buf, 8, x, y)
		got := make([]float64, d)
		gy := decodeRow(buf, 8, got)
		return gy == y && vec.Equal(got, x, 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRowsPerPage(t *testing.T) {
	if got := rowsPerPage(50); got != PageSize/(51*8) {
		t.Errorf("rowsPerPage(50) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("oversized row did not panic")
		}
	}()
	rowsPerPage(2000)
}

func fillTable(t *testing.T, tab *Table, m, d int, seed int64) ([][]float64, []float64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	xs := make([][]float64, m)
	ys := make([]float64, m)
	for i := 0; i < m; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		xs[i] = x
		ys[i] = math.Copysign(1, r.NormFloat64())
		if err := tab.Insert(x, ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	return xs, ys
}

func TestMemTableRoundTrip(t *testing.T) {
	tab := NewMemTable("t", 7)
	xs, ys := fillTable(t, tab, 301, 7, 1) // deliberately not page-aligned
	if tab.Len() != 301 || tab.Dim() != 7 {
		t.Fatalf("table shape %dx%d", tab.Len(), tab.Dim())
	}
	for i := 0; i < 301; i++ {
		x, y := tab.At(i)
		if !vec.Equal(x, xs[i], 0) || y != ys[i] {
			t.Fatalf("row %d mismatch", i)
		}
	}
	// Scan visits all rows in order.
	i := 0
	err := tab.Scan(func(x []float64, y float64) error {
		if !vec.Equal(x, xs[i], 0) || y != ys[i] {
			t.Fatalf("scan row %d mismatch", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != 301 {
		t.Fatalf("scan visited %d rows", i)
	}
}

func TestDiskTableRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tbl")
	tab, err := CreateDiskTable(path, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Remove()
	xs, ys := fillTable(t, tab, 500, 5, 2)
	for _, i := range []int{0, 1, 250, 499} {
		x, y := tab.At(i)
		if !vec.Equal(x, xs[i], 0) || y != ys[i] {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

// A disk table computes a row per access (buffer-pool fetch, page
// decode), so it must not offer the epoch loops' look-ahead hint (sgd's
// Touch contract): the hint is for rows addressable in memory.
func TestDiskTableOffersNoLookAheadHint(t *testing.T) {
	tab, err := CreateDiskTable(filepath.Join(t.TempDir(), "t.tbl"), 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Remove()
	fillTable(t, tab, 100, 5, 2)
	for name, s := range map[string]sgd.Samples{"table": tab, "shard": tab.Shard(0, 50)} {
		if _, ok := s.(interface{ Touch(i int) float64 }); ok {
			t.Errorf("disk %s offers the look-ahead hint", name)
		}
	}
}

func TestDiskTableSmallPoolEvicts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tbl")
	// 2-page pool over a many-page table: repeated scans must re-read.
	tab, err := CreateDiskTable(path, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Remove()
	fillTable(t, tab, 1000, 50, 3)
	pages := tab.NumPages()
	if pages < 10 {
		t.Fatalf("expected many pages, got %d", pages)
	}
	for s := 0; s < 3; s++ {
		if err := tab.Scan(func([]float64, float64) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := tab.Stats()
	if st.Reads < 3*pages-2 {
		t.Errorf("expected ~%d page reads with a tiny pool, got %d", 3*pages, st.Reads)
	}
}

func TestDiskTableLargePoolCaches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tbl")
	tab, err := CreateDiskTable(path, 50, 10000)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Remove()
	fillTable(t, tab, 1000, 50, 4)
	pages := tab.NumPages()
	for s := 0; s < 3; s++ {
		if err := tab.Scan(func([]float64, float64) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := tab.Stats()
	if st.Reads != pages {
		t.Errorf("warm pool should read each page once, got %d reads for %d pages", st.Reads, pages)
	}
	if st.Hits < 2*pages {
		t.Errorf("expected ≥ %d hits, got %d", 2*pages, st.Hits)
	}
}

func TestInsertDimMismatch(t *testing.T) {
	tab := NewMemTable("t", 3)
	if err := tab.Insert([]float64{1, 2}, 1); err == nil {
		t.Error("wrong-dimension insert accepted")
	}
}

func sortedMultiset(tab *Table) map[[2]float64]int {
	out := map[[2]float64]int{}
	tab.Scan(func(x []float64, y float64) error {
		out[[2]float64{x[0], y}]++
		return nil
	})
	return out
}

func TestShufflePreservesRowsMem(t *testing.T) {
	tab := NewMemTable("t", 4)
	fillTable(t, tab, 97, 4, 5)
	before := sortedMultiset(tab)
	if err := tab.Shuffle(rand.New(rand.NewSource(6))); err != nil {
		t.Fatal(err)
	}
	after := sortedMultiset(tab)
	if len(before) != len(after) {
		t.Fatalf("multiset size changed: %d -> %d", len(before), len(after))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("row %v count changed %d -> %d", k, v, after[k])
		}
	}
	if tab.Len() != 97 {
		t.Errorf("Len changed to %d", tab.Len())
	}
}

func TestShufflePreservesRowsDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tbl")
	tab, err := CreateDiskTable(path, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Remove()
	fillTable(t, tab, 97, 4, 7)
	before := sortedMultiset(tab)
	if err := tab.Shuffle(rand.New(rand.NewSource(8))); err != nil {
		t.Fatal(err)
	}
	after := sortedMultiset(tab)
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("disk shuffle lost row %v", k)
		}
	}
}

func TestShuffleActuallyPermutes(t *testing.T) {
	tab := NewMemTable("t", 1)
	for i := 0; i < 100; i++ {
		tab.Insert([]float64{float64(i)}, 1)
	}
	tab.Shuffle(rand.New(rand.NewSource(9)))
	moved := 0
	for i := 0; i < 100; i++ {
		x, _ := tab.At(i)
		if x[0] != float64(i) {
			moved++
		}
	}
	if moved < 50 {
		t.Errorf("only %d/100 rows moved; not a real shuffle", moved)
	}
}

func TestAvgAgg(t *testing.T) {
	tab := NewMemTable("t", 2)
	vals := []float64{1, 2, 3, 4}
	for _, v := range vals {
		tab.Insert([]float64{0, 0}, v)
	}
	drv := &driver{table: tab, agg: &avgAgg{}, epochs: 1}
	out, epochs, err := drv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if epochs != 1 {
		t.Errorf("epochs = %d", epochs)
	}
	if got := out.(float64); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("AVG = %v, want 2.5", got)
	}
	// Empty table average is 0 by convention.
	a := &avgAgg{}
	a.Initialize(nil)
	if a.Terminate().(float64) != 0 {
		t.Error("empty AVG should be 0")
	}
}

// The equivalence at the heart of the architecture: one driver epoch
// over an unshuffled table is exactly one pass of the sgd engine with
// the identity permutation. The UDA path and the library path must
// produce bitwise-identical models.
func TestSGDAggMatchesEngine(t *testing.T) {
	const m, d, k, b = 157, 6, 3, 10
	tab := NewMemTable("t", d)
	xs, ys := fillTable(t, tab, m, d, 10)
	for i := range xs {
		vec.Normalize(xs[i])
	}
	// Rebuild the table with normalized rows.
	tab = NewMemTable("t", d)
	for i := range xs {
		tab.Insert(xs[i], ys[i])
	}
	f := loss.NewLogistic(1e-2, 0)
	p := f.Params()
	step := sgd.StronglyConvexPaper(p.Beta, p.Gamma)

	agg := newSGDAgg(d, f, step, b, 1e2)
	agg.SetEpochRows(m) // merge the 157 mod 10 remainder like the engine
	drv := &driver{table: tab, agg: agg, epochs: k}
	out, _, err := drv.Run()
	if err != nil {
		t.Fatal(err)
	}
	udaW := out.([]float64)

	ident := make([]int, m)
	for i := range ident {
		ident[i] = i
	}
	res, err := sgd.Run(&sgd.SliceSamples{X: xs, Y: ys}, sgd.Config{
		Loss: f, Step: step, Passes: k, Batch: b, Radius: 1e2, Perm: ident,
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := range udaW {
		if math.Float64bits(udaW[j]) != math.Float64bits(res.W[j]) {
			t.Fatalf("UDA model differs from the engine's at coordinate %d: %v != %v", j, udaW[j], res.W[j])
		}
	}
	if agg.Updates() != res.Updates {
		t.Errorf("UDA updates %d != engine %d", agg.Updates(), res.Updates)
	}
}

func TestDriverValidation(t *testing.T) {
	if _, _, err := (&driver{}).Run(); err == nil {
		t.Error("nil table/agg accepted")
	}
	tab := NewMemTable("t", 1)
	tab.Insert([]float64{1}, 1)
	if _, _, err := (&driver{table: tab, agg: &avgAgg{}}).Run(); err == nil {
		t.Error("zero epochs accepted")
	}
}

func TestTrainUDAAllAlgorithms(t *testing.T) {
	f := loss.NewLogistic(1e-2, 0)
	for _, alg := range []Algorithm{Noiseless, OutputPerturb, AlgSCS13, AlgBST14} {
		tab := NewMemTable("t", 5)
		r := rand.New(rand.NewSource(12))
		for i := 0; i < 400; i++ {
			x := make([]float64, 5)
			for j := range x {
				x[j] = r.NormFloat64()
			}
			vec.Normalize(x)
			tab.Insert(x, math.Copysign(1, x[0]))
		}
		res, err := TrainUDA(tab, f, TrainConfig{
			Algorithm: alg,
			Budget:    dp.Budget{Epsilon: 1, Delta: 1e-6},
			Passes:    2, Batch: 10, Radius: 100,
			Rand: rand.New(rand.NewSource(13)),
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.W) != 5 {
			t.Fatalf("%v: model dim %d", alg, len(res.W))
		}
		if res.Epochs != 2 {
			t.Errorf("%v: epochs %d", alg, res.Epochs)
		}
		wantUpdates := 2 * 400 / 10
		if res.Updates != wantUpdates {
			t.Errorf("%v: updates %d, want %d", alg, res.Updates, wantUpdates)
		}
		switch alg {
		case Noiseless:
			if res.NoiseDraws != 0 {
				t.Errorf("noiseless drew noise %d times", res.NoiseDraws)
			}
		case OutputPerturb:
			if res.NoiseDraws != 1 {
				t.Errorf("ours drew noise %d times, want exactly 1", res.NoiseDraws)
			}
			if res.Sensitivity <= 0 {
				t.Error("ours reported no sensitivity")
			}
		default:
			if res.NoiseDraws != wantUpdates {
				t.Errorf("%v drew noise %d times, want one per batch (%d)", alg, res.NoiseDraws, wantUpdates)
			}
		}
	}
}

func TestTrainUDAErrors(t *testing.T) {
	f := loss.NewLogistic(0, 0)
	tab := NewMemTable("t", 2)
	tab.Insert([]float64{1, 0}, 1)
	r := rand.New(rand.NewSource(14))
	if _, err := TrainUDA(tab, f, TrainConfig{Algorithm: OutputPerturb, Budget: dp.Budget{Epsilon: 1}}); err == nil {
		t.Error("nil rand accepted")
	}
	if _, err := TrainUDA(NewMemTable("e", 2), f, TrainConfig{Rand: r}); err == nil {
		t.Error("empty table accepted")
	}
	if _, err := TrainUDA(tab, f, TrainConfig{Algorithm: OutputPerturb, Rand: r}); err == nil {
		t.Error("invalid budget accepted")
	}
	if _, err := TrainUDA(tab, f, TrainConfig{
		Algorithm: AlgBST14, Budget: dp.Budget{Epsilon: 1}, Radius: 1, Rand: r,
	}); err == nil {
		t.Error("BST14 with δ=0 accepted")
	}
	if _, err := TrainUDA(tab, f, TrainConfig{
		Algorithm: AlgBST14, Budget: dp.Budget{Epsilon: 1, Delta: 1e-6}, Rand: r,
	}); err == nil {
		t.Error("BST14 without radius accepted")
	}
	if _, err := TrainUDA(tab, f, TrainConfig{Algorithm: Algorithm(42), Rand: r}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestTrainUDASensitivityMatchesDP(t *testing.T) {
	f := loss.NewLogistic(1e-2, 0)
	p := f.Params()
	tab := NewMemTable("t", 3)
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 300; i++ {
		x := []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		vec.Normalize(x)
		tab.Insert(x, 1)
	}
	res, err := TrainUDA(tab, f, TrainConfig{
		Algorithm: OutputPerturb, Budget: dp.Budget{Epsilon: 1},
		Passes: 7, Batch: 5, Rand: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := dp.SensitivityStronglyConvex(p.L, p.Gamma, 300)
	if math.Abs(res.Sensitivity-want) > 1e-15 {
		t.Errorf("sensitivity %v, want %v", res.Sensitivity, want)
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, a := range []Algorithm{Noiseless, OutputPerturb, AlgSCS13, AlgBST14, Algorithm(9)} {
		if a.String() == "" {
			t.Error("empty Algorithm string")
		}
	}
}

func TestTableSamplesInterface(t *testing.T) {
	var _ sgd.Samples = (*Table)(nil)
}

// TestTrainUDANegativePassesOrBatch: TrainUDA rejects a negative Passes
// or Batch under every algorithm, with an error naming the field.
func TestTrainUDANegativePassesOrBatch(t *testing.T) {
	f := loss.NewLogistic(1e-2, 0)
	tab := NewMemTable("t", 3)
	fillTable(t, tab, 50, 3, 21)
	for _, alg := range []Algorithm{Noiseless, OutputPerturb, AlgSCS13, AlgBST14} {
		for field, cfg := range map[string]TrainConfig{
			"Passes": {Passes: -1, Batch: 5},
			"Batch":  {Passes: 2, Batch: -1},
		} {
			cfg.Algorithm, cfg.Budget, cfg.Radius = alg, dp.Budget{Epsilon: 1, Delta: 1e-5}, 10
			cfg.NoShuffle, cfg.Rand = true, rand.New(rand.NewSource(22))
			if _, err := TrainUDA(tab, f, cfg); err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%v with negative %s: err = %v, want one naming %s", alg, field, err, field)
			}
		}
	}
}
