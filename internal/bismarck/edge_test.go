package bismarck

import (
	"errors"
	"math/rand"
	"testing"

	"boltondp/internal/loss"
	"boltondp/internal/sgd"
)

func TestCreateDiskTableErrors(t *testing.T) {
	if _, err := CreateDiskTable("/nonexistent-dir/t.tbl", 3, 4); err == nil {
		t.Error("bad path accepted")
	}
	if _, err := CreateDiskTable(t.TempDir()+"/t.tbl", 0, 4); err == nil {
		t.Error("dim 0 accepted")
	}
}

func TestScanErrorPropagates(t *testing.T) {
	tab := NewMemTable("t", 2)
	for i := 0; i < 10; i++ {
		tab.Insert([]float64{1, 2}, 1)
	}
	boom := errors.New("boom")
	seen := 0
	err := tab.Scan(func(x []float64, y float64) error {
		seen++
		if seen == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("scan error not propagated: %v", err)
	}
	if seen != 3 {
		t.Errorf("scan continued after error: %d rows", seen)
	}
}

func TestEmptyTableBasics(t *testing.T) {
	tab := NewMemTable("empty", 4)
	if tab.Len() != 0 || tab.NumPages() != 0 {
		t.Errorf("empty table: len=%d pages=%d", tab.Len(), tab.NumPages())
	}
	if tab.Name() != "empty" {
		t.Errorf("Name = %q", tab.Name())
	}
	if err := tab.Scan(func([]float64, float64) error {
		t.Fatal("callback on empty table")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	tab := NewMemTable("t", 1)
	tab.Insert([]float64{1}, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range At did not panic")
		}
	}()
	tab.At(1)
}

func TestShuffleRequiresRand(t *testing.T) {
	tab := NewMemTable("t", 1)
	tab.Insert([]float64{1}, 1)
	if err := tab.Shuffle(nil); err == nil {
		t.Error("nil rand accepted")
	}
}

func TestAvgAggCarriesNoStateBetweenEpochs(t *testing.T) {
	tab := NewMemTable("t", 1)
	for i := 0; i < 4; i++ {
		tab.Insert([]float64{0}, float64(i)) // labels 0..3, mean 1.5
	}
	drv := &driver{table: tab, agg: &avgAgg{}, epochs: 3}
	out, epochs, err := drv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if epochs != 3 {
		t.Errorf("epochs %d", epochs)
	}
	// AVG re-initializes each epoch, so three epochs still give 1.5.
	if got := out.(float64); got != 1.5 {
		t.Errorf("AVG after 3 epochs = %v, want 1.5", got)
	}
}

func TestSGDAggStatePersistsAcrossEpochs(t *testing.T) {
	// The SGD aggregate's global update counter must keep advancing
	// across epochs — decreasing schedules depend on it.
	tab := NewMemTable("t", 2)
	for i := 0; i < 20; i++ {
		tab.Insert([]float64{0.5, 0.5}, 1)
	}
	f := loss.NewLogistic(1e-2, 0)
	p := f.Params()
	agg := newSGDAgg(2, f, sgd.StronglyConvexPaper(p.Beta, p.Gamma), 5, 10)
	drv := &driver{table: tab, agg: agg, epochs: 3}
	if _, _, err := drv.Run(); err != nil {
		t.Fatal(err)
	}
	if agg.Updates() != 3*4 {
		t.Errorf("updates %d, want 12 (counter must persist across epochs)", agg.Updates())
	}
}

func TestDiskTableCloseAndRemove(t *testing.T) {
	path := t.TempDir() + "/t.tbl"
	tab, err := CreateDiskTable(path, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	tab.Insert([]float64{1, 2}, 1)
	if err := tab.Remove(); err != nil {
		t.Fatal(err)
	}
	// File must be gone.
	if _, err := CreateDiskTable(path, 2, 4); err != nil {
		t.Fatalf("path not reusable after Remove: %v", err)
	}
}

func TestTrainUDAWithShuffle(t *testing.T) {
	// Default (shuffling) path: model differs from NoShuffle run but
	// training still works.
	tab := buildTable(t, 300, 4, 30)
	f := loss.NewLogistic(1e-2, 0)
	res, err := TrainUDA(tab, f, TrainConfig{
		Algorithm: Noiseless, Passes: 2, Batch: 5,
		Rand: rand.New(rand.NewSource(31)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.W) != 4 || res.Updates != 2*60 {
		t.Errorf("result %+v", res)
	}
}
