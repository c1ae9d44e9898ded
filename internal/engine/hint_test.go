package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"boltondp/internal/data"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

// The epoch loops' look-ahead (sgd's Touch contract) is a hint and only
// a hint: a source that offers it and the same source with the method
// hidden must train to the same bits, draw the same randomness and see
// the same At/AtSparse calls.

// hideDense hides every optional method of a concurrency-safe dense
// source (data.Dataset has no Shard), so shard views of it are plain
// range views without the hint.
type hideDense struct{ sgd.Samples }

// hideSparse hides the hint of a sparse source but keeps Shard, whose
// views are hidden in turn (sharing a SparseDataset's row header across
// goroutines would race).
type hideSparse struct{ sgd.SparseSamples }

func (h hideSparse) Shard(lo, hi int) sgd.Samples {
	return hideSparse{h.SparseSamples.(Sharder).Shard(lo, hi).(sgd.SparseSamples)}
}

func offersHint(s sgd.Samples) bool {
	_, ok := s.(toucher)
	return ok
}

func TestHintParityWall(t *testing.T) {
	const m = 230
	dense := synth(5, m, 9)
	sparse := data.SparseSynthetic(rand.New(rand.NewSource(6)), m, 40, 6, 0.05)
	sources := []struct {
		name          string
		hinted, plain sgd.Samples
	}{
		{"dense", dense, hideDense{dense}},
		{"sparse", sparse, hideSparse{sparse}},
	}
	for _, src := range sources {
		if !offersHint(src.hinted) || offersHint(src.plain) {
			t.Fatalf("%s: hint offered %v / hidden twin %v", src.name, offersHint(src.hinted), offersHint(src.plain))
		}
		if !offersHint(shardView(src.hinted, 3, 50)) || offersHint(shardView(src.plain, 3, 50)) {
			t.Fatalf("%s: a shard view must offer the hint exactly when its source does", src.name)
		}
	}

	f := loss.NewLogistic(1e-2, 0)
	variants := []struct {
		name string
		set  func(c *sgd.Config)
	}{
		{"one-perm", func(c *sgd.Config) {}},
		{"fresh-perm", func(c *sgd.Config) { c.FreshPerm = true }},
		{"perm-given", func(c *sgd.Config) { c.Perm = rand.New(rand.NewSource(77)).Perm(m) }},
		{"t0", func(c *sgd.Config) { c.T0 = 41 }},
		{"average", func(c *sgd.Config) { c.Average = true }},
		{"average-tail", func(c *sgd.Config) { c.AverageTail = true }},
	}
	execs := []struct {
		name string
		cfg  Config
	}{
		{"sequential", Config{Strategy: Sequential}},
		{"sharded-2", Config{Strategy: Sharded, Workers: 2}},
		{"kernel-workers-2", Config{Strategy: Sequential, SGD: sgd.Config{KernelWorkers: 2}}},
	}
	for _, src := range sources {
		for _, b := range []int{1, 10, 50, m} {
			for _, v := range variants {
				for _, ex := range execs {
					if ex.cfg.Strategy == Sharded && (v.name == "perm-given" || v.name == "average-tail" || v.name == "t0") {
						continue // Sharded rejects Perm and AverageTail and owns T0
					}
					t.Run(fmt.Sprintf("%s/b=%d/%s/%s", src.name, b, v.name, ex.name), func(t *testing.T) {
						run := func(s sgd.Samples) (*Result, int64) {
							cfg := ex.cfg
							cfg.SGD.Loss, cfg.SGD.Step = f, sgd.InvSqrtT(1)
							cfg.SGD.Passes, cfg.SGD.Batch, cfg.SGD.Radius = 3, b, 50
							cfg.SGD.Rand = rand.New(rand.NewSource(9))
							v.set(&cfg.SGD)
							res, err := Run(s, cfg)
							if err != nil {
								t.Fatal(err)
							}
							return res, cfg.SGD.Rand.Int63() // the next draw pins how many were consumed
						}
						want, wantDraw := run(src.plain)
						got, gotDraw := run(src.hinted)
						if !reflect.DeepEqual(got.W, want.W) || !reflect.DeepEqual(got.WAvg, want.WAvg) {
							t.Error("the hint changed the model bits")
						}
						if got.Updates != want.Updates || got.Passes != want.Passes {
							t.Errorf("bookkeeping %d/%d, without the hint %d/%d", got.Updates, got.Passes, want.Updates, want.Passes)
						}
						if gotDraw != wantDraw {
							t.Error("the hint changed the number of Rand draws")
						}
					})
				}
			}
		}
	}
}

// countDense / countSparse count row accesses and offer no hint.
type countDense struct {
	sgd.Samples
	at int
}

func (c *countDense) At(i int) ([]float64, float64) { c.at++; return c.Samples.At(i) }

type countSparse struct {
	sgd.SparseSamples
	at, atSparse int
}

func (c *countSparse) At(i int) ([]float64, float64) { c.at++; return c.SparseSamples.At(i) }
func (c *countSparse) AtSparse(i int) (*vec.Sparse, float64) {
	c.atSparse++
	return c.SparseSamples.AtSparse(i)
}

// TestHintCallCounts: a source without the hint sees exactly the row
// accesses the update rule needs — m·k dense, and on the sparse kernel
// m·k at b = 1 and 2·m·k above it (margins, then the apply pass).
func TestHintCallCounts(t *testing.T) {
	const m, k = 120, 3
	dense := synth(8, m, 7)
	sparse := data.SparseSynthetic(rand.New(rand.NewSource(9)), m, 30, 5, 0)
	for _, b := range []int{1, 10, 50} {
		cfg := sgd.Config{
			Loss: loss.NewLogistic(1e-2, 0), Step: sgd.InvSqrtT(1),
			Passes: k, Batch: b, Rand: rand.New(rand.NewSource(2)),
		}
		cd := &countDense{Samples: dense}
		if _, err := sgd.Run(cd, cfg); err != nil {
			t.Fatal(err)
		}
		if cd.at != m*k {
			t.Errorf("dense b=%d: %d At calls, want %d", b, cd.at, m*k)
		}
		cs := &countSparse{SparseSamples: sparse}
		cfg.Rand = rand.New(rand.NewSource(2))
		if _, err := sgd.Run(cs, cfg); err != nil {
			t.Fatal(err)
		}
		want := 2 * m * k
		if b == 1 {
			want = m * k
		}
		if cs.atSparse != want || cs.at != 0 {
			t.Errorf("sparse b=%d: %d AtSparse / %d At calls, want %d / 0", b, cs.atSparse, cs.at, want)
		}
	}
}

// TestHintStaysInsideView: a view forwards the hint in parent
// coordinates, so its last row is the parent's row hi-1 and nothing
// past it. Touch returns the sum of the words it read, which names the
// row.
func TestHintStaysInsideView(t *testing.T) {
	const lo, hi = 7, 31
	dense := synth(3, 40, 19)
	v := RangeView(dense, lo, hi).(toucher)
	for _, i := range []int{0, hi - lo - 1} {
		if got, want := v.Touch(i), dense.Touch(lo+i); got != want {
			t.Errorf("dense view row %d: touched %v, parent row %d is %v", i, got, lo+i, want)
		}
	}
	if dense.Touch(hi-1) == dense.Touch(hi) {
		t.Fatal("fixture rows are indistinguishable")
	}
}
