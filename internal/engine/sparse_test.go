package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"boltondp/internal/data"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

// Strategy-blind dispatch: every strategy must produce the same model
// from the sparse representation as from the dense one (within 1e-12),
// consuming randomness identically, for every loss family.
func TestEngineSparseDenseParityAllStrategies(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	sp := data.SparseSynthetic(r, 240, 80, 8, 0.02)
	de := sp.ToDense()

	losses := []loss.Function{
		loss.NewLogistic(1e-2, 0),
		loss.NewHuber(0.1, 1e-2, 0),
		loss.NewLeastSquares(1e-2, 0),
	}
	type run struct {
		name string
		cfg  Config
	}
	mk := func(f loss.Function, strategy Strategy, workers, passes int, seed int64) Config {
		p := f.Params()
		return Config{
			Strategy: strategy,
			Workers:  workers,
			SGD: sgd.Config{
				Loss: f, Step: sgd.StronglyConvexPaper(p.Beta, p.Gamma),
				Passes: passes, Batch: 5, Radius: 50, Average: true,
				Rand: rand.New(rand.NewSource(seed)),
			},
		}
	}
	for _, f := range losses {
		runs := []run{
			{"sequential", mk(f, Sequential, 1, 3, 7)},
			{"sharded-4", mk(f, Sharded, 4, 3, 7)},
			{"streaming", func() Config {
				c := mk(f, Streaming, 1, 1, 7)
				c.SGD.Rand = nil
				c.SGD.NoPerm = false // Streaming sets it
				return c
			}()},
		}
		for _, rn := range runs {
			t.Run(fmt.Sprintf("%s/%s", f.Name(), rn.name), func(t *testing.T) {
				cs, cd := rn.cfg, rn.cfg
				if rn.cfg.SGD.Rand != nil {
					cs.SGD.Rand = rand.New(rand.NewSource(7))
					cd.SGD.Rand = rand.New(rand.NewSource(7))
				}
				rs, err := Run(sp, cs)
				if err != nil {
					t.Fatal(err)
				}
				rd, err := Run(de, cd)
				if err != nil {
					t.Fatal(err)
				}
				if rs.Updates != rd.Updates || rs.Passes != rd.Passes || rs.Workers != rd.Workers {
					t.Fatalf("bookkeeping: sparse %d/%d/%d dense %d/%d/%d",
						rs.Updates, rs.Passes, rs.Workers, rd.Updates, rd.Passes, rd.Workers)
				}
				if !vec.Equal(rs.W, rd.W, 1e-12) {
					t.Errorf("W diverged under %s", rn.name)
				}
				if rs.WAvg != nil && !vec.Equal(rs.WAvg, rd.WAvg, 1e-12) {
					t.Errorf("WAvg diverged under %s", rn.name)
				}
			})
		}
	}
}

// Shard views of sparse sources must stay on the sparse tier, both
// through a native Sharder implementation and through the engine's
// fallback RangeView.
func TestShardViewsPreserveSparseTier(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	sp := data.SparseSynthetic(r, 60, 20, 3, 0)
	cfg := sgd.Config{Loss: loss.NewLogistic(0, 0), Step: sgd.Constant(0.1), Passes: 1,
		Rand: rand.New(rand.NewSource(1))}

	if view := shardView(sp, 10, 40); !sgd.UsesSparseKernel(view, cfg) {
		t.Error("native Shard view dropped the sparse tier")
	}
	if view := RangeView(sp, 10, 40); !sgd.UsesSparseKernel(view, cfg) {
		t.Error("RangeView dropped the sparse tier")
	}
	// And the plain view must not claim a tier its source lacks.
	if view := RangeView(sp.ToDense(), 10, 40); sgd.UsesSparseKernel(view, cfg) {
		t.Error("RangeView invented a sparse tier for a dense source")
	}
	// Sparse range views enforce their bounds.
	view := RangeView(sp, 10, 40).(sgd.SparseSamples)
	if row, _ := view.AtSparse(0); row.NNZ() == 0 {
		t.Error("empty row through sparse range view")
	}
	defer func() {
		if recover() == nil {
			t.Error("sparse range view overrun not caught")
		}
	}()
	view.AtSparse(30)
}

// A sparse source must train under every strategy, and streaming must
// match the sequential single-pass natural-order run exactly.
func TestSparseStreamAcrossStrategies(t *testing.T) {
	s := data.SparseSynthetic(rand.New(rand.NewSource(5)), 4000, 1000, 30, 0.01)
	f := loss.NewLogistic(1e-2, 0)
	p := f.Params()
	base := sgd.Config{
		Loss: f, Step: sgd.StronglyConvexPaper(p.Beta, p.Gamma),
		Batch: 10, Radius: 100,
	}

	stream := base
	stream.Passes = 1
	resStream, err := Run(s, Config{Strategy: Streaming, SGD: stream})
	if err != nil {
		t.Fatal(err)
	}

	seqCfg := base
	seqCfg.Passes = 1
	seqCfg.NoPerm = true
	resSeq, err := Run(s, Config{Strategy: Sequential, SGD: seqCfg})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(resStream.W, resSeq.W, 0) {
		t.Error("streaming and natural-order sequential runs differ")
	}

	shardCfg := base
	shardCfg.Passes = 2
	shardCfg.Rand = rand.New(rand.NewSource(3))
	resShard, err := Run(s, Config{Strategy: Sharded, Workers: 4, SGD: shardCfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(resShard.ShardModels) != 4 {
		t.Fatalf("want 4 shard models, got %d", len(resShard.ShardModels))
	}
	// The trained model must actually separate the classes.
	correct := 0
	probe := 500
	for i := 0; i < probe; i++ {
		row, y := s.AtSparse(i)
		if math.Copysign(1, row.Dot(resShard.W)) == y {
			correct++
		}
	}
	if acc := float64(correct) / float64(probe); acc < 0.8 {
		t.Errorf("sharded sparse accuracy %v", acc)
	}
}
