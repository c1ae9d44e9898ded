package dist_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"boltondp/internal/account"
	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dist"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/store"
)

// bitsEqual pins bit-for-bit identity — the parity contract is exact,
// not approximate.
func bitsEqual(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: dim %d != %d", tag, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: w[%d] = %x, want %x — distributed run diverged from single-process Sharded", tag, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// pool is a loopback coordinator/worker deployment: n in-process
// workers behind httptest servers, registered with one coordinator.
type pool struct {
	coord   *dist.Coordinator
	workers []*dist.Worker
	urls    []string
}

func newPool(t testing.TB, n int) *pool {
	t.Helper()
	p := &pool{coord: dist.NewCoordinator(dist.CoordinatorConfig{
		Retries: 1, Backoff: time.Millisecond,
	})}
	p.addWorkers(t, n, nil)
	return p
}

// addWorkers spins up n workers (optionally behind a middleware wrapper
// — the fault-injection hook) and registers them.
func (p *pool) addWorkers(t testing.TB, n int, wrap func(i int, h http.Handler) http.Handler) {
	t.Helper()
	for i := 0; i < n; i++ {
		wk := dist.NewWorker()
		h := http.Handler(wk.Handler())
		if wrap != nil {
			h = wrap(len(p.workers), h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		t.Cleanup(func() { wk.Close() })
		if err := p.coord.Register(context.Background(), ts.URL); err != nil {
			t.Fatalf("Register: %v", err)
		}
		p.workers = append(p.workers, wk)
		p.urls = append(p.urls, ts.URL)
	}
}

// sources builds the two training sets the parity walls run on, each
// as a store file the workers open and the single-process baseline
// trains on: "store" is a sparse synthetic set, "inmemory" a dense
// in-memory set written to a temp store — the way dpcoord -sim hands
// its simulator data to workers.
func sources(t *testing.T) map[string]*store.Reader {
	t.Helper()
	sparse := data.SparseSynthetic(rand.New(rand.NewSource(99)), 240, 30, 6, 0.1)
	dense := data.Synthetic(rand.New(rand.NewSource(98)), data.GenConfig{M: 240, D: 30, Classes: 2, Spread: 1.5})
	return map[string]*store.Reader{
		"inmemory": dist.TempStore(t, data.FromDense(dense)),
		"store":    dist.TempStore(t, sparse),
	}
}

// TestDistParitySharded is the headline acceptance test: a
// 1-coordinator + P-worker loopback run is bit-identical to the
// single-process Sharded(P) run under a fixed seed — P ∈ {1, 2, 4},
// noiseless and private, in-memory and store-backed, models and (for
// the private case) accountant ledgers compared bit for bit.
func TestDistParitySharded(t *testing.T) {
	f := loss.NewLogistic(1e-2, 0)
	p := f.Params()

	for name, rd := range sources(t) {
		src := dist.NewStoreSource(rd)
		for _, P := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/P%d", name, P), func(t *testing.T) {
				t.Run("noiseless", func(t *testing.T) {
					pool := newPool(t, 2)
					m := src.Rows()
					n := engine.MinShard(m, P)
					spec := dist.TrainSpec{
						Loss:    mustLossSpec(t, f),
						Step:    dist.StepSpec{Kind: dist.StepSqrt, Beta: p.Beta, M: n, C: 0.5},
						Batch:   8,
						Radius:  50,
						Average: true,
					}
					step := sgd.SqrtConvex(p.Beta, n, 0.5)

					want, err := engine.Run(rd, engine.Config{
						Strategy: engine.Sharded, Workers: P,
						SGD: sgd.Config{
							Loss: f, Step: step, Passes: 3, Batch: 8,
							Radius: 50, Average: true,
							Rand: rand.New(rand.NewSource(7)),
						},
					})
					if err != nil {
						t.Fatalf("engine.Run: %v", err)
					}
					got, err := pool.coord.Train(context.Background(), src, dist.Job{
						ID: "parity", Spec: spec, Shards: P, Passes: 3,
					}, rand.New(rand.NewSource(7)))
					if err != nil {
						t.Fatalf("coord.Train: %v", err)
					}
					bitsEqual(t, "W", got.W, want.W)
					bitsEqual(t, "WAvg", got.WAvg, want.WAvg)
					if got.Updates != want.Updates || got.Passes != want.Passes {
						t.Fatalf("updates/passes %d/%d, want %d/%d", got.Updates, got.Passes, want.Updates, want.Passes)
					}
					if len(got.ShardModels) != P {
						t.Fatalf("ShardModels holds %d shards, want %d", len(got.ShardModels), P)
					}
				})

				// The private rows share one comparison; the extra
				// options must reach both executors through the same
				// plan — a warm start (the job's W0) and a forced
				// Algorithm 1 on this strongly convex loss.
				w0 := make([]float64, src.Dim())
				for i := range w0 {
					w0[i] = 0.01 * float64(i%7-3)
				}
				for _, row := range []struct {
					name  string
					extra []core.Option
				}{
					{"private", nil},
					{"private-warmstart", []core.Option{core.WithWarmStart(w0)}},
					{"private-forced-convex", []core.Option{core.WithConvexity(core.ConvexityConvex)}},
				} {
					t.Run(row.name, func(t *testing.T) {
						pool := newPool(t, 2)
						opts := func(acct *account.Accountant) []core.Option {
							return append([]core.Option{
								core.WithStrategy(engine.Sharded, P),
								core.WithBudget(dp.Budget{Epsilon: 0.5}), core.WithAccountant(acct),
								core.WithPasses(3), core.WithBatch(8), core.WithRadius(1 / 1e-2),
								core.WithRand(rand.New(rand.NewSource(11))),
							}, row.extra...)
						}

						wantAcct := account.MustNew(dp.Budget{Epsilon: 2})
						want, err := core.TrainCtx(context.Background(), rd, f, opts(wantAcct)...)
						if err != nil {
							t.Fatalf("core.TrainCtx: %v", err)
						}

						gotAcct := account.MustNew(dp.Budget{Epsilon: 2})
						got, err := core.TrainDistributed(context.Background(), pool.coord, src, f, opts(gotAcct)...)
						if err != nil {
							t.Fatalf("core.TrainDistributed: %v", err)
						}

						bitsEqual(t, "W (private)", got.W, want.W)
						bitsEqual(t, "NonPrivate", got.NonPrivate, want.NonPrivate)
						if math.Float64bits(got.Sensitivity) != math.Float64bits(want.Sensitivity) {
							t.Fatalf("Sensitivity %v != %v", got.Sensitivity, want.Sensitivity)
						}
						if math.Float64bits(got.NoiseNorm) != math.Float64bits(want.NoiseNorm) {
							t.Fatalf("NoiseNorm %v != %v", got.NoiseNorm, want.NoiseNorm)
						}
						if !gotAcct.Ledger().Same(wantAcct.Ledger()) {
							t.Fatalf("ledgers differ:\n got %+v\nwant %+v", gotAcct.Ledger(), wantAcct.Ledger())
						}
					})
				}
			})
		}
	}
}

// TestDistParityAveragedPrivate covers the iterate-averaged private
// release (the model the paper's convergence results are stated for):
// the averaged distributed model, perturbed, must still match bitwise.
func TestDistParityAveragedPrivate(t *testing.T) {
	rd := sources(t)["store"]
	src := dist.NewStoreSource(rd)
	f := loss.NewLogistic(1e-2, 0)
	base := []core.Option{
		core.WithBudget(dp.Budget{Epsilon: 1, Delta: 1e-6}),
		core.WithPasses(2), core.WithBatch(4), core.WithRadius(100), core.WithAverage(),
		core.WithStrategy(engine.Sharded, 2),
	}

	pool := newPool(t, 2)
	want, err := core.TrainCtx(context.Background(), rd, f,
		append(base, core.WithRand(rand.New(rand.NewSource(5))))...)
	if err != nil {
		t.Fatalf("core.TrainCtx: %v", err)
	}
	got, err := core.TrainDistributed(context.Background(), pool.coord, src, f,
		append(base, core.WithRand(rand.New(rand.NewSource(5))))...)
	if err != nil {
		t.Fatalf("core.TrainDistributed: %v", err)
	}
	bitsEqual(t, "W (averaged, (ε,δ))", got.W, want.W)
	bitsEqual(t, "NonPrivate", got.NonPrivate, want.NonPrivate)
}

// TestTrainDistributedRejections pins the option surface: parameters
// whose semantics need the whole dataset mid-run (or change the
// randomness schedule) are refused up front, not silently dropped.
func TestTrainDistributedRejections(t *testing.T) {
	pool := newPool(t, 1)
	ds := data.Synthetic(rand.New(rand.NewSource(3)), data.GenConfig{M: 40, D: 5, Classes: 2, Spread: 1})
	src := dist.NewStoreSource(dist.TempStore(t, data.FromDense(ds)))
	f := loss.NewLogistic(1e-2, 0)
	acct := account.MustNew(dp.Budget{Epsilon: 4})
	base := []core.Option{
		core.WithBudget(dp.Budget{Epsilon: 1}),
		core.WithAccountant(acct),
		core.WithRand(rand.New(rand.NewSource(1))),
	}
	cases := map[string]struct {
		opt core.Option
		f   loss.Function
	}{
		"progress":                         {core.WithProgress(func(int, float64) {}), f},
		"averagetail":                      {core.WithAverageTail(), f},
		"freshperm":                        {core.WithFreshPerm(), f},
		"gradperturb":                      {core.WithGradPerturb(1, 1), f},
		"forced-strongly-convex-on-convex": {core.WithConvexity(core.ConvexityStronglyConvex), loss.NewLogistic(0, 0)},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			opts := append(append([]core.Option{}, base...), tc.opt)
			if _, err := core.TrainDistributed(context.Background(), pool.coord, src, tc.f, opts...); err == nil {
				t.Fatalf("%s accepted; want rejection", name)
			}
			if spent := acct.Spent(); spent != (dp.Budget{}) {
				t.Fatalf("%s was rejected after reserving %v; rejections must leave the accountant untouched", name, spent)
			}
		})
	}
}

func mustLossSpec(t testing.TB, f loss.Function) dist.LossSpec {
	t.Helper()
	s, err := dist.LossSpecFor(f)
	if err != nil {
		t.Fatalf("LossSpecFor: %v", err)
	}
	return s
}
