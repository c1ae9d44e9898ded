package sgd

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"boltondp/internal/loss"
)

// Both kernels must return ctx.Err() promptly on a mid-pass cancel.
func TestRunCtxCancelBothKernels(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sp, de := randomSparseSamples(r, 400, 100, 10)
	f := loss.NewLogistic(1e-2, 0)
	for _, tc := range []struct {
		name string
		s    Samples
	}{
		{"sparse kernel", sp},
		{"dense kernel", de},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			calls := 0
			cfg := Config{
				Loss: f, Step: Constant(0.05), Passes: 100, Batch: 1,
				Rand: rand.New(rand.NewSource(1)), Ctx: ctx,
				// Cancel from inside the run, via the progress hook at
				// the end of pass 2.
				Progress: func(pass int, risk float64) {
					calls++
					if pass == 2 {
						cancel()
					}
				},
			}
			if (tc.name == "sparse kernel") != UsesSparseKernel(tc.s, cfg) {
				t.Fatal("kernel dispatch mismatch")
			}
			_, err := Run(tc.s, cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if calls != 2 {
				t.Errorf("run continued for %d passes after cancel at pass 2", calls)
			}
		})
	}
}

// A nil Ctx (every pre-existing caller) must behave exactly as before:
// same model, same pass count.
func TestRunNilCtxUnchanged(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	sp, _ := randomSparseSamples(r, 200, 50, 5)
	f := loss.NewLogistic(1e-2, 0)
	base := Config{Loss: f, Step: Constant(0.05), Passes: 3, Batch: 4,
		Rand: rand.New(rand.NewSource(2))}
	withCtx := base
	withCtx.Ctx = context.Background()
	withCtx.Rand = rand.New(rand.NewSource(2))
	a, err := Run(sp, base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sp, withCtx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatalf("ctx changed the model at %d: %g != %g", i, a.W[i], b.W[i])
		}
	}
	if a.Passes != b.Passes || a.Updates != b.Updates {
		t.Errorf("ctx changed the run shape: %+v vs %+v", a, b)
	}
}

// The per-update ctx poll must not allocate: the steady-state sparse
// update stays at 0 allocs/op with a live context installed (the same
// gate as TestSparseUpdateAllocs, plus the ctx branch).
func TestSparseCtxCheckAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	sp, _ := randomSparseSamples(r, 512, 800, 40)
	f := loss.NewLogistic(1e-2, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		Loss: f, Step: Constant(0.05), Passes: 1, Batch: 16,
		NoPerm: true, Radius: 1.0, Ctx: ctx,
	}
	if !UsesSparseKernel(sp, cfg) {
		t.Fatal("source not sparse-dispatched")
	}
	// One warm-up run, then measure whole-run allocations: a per-update
	// allocation in the ctx path would show up as ≥ updatesPerPass(=32)
	// extra allocs over the fixed run-setup cost (~10).
	if _, err := Run(sp, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Run(sp, cfg); err != nil {
			t.Fatal(err)
		}
	})
	cfgNil := cfg
	cfgNil.Ctx = nil
	allocsNil := testing.AllocsPerRun(20, func() {
		if _, err := Run(sp, cfgNil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != allocsNil {
		t.Fatalf("ctx check allocates: %v allocs/run with ctx, %v without", allocs, allocsNil)
	}
}

// countingCtx is a live context that counts its Err polls.
type countingCtx struct {
	context.Context
	polls int
}

func (c *countingCtx) Err() error {
	c.polls++
	return c.Context.Err()
}

// TestCtxPolledOncePerUpdate pins the cost model Config.Ctx documents
// as an exact count instead of a timing: Run polls Err exactly once per
// update — never per row, never in the per-pass risk evaluation — on
// both kernels, at b = 1 and b = 16.
func TestCtxPolledOncePerUpdate(t *testing.T) {
	sp, de := randomSparseSamples(rand.New(rand.NewSource(6)), 200, 50, 5)
	f := loss.NewLogistic(1e-2, 0)
	for _, src := range []struct {
		name string
		s    Samples
	}{{"sparse", sp}, {"dense", de}} {
		for _, b := range []int{1, 16} {
			ctx := &countingCtx{Context: context.Background()}
			cfg := Config{
				Loss: f, Step: Constant(0.05), Passes: 30, Batch: b,
				Rand: rand.New(rand.NewSource(1)), Ctx: ctx,
			}
			if (src.name == "sparse") != UsesSparseKernel(src.s, cfg) {
				t.Fatal("kernel dispatch mismatch")
			}
			res, err := Run(src.s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ctx.polls != res.Updates {
				t.Errorf("%s b=%d: %d Err polls for %d updates", src.name, b, ctx.polls, res.Updates)
			}
		}
	}
}
