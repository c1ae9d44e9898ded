package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"boltondp/internal/sgd"
)

// mergeCall is what one ShardEpoch call saw.
type mergeCall struct {
	w  []float64
	t0 int
}

// fakeEpochs records every call by (epoch, shard) — each slot is written
// by exactly one goroutine — and answers with res(i, e, w).
type fakeEpochs struct {
	calls [][]*mergeCall
	res   func(i, e int, w []float64) (*sgd.Result, error)
}

func newFakeEpochs(passes, P int, res func(i, e int, w []float64) (*sgd.Result, error)) *fakeEpochs {
	f := &fakeEpochs{calls: make([][]*mergeCall, passes), res: res}
	for e := range f.calls {
		f.calls[e] = make([]*mergeCall, P)
	}
	return f
}

func (f *fakeEpochs) epoch(i, e int, w []float64, t0 int) (*sgd.Result, error) {
	f.calls[e][i] = &mergeCall{w: append([]float64(nil), w...), t0: t0}
	return f.res(i, e, w)
}

// ran counts the shards called in epoch e.
func (f *fakeEpochs) ran(e int) int {
	n := 0
	for _, c := range f.calls[e] {
		if c != nil {
			n++
		}
	}
	return n
}

func mustPlan(t *testing.T, m, P int) *Plan {
	t.Helper()
	p, err := PlanShards(m, P)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMergeArithmetic pins the merge step with exact dyadic values: W is
// the uniform mean of the last epoch's shard models, each epoch starts
// from the previous merge, t0 is the shard's own running update count,
// and WAvg weights each epoch's cross-shard mean of iterate averages by
// that epoch's update count.
func TestMergeArithmetic(t *testing.T) {
	// updates[e][i] and iterate averages avg[e][i]; epoch 0 makes 2
	// updates in all, epoch 1 makes 6.
	updates := [][]int{{1, 1}, {3, 3}}
	avg := [][]float64{{2, 4}, {6, 10}}
	f := newFakeEpochs(2, 2, func(i, e int, w []float64) (*sgd.Result, error) {
		return &sgd.Result{
			W:       []float64{w[0] + float64(2*i+1)},
			WAvg:    []float64{avg[e][i]},
			Updates: updates[e][i],
		}, nil
	})
	w0 := []float64{0.5}
	res, err := mustPlan(t, 10, 2).Merge(context.Background(), 2, w0, 1, true, f.epoch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w0[0] != 0.5 {
		t.Fatalf("Merge wrote into W0: %v", w0)
	}
	// Epoch 0 from 0.5: shard models 1.5 and 3.5, merged 2.5.
	// Epoch 1 from 2.5: shard models 3.5 and 5.5, merged 4.5.
	want := [][]mergeCall{
		{{w: []float64{0.5}, t0: 0}, {w: []float64{0.5}, t0: 0}},
		{{w: []float64{2.5}, t0: 1}, {w: []float64{2.5}, t0: 1}},
	}
	for e := range want {
		for i := range want[e] {
			if got := f.calls[e][i]; got == nil || !reflect.DeepEqual(*got, want[e][i]) {
				t.Fatalf("epoch %d shard %d saw %+v, want %+v", e, i, got, want[e][i])
			}
		}
	}
	// (2·mean(2,4) + 6·mean(6,10)) / 8 = (6 + 48) / 8.
	if res.W[0] != 4.5 || res.WAvg[0] != 6.75 {
		t.Fatalf("W=%v WAvg=%v, want [4.5] and [6.75]", res.W, res.WAvg)
	}
	if res.Updates != 8 || res.Passes != 2 || res.Workers != 2 {
		t.Fatalf("updates/passes/workers %d/%d/%d, want 8/2/2", res.Updates, res.Passes, res.Workers)
	}
	if !reflect.DeepEqual(res.ShardModels, [][]float64{{3.5}, {5.5}}) {
		t.Fatalf("ShardModels %v, want the last epoch's [[3.5] [5.5]]", res.ShardModels)
	}

	noAvg, err := mustPlan(t, 10, 2).Merge(context.Background(), 1, nil, 1, false, newFakeEpochs(1, 2, f.res).epoch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if noAvg.WAvg != nil || noAvg.W[0] != 2 {
		t.Fatalf("without average: W=%v WAvg=%v, want [2] and nil", noAvg.W, noAvg.WAvg)
	}
}

// TestMergeFirstErrorInShardOrder: every shard of the failing epoch
// runs, and the error reported is the lowest failing shard's.
func TestMergeFirstErrorInShardOrder(t *testing.T) {
	f := newFakeEpochs(3, 4, func(i, e int, w []float64) (*sgd.Result, error) {
		if e == 1 && i >= 1 && i != 2 {
			return nil, fmt.Errorf("shard %d", i)
		}
		return &sgd.Result{W: []float64{0}, Updates: 1}, nil
	})
	_, err := mustPlan(t, 10, 4).Merge(context.Background(), 3, nil, 1, false, f.epoch, nil)
	if err == nil || err.Error() != "shard 1" {
		t.Fatalf("err = %v, want shard 1's", err)
	}
	if f.ran(1) != 4 || f.ran(2) != 0 {
		t.Fatalf("epoch 1 ran %d shards, epoch 2 ran %d; want 4 and 0", f.ran(1), f.ran(2))
	}
}

// TestMergeCtxCancelledBeforeEpoch: a context cancelled during epoch 1
// lets that epoch finish but starts no shard of epoch 2.
func TestMergeCtxCancelledBeforeEpoch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newFakeEpochs(4, 3, func(i, e int, w []float64) (*sgd.Result, error) {
		if e == 1 && i == 0 {
			cancel()
		}
		return &sgd.Result{W: []float64{0}, Updates: 1}, nil
	})
	_, err := mustPlan(t, 10, 3).Merge(ctx, 4, nil, 1, false, f.epoch, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if f.ran(0) != 3 || f.ran(1) != 3 || f.ran(2) != 0 || f.ran(3) != 0 {
		t.Fatalf("shards run per epoch %d %d %d %d, want 3 3 0 0", f.ran(0), f.ran(1), f.ran(2), f.ran(3))
	}
}

// TestMergeAfterSeesEveryPass: after sees every merged model with its
// 1-based pass, and the run's Passes counts every epoch.
func TestMergeAfterSeesEveryPass(t *testing.T) {
	f := newFakeEpochs(5, 2, func(i, e int, w []float64) (*sgd.Result, error) {
		return &sgd.Result{W: []float64{w[0] + 1}, Updates: 2}, nil
	})
	var seen []float64
	res, err := mustPlan(t, 10, 2).Merge(context.Background(), 5, nil, 1, false, f.epoch, func(pass int, w []float64) {
		if pass != len(seen)+1 {
			t.Errorf("after called with pass %d, want %d", pass, len(seen)+1)
		}
		seen = append(seen, w[0])
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, []float64{1, 2, 3, 4, 5}) {
		t.Fatalf("after saw merged models %v, want [1 2 3 4 5]", seen)
	}
	if res.Passes != 5 || res.Updates != 20 || res.W[0] != 5 || f.ran(4) != 2 {
		t.Fatalf("passes=%d updates=%d W=%v epoch-4 shards=%d; want 5, 20, [5], 2", res.Passes, res.Updates, res.W, f.ran(4))
	}
}
