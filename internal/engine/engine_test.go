package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"boltondp/internal/data"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

// synth builds a small separable binary dataset.
func synth(seed int64, m, d int) *data.Dataset {
	r := rand.New(rand.NewSource(seed))
	return data.Synthetic(r, data.GenConfig{Name: "t", M: m, D: d, Classes: 2, Spread: 0.4, Flip: 0.02})
}

func stronglyConvexCfg(f loss.Function, seed int64) sgd.Config {
	p := f.Params()
	return sgd.Config{
		Loss:   f,
		Step:   sgd.StronglyConvexPaper(p.Beta, p.Gamma),
		Passes: 3,
		Batch:  5,
		Radius: 100,
		Rand:   rand.New(rand.NewSource(seed)),
	}
}

// The headline contract: Sharded with one worker must be bit-for-bit
// identical to Sequential — same model, same iterate average, same
// counters — because it delegates to the same code path with the same
// randomness consumption.
func TestShardedOneWorkerEqualsSequential(t *testing.T) {
	ds := synth(1, 300, 4)
	f := loss.NewLogistic(1e-2, 0)
	for _, avg := range []bool{false, true} {
		c := stronglyConvexCfg(f, 42)
		c.Average = avg
		seq, err := Run(ds, Config{Strategy: Sequential, SGD: c})
		if err != nil {
			t.Fatal(err)
		}
		c2 := stronglyConvexCfg(f, 42)
		c2.Average = avg
		sh, err := Run(ds, Config{Strategy: Sharded, Workers: 1, SGD: c2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.W, sh.W) {
			t.Errorf("avg=%v: Sharded(1).W differs from Sequential.W", avg)
		}
		if !reflect.DeepEqual(seq.WAvg, sh.WAvg) {
			t.Errorf("avg=%v: Sharded(1).WAvg differs from Sequential.WAvg", avg)
		}
		if seq.Updates != sh.Updates || seq.Passes != sh.Passes {
			t.Errorf("avg=%v: counters differ: %d/%d vs %d/%d",
				avg, seq.Updates, seq.Passes, sh.Updates, sh.Passes)
		}
		if len(sh.ShardModels) != 1 || !reflect.DeepEqual(sh.ShardModels[0], sh.W) {
			t.Errorf("avg=%v: Sharded(1).ShardModels should be the single model", avg)
		}
	}
}

// Sharded runs must be deterministic for a fixed seed and worker count,
// regardless of goroutine scheduling.
func TestShardedDeterministic(t *testing.T) {
	ds := synth(2, 500, 5)
	f := loss.NewLogistic(1e-2, 0)
	run := func() *Result {
		c := stronglyConvexCfg(f, 7)
		c.Average = true
		res, err := Run(ds, Config{Strategy: Sharded, Workers: 4, SGD: c})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.W, b.W) || !reflect.DeepEqual(a.WAvg, b.WAvg) {
		t.Error("sharded run not deterministic under fixed seed")
	}
	if !reflect.DeepEqual(a.ShardModels, b.ShardModels) {
		t.Error("shard models not deterministic under fixed seed")
	}
	if a.Workers != 4 || a.Passes != 3 {
		t.Errorf("workers=%d passes=%d", a.Workers, a.Passes)
	}
	if want := 3 * (500 / 5); a.Updates != want {
		t.Errorf("updates %d, want %d", a.Updates, want)
	}
}

// Sharded training must still learn: the merged model of a multi-worker
// run should classify a separable dataset about as well as sequential.
func TestShardedConverges(t *testing.T) {
	ds := synth(3, 2000, 5)
	f := loss.NewLogistic(1e-2, 0)
	c := stronglyConvexCfg(f, 11)
	c.Passes = 5
	res, err := Run(ds, Config{Strategy: Sharded, Workers: 4, SGD: c})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < ds.Len(); i++ {
		x, y := ds.At(i)
		if math.Copysign(1, vec.Dot(res.W, x)) == y {
			correct++
		}
	}
	if acc := float64(correct) / float64(ds.Len()); acc < 0.9 {
		t.Errorf("sharded accuracy %.3f", acc)
	}
}

// Streaming must equal a sequential run over the identity permutation:
// same order, same updates, no Rand required.
func TestStreamingEqualsIdentityPerm(t *testing.T) {
	ds := synth(4, 240, 4)
	f := loss.NewLogistic(1e-2, 0)
	p := f.Params()
	ident := make([]int, ds.Len())
	for i := range ident {
		ident[i] = i
	}
	want, err := sgd.Run(ds, sgd.Config{
		Loss: f, Step: sgd.StronglyConvexPaper(p.Beta, p.Gamma),
		Passes: 1, Batch: 7, Radius: 100, Perm: ident,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(ds, Config{Strategy: Streaming, SGD: sgd.Config{
		Loss: f, Step: sgd.StronglyConvexPaper(p.Beta, p.Gamma),
		Batch: 7, Radius: 100, // Passes defaulted to 1, Rand deliberately nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.W, got.W) || want.Updates != got.Updates {
		t.Error("streaming differs from sequential over the identity permutation")
	}
}

// A sharded run over a data.Stream exercises the Sharder path: each
// shard gets a private scratch, rows keep their global identity, and
// the run is deterministic. The same must hold one level down — over a
// row-range view of the stream (scaling.go's train/test split idiom),
// whose Shard forwards to the parent.
func TestShardedStreamSource(t *testing.T) {
	s := data.NewStream(5, 500, 6, 0.4, 0)
	f := loss.NewLogistic(1e-2, 0)
	for name, src := range map[string]sgd.Samples{
		"stream": s,
		"view":   s.Shard(0, 400),
	} {
		run := func() []float64 {
			res, err := Run(src, Config{Strategy: Sharded, Workers: 4, SGD: stronglyConvexCfg(f, 13)})
			if err != nil {
				t.Fatal(err)
			}
			return res.W
		}
		if !reflect.DeepEqual(run(), run()) {
			t.Errorf("sharded %s run not deterministic", name)
		}
	}
}

// A sharded run over a CSR SparseDataset exercises its Sharder
// implementation: each worker scatters into a private scratch (the
// race detector guards the contract) and the run is deterministic.
func TestShardedSparseSource(t *testing.T) {
	ds := synth(9, 400, 6)
	sp := data.FromDense(ds)
	f := loss.NewLogistic(1e-2, 0)
	run := func() []float64 {
		res, err := Run(sp, Config{Strategy: Sharded, Workers: 4, SGD: stronglyConvexCfg(f, 19)})
		if err != nil {
			t.Fatal(err)
		}
		return res.W
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("sharded sparse run not deterministic")
	}
}

// Shard views must expose exactly the parent rows.
func TestShardViewsCoverSource(t *testing.T) {
	ds := synth(6, 103, 3)
	bounds := ShardBounds(ds.Len(), 4)
	total := 0
	prev := 0
	for _, b := range bounds {
		if b[0] != prev {
			t.Fatalf("gap at %d", b[0])
		}
		prev = b[1]
		total += b[1] - b[0]
		v := shardView(ds, b[0], b[1])
		for i := 0; i < v.Len(); i++ {
			gx, gy := v.At(i)
			wx, wy := ds.At(b[0] + i)
			if !reflect.DeepEqual(gx, wx) || gy != wy {
				t.Fatalf("shard row (%d,%d) differs from source row %d", b[0], i, b[0]+i)
			}
		}
	}
	if total != ds.Len() || prev != ds.Len() {
		t.Errorf("shards cover %d of %d rows", total, ds.Len())
	}
	if MinShard(103, 4) != 25 {
		t.Errorf("MinShard(103,4) = %d", MinShard(103, 4))
	}
	if MinShard(103, 1) != 103 {
		t.Errorf("MinShard(103,1) = %d", MinShard(103, 1))
	}
}

func TestRejections(t *testing.T) {
	ds := synth(8, 100, 3)
	f := loss.NewLogistic(1e-2, 0)
	base := func(seed int64) sgd.Config { return stronglyConvexCfg(f, seed) }

	cases := []struct {
		name string
		cfg  Config
	}{
		{"unknown strategy", Config{Strategy: Strategy(99), SGD: base(1)}},
		{"too many workers", Config{Strategy: Sharded, Workers: 101, SGD: base(2)}},
		{"streaming multi-pass", Config{Strategy: Streaming, SGD: base(3)}}, // Passes=3
		{"streaming fresh perm", Config{Strategy: Streaming, SGD: func() sgd.Config {
			c := base(4)
			c.Passes = 1
			c.FreshPerm = true
			return c
		}()}},
		{"sharded grad noise", Config{Strategy: Sharded, Workers: 2, SGD: func() sgd.Config {
			c := base(5)
			c.GradNoise = func(int, []float64) {}
			return c
		}()}},
		{"sharded fixed perm", Config{Strategy: Sharded, Workers: 2, SGD: func() sgd.Config {
			c := base(6)
			c.Perm = rand.New(rand.NewSource(1)).Perm(100)
			return c
		}()}},
		{"sharded no perm", Config{Strategy: Sharded, Workers: 2, SGD: func() sgd.Config {
			c := base(6)
			c.NoPerm = true
			return c
		}()}},
		{"sharded average tail", Config{Strategy: Sharded, Workers: 2, SGD: func() sgd.Config {
			c := base(7)
			c.AverageTail = true
			return c
		}()}},
		{"sharded nil rand", Config{Strategy: Sharded, Workers: 2, SGD: func() sgd.Config {
			c := base(8)
			c.Rand = nil
			return c
		}()}},
	}
	cases = append(cases,
		struct {
			name string
			cfg  Config
		}{"workers without sharded", Config{Strategy: Sequential, Workers: 4, SGD: base(9)}},
		struct {
			name string
			cfg  Config
		}{"workers with streaming", Config{Strategy: Streaming, Workers: 4, SGD: func() sgd.Config {
			c := base(10)
			c.Passes = 1
			return c
		}()}},
	)
	for _, tc := range cases {
		if _, err := Run(ds, tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// MinShard fails fast on impossible splits instead of returning 0
	// (which would inflate a downstream sensitivity to +Inf).
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MinShard(10, 20) did not panic")
			}
		}()
		MinShard(10, 20)
	}()
}

func TestParseStrategy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Strategy
	}{
		{"sequential", Sequential}, {"seq", Sequential}, {"", Sequential},
		{"Sharded", Sharded}, {"parallel", Sharded},
		{"streaming", Streaming}, {"STREAM", Streaming},
	} {
		got, err := ParseStrategy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseStrategy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
	if Sequential.String() != "sequential" || Sharded.String() != "sharded" || Streaming.String() != "streaming" {
		t.Error("Strategy.String mismatch")
	}
}
