package cli

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"boltondp/internal/account"
	"boltondp/internal/eval"
	"boltondp/internal/store"
	"boltondp/internal/vec"
)

func TestParseDPSGDDefaults(t *testing.T) {
	cfg, err := ParseDPSGD(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Sim != "protein" || cfg.Algo != "ours" || cfg.Eps != 0.1 ||
		cfg.Passes != 10 || cfg.Batch != 50 || cfg.Lambda != 1e-3 {
		t.Errorf("defaults: %+v", cfg)
	}
}

func TestParseDPSGDFlags(t *testing.T) {
	cfg, err := ParseDPSGD([]string{
		"-sim", "kdd", "-algo", "bst14", "-eps", "2", "-delta", "1e-6",
		"-passes", "3", "-batch", "7", "-lambda", "0.01", "-seed", "9",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Sim != "kdd" || cfg.Algo != "bst14" || cfg.Eps != 2 ||
		cfg.Delta != 1e-6 || cfg.Passes != 3 || cfg.Batch != 7 || cfg.Seed != 9 {
		t.Errorf("parsed: %+v", cfg)
	}
}

func TestParseDPSGDBadFlag(t *testing.T) {
	if _, err := ParseDPSGD([]string{"-passes", "nope"}, io.Discard); err == nil {
		t.Error("bad flag value accepted")
	}
}

// The -timeout flag accepts Go duration syntax, defaults to no limit,
// and rejects garbage and negative values.
func TestParseDPSGDTimeout(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		want    time.Duration
		wantErr bool
	}{
		{name: "default is no limit", args: nil, want: 0},
		{name: "seconds", args: []string{"-timeout", "30s"}, want: 30 * time.Second},
		{name: "minutes", args: []string{"-timeout", "2m"}, want: 2 * time.Minute},
		{name: "compound", args: []string{"-timeout", "1h30m"}, want: 90 * time.Minute},
		{name: "millis", args: []string{"-timeout", "250ms"}, want: 250 * time.Millisecond},
		{name: "explicit zero", args: []string{"-timeout", "0"}, want: 0},
		{name: "negative rejected", args: []string{"-timeout", "-5s"}, wantErr: true},
		{name: "bare number rejected", args: []string{"-timeout", "30"}, wantErr: true},
		{name: "garbage rejected", args: []string{"-timeout", "soon"}, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := ParseDPSGD(tc.args, io.Discard)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ParseDPSGD(%v) accepted", tc.args)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Timeout != tc.want {
				t.Errorf("Timeout = %v, want %v", cfg.Timeout, tc.want)
			}
		})
	}
}

// An expiring -timeout cancels training through the context plumbing:
// the run errors with context.DeadlineExceeded instead of finishing.
func TestRunDPSGDTimeoutCancelsTraining(t *testing.T) {
	cfg, err := ParseDPSGD(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scale = 0.2
	cfg.Passes = 500 // long enough that a 1ns deadline always hits first
	cfg.Timeout = time.Nanosecond
	var out bytes.Buffer
	err = RunDPSGDCtx(context.Background(), cfg, &out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// A cancelled caller context cancels the same way.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Timeout = 0
	if err := RunDPSGDCtx(ctx, cfg, &out); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Private runs stamp the accountant's ledger into saved-model metadata.
func TestRunDPSGDSaveCarriesLedger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	if _, err := runQuick(t, func(c *DPSGDConfig) { c.SavePath = path }); err != nil {
		t.Fatal(err)
	}
	_, meta, err := eval.LoadClassifier(path)
	if err != nil {
		t.Fatal(err)
	}
	l, ok, err := account.LedgerFromMeta(meta)
	if err != nil || !ok {
		t.Fatalf("saved model carries no ledger: ok=%v err=%v meta=%v", ok, err, meta)
	}
	if l.TotalEpsilon != 0.1 || l.SpentEpsilon != 0.1 {
		t.Errorf("ledger totals: %+v", l)
	}
	if len(l.Entries) != 1 || !strings.HasPrefix(l.Entries[0].Label, "train(") {
		t.Errorf("ledger entries: %+v", l.Entries)
	}
}

func runQuick(t *testing.T, mutate func(*DPSGDConfig)) (string, error) {
	t.Helper()
	cfg, err := ParseDPSGD(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scale = 0.005
	cfg.Passes = 2
	if mutate != nil {
		mutate(cfg)
	}
	var out bytes.Buffer
	err = RunDPSGDCtx(context.Background(), cfg, &out)
	return out.String(), err
}

func TestRunDPSGDAllAlgorithms(t *testing.T) {
	for _, algo := range []string{"ours", "noiseless", "scs13"} {
		out, err := runQuick(t, func(c *DPSGDConfig) { c.Algo = algo })
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out, "test  accuracy:") {
			t.Errorf("%s: missing accuracy line in %q", algo, out)
		}
	}
	// BST14 needs δ > 0.
	out, err := runQuick(t, func(c *DPSGDConfig) { c.Algo = "bst14"; c.Delta = 1e-6 })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "per-batch noise draws") {
		t.Errorf("bst14 output: %q", out)
	}
}

func TestParseDPSGDStrategyFlags(t *testing.T) {
	cfg, err := ParseDPSGD([]string{"-strategy", "sharded", "-workers", "4"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Strategy != "sharded" || cfg.Workers != 4 {
		t.Errorf("parsed: %+v", cfg)
	}
	if def, _ := ParseDPSGD(nil, io.Discard); def.Strategy != "sequential" || def.Workers != 1 {
		t.Errorf("defaults: %+v", def)
	}
}

func TestRunDPSGDStrategies(t *testing.T) {
	for _, algo := range []string{"ours", "noiseless"} {
		out, err := runQuick(t, func(c *DPSGDConfig) {
			c.Algo = algo
			c.Strategy = "sharded"
			c.Workers = 2
		})
		if err != nil {
			t.Fatalf("%s sharded: %v", algo, err)
		}
		if !strings.Contains(out, "strategy=sharded workers=2") {
			t.Errorf("%s sharded: missing strategy line in %q", algo, out)
		}
	}
	// Streaming pins passes to 1 regardless of -passes.
	out, err := runQuick(t, func(c *DPSGDConfig) { c.Strategy = "streaming" })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "strategy=streaming") || !strings.Contains(out, "test  accuracy:") {
		t.Errorf("streaming output: %q", out)
	}
	// White-box algorithms reject non-sequential strategies — and a
	// bare -workers N, which would otherwise be silently ignored.
	if _, err := runQuick(t, func(c *DPSGDConfig) { c.Algo = "scs13"; c.Strategy = "sharded"; c.Workers = 2 }); err == nil {
		t.Error("scs13 sharded accepted")
	}
	if _, err := runQuick(t, func(c *DPSGDConfig) { c.Algo = "scs13"; c.Workers = 8 }); err == nil {
		t.Error("scs13 with -workers accepted (would run sequentially while printing workers=8)")
	}
	if _, err := runQuick(t, func(c *DPSGDConfig) { c.Strategy = "nope" }); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestRunDPSGDHuber(t *testing.T) {
	out, err := runQuick(t, func(c *DPSGDConfig) { c.LossName = "huber" })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "huber") {
		t.Errorf("loss name missing: %q", out)
	}
}

func TestRunDPSGDErrors(t *testing.T) {
	for name, mutate := range map[string]func(*DPSGDConfig){
		"bad sim":        func(c *DPSGDConfig) { c.Sim = "nope" },
		"bad loss":       func(c *DPSGDConfig) { c.LossName = "nope" },
		"bad algo":       func(c *DPSGDConfig) { c.Algo = "nope" },
		"multiclass sim": func(c *DPSGDConfig) { c.Sim = "mnist" },
		"bst14 no delta": func(c *DPSGDConfig) { c.Algo = "bst14" },
		"missing file":   func(c *DPSGDConfig) { c.DataPath = "/nonexistent.libsvm" },
		// A negative -passes or -batch is an error for every algorithm,
		// never a panic or a shortened run priced at the whole ε.
		"scs13 negative passes": func(c *DPSGDConfig) { c.Algo = "scs13"; c.Passes = -1 },
		"bst14 negative passes": func(c *DPSGDConfig) { c.Algo = "bst14"; c.Delta = 1e-5; c.Passes = -1 },
		"bst14 negative batch":  func(c *DPSGDConfig) { c.Algo = "bst14"; c.Delta = 1e-5; c.Batch = -1 },
	} {
		if _, err := runQuick(t, mutate); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRunDPSGDSaveModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	out, err := runQuick(t, func(c *DPSGDConfig) { c.SavePath = path })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "model written to") {
		t.Errorf("save confirmation missing: %q", out)
	}
	model, meta, err := eval.LoadClassifier(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := model.(*eval.Linear); !ok {
		t.Errorf("loaded %T", model)
	}
	if meta["algorithm"] != "ours" || meta["epsilon"] != "0.1" {
		t.Errorf("meta %v", meta)
	}
}

func TestRunDPSGDFromLIBSVMFile(t *testing.T) {
	// Build a tiny separable LIBSVM file and train on it end to end.
	dir := t.TempDir()
	path := filepath.Join(dir, "train.libsvm")
	var b strings.Builder
	for i := 0; i < 120; i++ {
		if i%2 == 0 {
			b.WriteString("1 1:0.8 2:0.1\n")
		} else {
			b.WriteString("-1 1:-0.8 2:0.1\n")
		}
	}
	if err := writeFile(path, b.String()); err != nil {
		t.Fatal(err)
	}
	out, err := runQuick(t, func(c *DPSGDConfig) {
		c.DataPath = path
		c.Eps = 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "d=2") {
		t.Errorf("dimension not picked up from file: %q", out)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// A low-density LIBSVM file must route through the CSR representation
// (and report doing so); the dense 2-feature file above stays dense.
func TestRunDPSGDSparseRouting(t *testing.T) {
	dir := t.TempDir()
	sparsePath := filepath.Join(dir, "sparse.libsvm")
	var b strings.Builder
	for i := 0; i < 120; i++ {
		// 2 of 50 features per row → density 0.04, well under threshold.
		if i%2 == 0 {
			b.WriteString("1 3:0.8 50:0.1\n")
		} else {
			b.WriteString("-1 7:-0.8 50:0.1\n")
		}
	}
	if err := writeFile(sparsePath, b.String()); err != nil {
		t.Fatal(err)
	}
	out, err := runQuick(t, func(c *DPSGDConfig) {
		c.DataPath = sparsePath
		c.Eps = 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "using the sparse execution kernel") {
		t.Errorf("sparse routing not reported: %q", out)
	}
	if !strings.Contains(out, "d=50") || !strings.Contains(out, "test  accuracy:") {
		t.Errorf("sparse run output: %q", out)
	}

	densePath := filepath.Join(dir, "dense.libsvm")
	b.Reset()
	for i := 0; i < 40; i++ {
		b.WriteString("1 1:0.5 2:0.5 3:0.5\n-1 1:-0.5 2:0.5 3:-0.5\n")
	}
	if err := writeFile(densePath, b.String()); err != nil {
		t.Fatal(err)
	}
	out, err = runQuick(t, func(c *DPSGDConfig) {
		c.DataPath = densePath
		c.Eps = 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "materializing dense rows") {
		t.Errorf("dense routing not reported: %q", out)
	}
}

// The -cache / -chunk flags: parse validation.
func TestParseDPSGDCacheFlags(t *testing.T) {
	cfg, err := ParseDPSGD([]string{"-data", "x.libsvm", "-cache", "x.bolt", "-chunk", "128"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CachePath != "x.bolt" || cfg.ChunkRows != 128 {
		t.Errorf("parsed: %+v", cfg)
	}
	for _, tc := range [][]string{
		{"-cache", "x.bolt"}, // -cache without -data
		{"-data", "x.libsvm", "-cache", "x.bolt", "-chunk", "-1"}, // negative chunk
		{"-data", "x.libsvm", "-chunk", "64"},                     // -chunk without -cache
	} {
		if _, err := ParseDPSGD(tc, io.Discard); err == nil {
			t.Errorf("args %v accepted", tc)
		}
	}
}

// sparseLIBSVMFile writes a small separable sparse LIBSVM file.
func sparseLIBSVMFile(t *testing.T, dir string, rows int) string {
	t.Helper()
	path := filepath.Join(dir, "train.libsvm")
	var b strings.Builder
	for i := 0; i < rows; i++ {
		if i%2 == 0 {
			b.WriteString("1 3:0.8 50:0.1\n")
		} else {
			b.WriteString("-1 7:-0.8 50:0.1\n")
		}
	}
	if err := writeFile(path, b.String()); err != nil {
		t.Fatal(err)
	}
	return path
}

// End to end: -cache converts once, trains from the store, and a
// second run reuses the cache file instead of re-parsing the LIBSVM.
func TestRunDPSGDCacheConvertsOnceThenReuses(t *testing.T) {
	dir := t.TempDir()
	dataPath := sparseLIBSVMFile(t, dir, 200)
	cachePath := filepath.Join(dir, "train.bolt")

	out, err := runQuick(t, func(c *DPSGDConfig) {
		c.DataPath = dataPath
		c.CachePath = cachePath
		c.ChunkRows = 32
		c.Eps = 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "store: converted") {
		t.Errorf("first run did not convert: %q", out)
	}
	if !strings.Contains(out, "sparse execution kernel over on-disk chunks") {
		t.Errorf("store routing not reported: %q", out)
	}
	if !strings.Contains(out, "d=50") || !strings.Contains(out, "test  accuracy:") {
		t.Errorf("store-backed run output: %q", out)
	}
	if _, err := os.Stat(cachePath); err != nil {
		t.Fatalf("cache file missing: %v", err)
	}

	// Second run: the LIBSVM file is not needed anymore.
	if err := os.Remove(dataPath); err != nil {
		t.Fatal(err)
	}
	out, err = runQuick(t, func(c *DPSGDConfig) {
		c.DataPath = dataPath // still set; must not be read
		c.CachePath = cachePath
		c.Eps = 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "store: reusing") {
		t.Errorf("second run did not reuse the cache: %q", out)
	}
}

// Store-backed training works under every execution strategy.
func TestRunDPSGDCacheStrategies(t *testing.T) {
	dir := t.TempDir()
	dataPath := sparseLIBSVMFile(t, dir, 200)
	cachePath := filepath.Join(dir, "train.bolt")
	for _, tc := range []struct {
		strategy string
		workers  int
		passes   int
	}{
		{"sequential", 1, 2},
		{"sharded", 3, 2},
		{"streaming", 1, 1},
	} {
		out, err := runQuick(t, func(c *DPSGDConfig) {
			c.DataPath = dataPath
			c.CachePath = cachePath
			c.Strategy = tc.strategy
			c.Workers = tc.workers
			c.Passes = tc.passes
			c.Eps = 4
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.strategy, err)
		}
		if !strings.Contains(out, "test  accuracy:") {
			t.Errorf("%s: output %q", tc.strategy, out)
		}
	}
}

// A corrupt cache file fails closed with a hint, instead of training
// on damaged data.
func TestRunDPSGDCacheCorruptFailsClosed(t *testing.T) {
	dir := t.TempDir()
	dataPath := sparseLIBSVMFile(t, dir, 120)
	cachePath := filepath.Join(dir, "train.bolt")
	if err := writeFile(cachePath, "not a store file at all"); err != nil {
		t.Fatal(err)
	}
	_, err := runQuick(t, func(c *DPSGDConfig) {
		c.DataPath = dataPath
		c.CachePath = cachePath
	})
	if err == nil || !strings.Contains(err.Error(), "delete it to reconvert") {
		t.Fatalf("corrupt cache err = %v", err)
	}
}

// A context cancelled in the middle of a -cache conversion stops it at
// the next poll (one per 4096 rows), with the context's own error, no
// scanner goroutine left behind and no temp segment left on disk.
func TestScanLIBSVMNormalizedCancel(t *testing.T) {
	dir := t.TempDir()
	dataPath := sparseLIBSVMFile(t, dir, 20000)
	cache := filepath.Join(dir, "cache")
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	_, err := store.AppendSegmentScan(cache, 0, store.Options{RemapLabels01: true},
		func(emit func(x *vec.Sparse, y float64) error) error {
			return scanLIBSVMNormalized(ctx, dataPath, func(x *vec.Sparse, y float64) error {
				if emitted++; emitted == 5000 {
					cancel()
				}
				return emit(x, y)
			})
		})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled as-is", err)
	}
	if emitted != 8192 {
		t.Fatalf("emitted %d rows after a cancel at row 5000, want 8192 (the next poll)", emitted)
	}
	ents, err := os.ReadDir(cache)
	if err != nil || len(ents) != 0 {
		t.Fatalf("cancelled conversion left %v in the cache directory (err %v)", ents, err)
	}
	for i := 0; runtime.NumGoroutine() != base; i++ {
		if i == 2000 {
			t.Fatalf("%d goroutines after the cancelled scan, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond) // one that has signalled its WaitGroup may still be exiting
	}
}
