package cli

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"boltondp/internal/data"
	"boltondp/internal/dist"
	"boltondp/internal/eval"
	"boltondp/internal/store"
)

func TestParseDPWorkerTable(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
		addr string
	}{
		{name: "defaults", args: nil, ok: true, addr: ":8090"},
		{name: "explicit addr", args: []string{"-addr", "127.0.0.1:9191"}, ok: true, addr: "127.0.0.1:9191"},
		{name: "bad addr no port", args: []string{"-addr", "localhost"}, ok: false},
		{name: "unknown flag", args: []string{"-nope"}, ok: false},
	}
	for _, tc := range cases {
		cfg, err := ParseDPWorker(tc.args, io.Discard)
		if tc.ok != (err == nil) {
			t.Errorf("%s: err = %v, want ok=%t", tc.name, err, tc.ok)
			continue
		}
		if tc.ok && cfg.Addr != tc.addr {
			t.Errorf("%s: addr %q, want %q", tc.name, cfg.Addr, tc.addr)
		}
	}
}

func TestParseDPCoordTable(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
		chk  func(*DPCoordConfig) bool
	}{
		{
			name: "worker list with spaces and defaults",
			args: []string{"-workers", "http://a:1, http://b:2"},
			ok:   true,
			chk: func(c *DPCoordConfig) bool {
				return len(c.Workers) == 2 && c.Workers[1] == "http://b:2" &&
					c.Shards == 0 && c.Retries == 2 && c.Sim == "protein"
			},
		},
		{
			name: "full training surface",
			args: []string{"-workers", "http://a:1", "-store", "x.bolt", "-shards", "4",
				"-loss", "huber", "-lambda", "0.01", "-eps", "2", "-passes", "5",
				"-epoch-timeout", "30s", "-save", "m.json"},
			ok: true,
			chk: func(c *DPCoordConfig) bool {
				return c.StorePath == "x.bolt" && c.Shards == 4 && c.LossName == "huber" &&
					c.EpochTimeout == 30*time.Second && c.SavePath == "m.json"
			},
		},
		{name: "no workers", args: nil, ok: false},
		{name: "empty worker list", args: []string{"-workers", " , "}, ok: false},
		{name: "relative worker url", args: []string{"-workers", "a:8090"}, ok: false},
		{name: "negative shards", args: []string{"-workers", "http://a:1", "-shards", "-1"}, ok: false},
		{name: "negative retries", args: []string{"-workers", "http://a:1", "-retries", "-1"}, ok: false},
		{name: "negative timeout", args: []string{"-workers", "http://a:1", "-timeout", "-1s"}, ok: false},
		{name: "unknown flag", args: []string{"-workers", "http://a:1", "-nope"}, ok: false},
	}
	for _, tc := range cases {
		cfg, err := ParseDPCoord(tc.args, io.Discard)
		if tc.ok != (err == nil) {
			t.Errorf("%s: err = %v, want ok=%t", tc.name, err, tc.ok)
			continue
		}
		if tc.ok && tc.chk != nil && !tc.chk(cfg) {
			t.Errorf("%s: parsed %+v", tc.name, cfg)
		}
	}
}

// distWorkers starts n in-process dpworker handlers and returns their
// URLs — the loopback pool every coordinator CLI test trains against.
func distWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		wk := dist.NewWorker()
		ts := httptest.NewServer(wk.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { wk.Close() })
		urls[i] = ts.URL
	}
	return urls
}

// TestDPCoordTrainPublishServe is the distributed end-to-end story:
// dpcoord trains a private model over two in-process workers,
// publishes it into a registry, and the dpserve stack serves it back
// with the ledger metadata intact.
func TestDPCoordTrainPublishServe(t *testing.T) {
	dir := t.TempDir()
	save := filepath.Join(t.TempDir(), "model.json")
	cfg, err := ParseDPCoord([]string{
		"-workers", strings.Join(distWorkers(t, 2), ","),
		"-sim", "protein", "-scale", "0.01",
		"-passes", "2", "-batch", "10", "-eps", "0.5",
		"-save", save, "-publish", dir,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := RunDPCoordCtx(context.Background(), cfg, &out); err != nil {
		t.Fatalf("RunDPCoordCtx: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{
		"shards=2 over 2 worker(s)",
		"sensitivity Δ₂=",
		"train accuracy:",
		"test  accuracy:",
		`model published to ` + dir + ` as "protein" (live)`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	_, meta, err := eval.LoadClassifier(save)
	if err != nil {
		t.Fatalf("LoadClassifier(-save): %v", err)
	}
	if meta["algorithm"] != "ours-dist" || meta["workers"] != "2" || meta["epsilon"] != "0.5" {
		t.Errorf("saved meta %+v", meta)
	}
	if meta["dp.spent"] == "" || meta["dp.total"] == "" {
		t.Errorf("accountant stamp missing from meta %+v", meta)
	}

	scfg, err := ParseDPServe([]string{"-models", dir}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	reg, srv, err := buildDPServe(scfg)
	if err != nil {
		t.Fatal(err)
	}
	live := reg.Live()
	if live == nil || live.Name != "protein" || live.Meta["algorithm"] != "ours-dist" {
		t.Fatalf("live model %+v", live)
	}
	req := httptest.NewRequest("GET", "/healthz", nil)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz over a dpcoord-published registry: %d", w.Code)
	}
}

// TestDPCoordStoreSource trains from an on-disk columnar store: the
// wire carries chunk ranges, the worker opens the same file.
func TestDPCoordStoreSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "train.bolt")
	w, err := store.Create(path, store.Options{ChunkRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	ds := data.SparseSynthetic(rand.New(rand.NewSource(3)), 200, 20, 5, 0.1)
	for i := 0; i < ds.Len(); i++ {
		sp, y := ds.AtSparse(i)
		if err := w.Append(sp, y); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	cfg, err := ParseDPCoord([]string{
		"-workers", strings.Join(distWorkers(t, 2), ","),
		"-store", path, "-shards", "2",
		"-passes", "2", "-batch", "8", "-eps", "1",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := RunDPCoordCtx(context.Background(), cfg, &out); err != nil {
		t.Fatalf("RunDPCoordCtx over store: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "workers train chunk ranges") {
		t.Errorf("store banner missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "train accuracy:") {
		t.Errorf("no accuracy line:\n%s", out.String())
	}
}

// TestDPCoordNoWorkersReachable: a coordinator whose whole pool is
// unreachable must fail at registration, before reserving any budget.
func TestDPCoordNoWorkersReachable(t *testing.T) {
	cfg, err := ParseDPCoord([]string{
		"-workers", "http://127.0.0.1:1", "-scale", "0.01",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	err = RunDPCoordCtx(context.Background(), cfg, io.Discard)
	if err == nil {
		t.Fatal("run with unreachable workers succeeded")
	}
	if !strings.Contains(err.Error(), "registering worker") {
		t.Errorf("error %q does not name the registration step", err)
	}
}

// TestDPWorkerGracefulShutdown runs the real listener loop: the worker
// binds an ephemeral port, announces it, serves a health check, and a
// context cancel shuts it down cleanly (exit nil — the same path
// SIGINT takes in cmd/dpworker).
func TestDPWorkerGracefulShutdown(t *testing.T) {
	cfg, err := ParseDPWorker([]string{"-addr", "127.0.0.1:0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	var out bytes.Buffer
	syncW := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return out.Write(p)
	})
	done := make(chan error, 1)
	go func() { done <- RunDPWorkerCtx(ctx, cfg, syncW) }()

	// The announce line carries the bound address.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("worker never announced its address")
		}
		mu.Lock()
		s := out.String()
		mu.Unlock()
		if i := strings.Index(s, "listening on "); i >= 0 {
			if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
				addr = strings.TrimSpace(s[i+len("listening on ") : i+j])
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get("http://" + addr + dist.PathHealthz)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not shut down")
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(out.String(), "dpworker: shutting down") {
		t.Errorf("shutdown banner missing:\n%s", out.String())
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
