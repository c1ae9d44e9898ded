package cli

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"boltondp/internal/eval"
	"boltondp/internal/serve"
)

func TestParseDPServeDefaults(t *testing.T) {
	cfg, err := ParseDPServe([]string{"-models", "reg"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != ":8080" || cfg.ModelsDir != "reg" || cfg.ModelPath != "" ||
		cfg.Live != "" || cfg.Workers < 1 || cfg.MaxBatch != 0 {
		t.Errorf("defaults: %+v", cfg)
	}
}

func TestParseDPServeTable(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
		chk  func(*DPServeConfig) bool
	}{
		{
			name: "registry with live and addr",
			args: []string{"-models", "reg", "-live", "protein", "-addr", "127.0.0.1:9090", "-workers", "2"},
			ok:   true,
			chk: func(c *DPServeConfig) bool {
				return c.ModelsDir == "reg" && c.Live == "protein" && c.Addr == "127.0.0.1:9090" && c.Workers == 2
			},
		},
		{
			name: "single model file",
			args: []string{"-model", "m.json", "-max-batch", "100"},
			ok:   true,
			chk:  func(c *DPServeConfig) bool { return c.ModelPath == "m.json" && c.MaxBatch == 100 },
		},
		{name: "no model source", args: nil, ok: false},
		{name: "conflicting sources", args: []string{"-models", "reg", "-model", "m.json"}, ok: false},
		{name: "live without registry", args: []string{"-model", "m.json", "-live", "x"}, ok: false},
		{name: "bad address no port", args: []string{"-models", "reg", "-addr", "localhost"}, ok: false},
		{name: "bad address garbage", args: []string{"-models", "reg", "-addr", "host:port:extra"}, ok: false},
		{name: "zero workers", args: []string{"-models", "reg", "-workers", "0"}, ok: false},
		{name: "negative max-batch", args: []string{"-models", "reg", "-max-batch", "-1"}, ok: false},
		{name: "bad flag value", args: []string{"-models", "reg", "-workers", "nope"}, ok: false},
		{name: "unknown flag", args: []string{"-models", "reg", "-nope"}, ok: false},
		{
			name: "admission knobs",
			args: []string{"-models", "reg", "-max-inflight", "8", "-max-queue", "16", "-queue-timeout", "250ms"},
			ok:   true,
			chk: func(c *DPServeConfig) bool {
				return c.MaxInflight == 8 && c.MaxQueue == 16 && c.QueueTimeout == 250*time.Millisecond
			},
		},
		{
			name: "watch with interval",
			args: []string{"-models", "reg", "-watch", "-watch-interval", "100ms"},
			ok:   true,
			chk:  func(c *DPServeConfig) bool { return c.Watch && c.WatchInterval == 100*time.Millisecond },
		},
		{
			name: "canary with pct",
			args: []string{"-models", "reg", "-canary", "cand", "-canary-pct", "25"},
			ok:   true,
			chk:  func(c *DPServeConfig) bool { return c.Canary == "cand" && c.CanaryPct == 25 },
		},
		{name: "negative max-inflight", args: []string{"-models", "reg", "-max-inflight", "-1"}, ok: false},
		{name: "queue without inflight", args: []string{"-models", "reg", "-max-queue", "4"}, ok: false},
		{name: "queue-timeout without inflight", args: []string{"-models", "reg", "-queue-timeout", "1s"}, ok: false},
		{name: "canary-pct out of range", args: []string{"-models", "reg", "-canary", "c", "-canary-pct", "101"}, ok: false},
		{name: "watch without registry", args: []string{"-model", "m.json", "-watch"}, ok: false},
		{name: "canary without registry", args: []string{"-model", "m.json", "-canary", "c"}, ok: false},
	}
	for _, tc := range cases {
		cfg, err := ParseDPServe(tc.args, io.Discard)
		if tc.ok != (err == nil) {
			t.Errorf("%s: err = %v, want ok=%t", tc.name, err, tc.ok)
			continue
		}
		if tc.ok && tc.chk != nil && !tc.chk(cfg) {
			t.Errorf("%s: parsed %+v", tc.name, cfg)
		}
	}
}

func TestBuildDPServeErrors(t *testing.T) {
	empty := t.TempDir()
	multi := t.TempDir()
	for _, name := range []string{"a", "b"} {
		if err := eval.SaveClassifier(filepath.Join(multi, name+".json"), &eval.Linear{W: []float64{1, 2}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string]*DPServeConfig{
		"empty registry":     {ModelsDir: empty},
		"ambiguous live":     {ModelsDir: multi},
		"unknown live":       {ModelsDir: multi, Live: "c"},
		"missing model file": {ModelPath: filepath.Join(empty, "nope.json")},
	}
	for name, cfg := range cases {
		if _, _, err := buildDPServe(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The same multi-model registry works once -live picks a version.
	reg, srv, err := buildDPServe(&DPServeConfig{ModelsDir: multi, Live: "b", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if srv == nil || reg.Live() == nil || reg.Live().Name != "b" {
		t.Errorf("live %v", reg.Live())
	}
}

// TestBuildDPServeCanaryAndAdmission: -canary and -max-inflight arrive
// wired into the built service.
func TestBuildDPServeCanaryAndAdmission(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"stable", "cand"} {
		if err := eval.SaveClassifier(filepath.Join(dir, name+".json"), &eval.Linear{W: []float64{1, 2}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	reg, srv, err := buildDPServe(&DPServeConfig{
		ModelsDir: dir, Live: "stable", Workers: 1,
		Canary: "cand", CanaryPct: 20, MaxInflight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cm, pct, _, _ := reg.Canary(); cm == nil || cm.Name != "cand" || pct != 20 {
		t.Errorf("canary not wired: %v %d", cm, pct)
	}
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	var health struct {
		Admission *struct {
			MaxInflight int `json:"maxInflight"`
		} `json:"admission"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Admission == nil || health.Admission.MaxInflight != 2 {
		t.Errorf("admission gate not wired: %s", w.Body.String())
	}
	// An unknown canary name fails the build, not the first request.
	if _, _, err := buildDPServe(&DPServeConfig{ModelsDir: dir, Live: "stable", Canary: "nope", CanaryPct: 20}); err == nil {
		t.Error("unknown canary name accepted")
	}
}

// TestTrainPublishServe is the subsystem's end-to-end story: dpsgd
// trains and publishes into a registry directory, dpserve builds a
// service over it, and a prediction comes back over the HTTP handler
// with the privacy metadata intact.
func TestTrainPublishServe(t *testing.T) {
	dir := t.TempDir()
	out, err := runQuick(t, func(c *DPSGDConfig) { c.Publish = dir })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `model published to `+dir+` as "protein" (live)`) {
		t.Errorf("publish confirmation missing: %q", out)
	}

	cfg, err := ParseDPServe([]string{"-models", dir}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	reg, srv, err := buildDPServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := reg.Live()
	if live == nil || live.Name != "protein" || live.Meta["algorithm"] != "ours" || live.Meta["epsilon"] != "0.1" {
		t.Fatalf("live model %+v", live)
	}

	h := srv.Handler()
	row := serve.Row{Idx: []int{0, live.Dim - 1}, Val: []float64{0.5, -0.5}}
	body, _ := json.Marshal(map[string]any{"idx": row.Idx, "val": row.Val})
	req := httptest.NewRequest("POST", "/predict", strings.NewReader(string(body)))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("predict: %d %s", w.Code, w.Body.String())
	}
	var resp struct {
		Model string  `json:"model"`
		Label float64 `json:"label"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Model != "protein" || (resp.Label != 1 && resp.Label != -1) {
		t.Errorf("response %+v", resp)
	}
}

func TestRunDPSGDPublishBadNameFailsFast(t *testing.T) {
	// A data-file stem Publish would reject must error before training
	// (and before even opening the file — nothing exists at this path).
	_, err := runQuick(t, func(c *DPSGDConfig) {
		c.DataPath = "/nonexistent/.hidden.libsvm"
		c.Publish = t.TempDir()
	})
	if err == nil || !strings.Contains(err.Error(), "invalid model name") {
		t.Errorf("err = %v, want invalid-model-name", err)
	}
}

func TestRunDPSGDPublishNameFromDataPath(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "fraud.libsvm")
	var b strings.Builder
	for i := 0; i < 120; i++ {
		if i%2 == 0 {
			b.WriteString("1 1:0.8 2:0.1\n")
		} else {
			b.WriteString("-1 1:-0.8 2:0.1\n")
		}
	}
	if err := writeFile(dataPath, b.String()); err != nil {
		t.Fatal(err)
	}
	regDir := filepath.Join(dir, "reg")
	out, err := runQuick(t, func(c *DPSGDConfig) {
		c.DataPath = dataPath
		c.Eps = 4
		c.Publish = regDir
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `as "fraud" (live)`) {
		t.Errorf("publish name not derived from data file: %q", out)
	}
	reg, err := serve.NewRegistry(regDir)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Live() == nil || reg.Live().Name != "fraud" || reg.Live().Dim != 2 {
		t.Errorf("republished registry live %+v", reg.Live())
	}
}
