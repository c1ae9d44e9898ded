package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"boltondp/internal/eval"
)

// testServer returns a handler over a registry holding a live binary
// model "lin" (dim 4, w = [1,1,-1,-1]) and a named multiclass model
// "ova" (3 classes over dim 2).
func testServer(t testing.TB, cfg Config) (*Registry, http.Handler) {
	t.Helper()
	reg, err := NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("ova", &eval.OneVsAll{W: [][]float64{{1, 0}, {0, 1}, {-1, -1}}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("lin", &eval.Linear{W: []float64{1, 1, -1, -1}}, map[string]string{"epsilon": "0.1"}); err != nil {
		t.Fatal(err)
	}
	// Publishing into a non-empty registry no longer steals live.
	if _, err := reg.SetLive("lin"); err != nil {
		t.Fatal(err)
	}
	return reg, New(reg, cfg).Handler()
}

func do(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	// Non-JSON bodies (the mux's own 405 page) yield a nil map; tests
	// that inspect fields will fail loudly on it.
	var out map[string]any
	json.Unmarshal(w.Body.Bytes(), &out)
	return w, out
}

func TestPredictDenseAndSparse(t *testing.T) {
	_, h := testServer(t, Config{})
	cases := []struct {
		name, body string
		label      float64
	}{
		{"dense positive", `{"x":[1,0,0,0]}`, 1},
		{"dense negative", `{"x":[0,0,1,0]}`, -1},
		{"sparse", `{"idx":[0],"val":[2]}`, 1},
		{"sparse out-of-order", `{"idx":[3,0],"val":[1,3]}`, 1},
		{"sparse duplicates summed", `{"idx":[2,2],"val":[1,1]}`, -1},
		{"named ova model", `{"model":"ova","x":[0.2,0.9]}`, 1},
		{"named ova sparse", `{"model":"ova","idx":[1],"val":[1]}`, 1},
	}
	for _, tc := range cases {
		w, out := do(t, h, "POST", "/predict", tc.body)
		if w.Code != http.StatusOK {
			t.Errorf("%s: status %d body %v", tc.name, w.Code, out)
			continue
		}
		if out["label"] != tc.label {
			t.Errorf("%s: label %v, want %v", tc.name, out["label"], tc.label)
		}
	}
}

func TestPredictErrors(t *testing.T) {
	_, h := testServer(t, Config{})
	cases := []struct {
		name, body string
		code       int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown field", `{"vector":[1]}`, http.StatusBadRequest},
		{"empty row", `{}`, http.StatusBadRequest},
		{"both forms", `{"x":[1,0,0,0],"idx":[0],"val":[1]}`, http.StatusBadRequest},
		{"dim mismatch", `{"x":[1,2]}`, http.StatusBadRequest},
		{"sparse index out of range", `{"idx":[9],"val":[1]}`, http.StatusBadRequest},
		{"negative sparse index", `{"idx":[-1],"val":[1]}`, http.StatusBadRequest},
		{"idx/val length mismatch", `{"idx":[0,1],"val":[1]}`, http.StatusBadRequest},
		{"unknown model", `{"model":"nope","x":[1,0,0,0]}`, http.StatusNotFound},
		// Bytes after the request object were scored as if absent.
		{"second object after the request", `{"idx":[1],"val":[1]}{"model":"other"}`, http.StatusBadRequest},
		{"garbage after the request", `{"x":[1,0,0,0]} garbage`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		w, out := do(t, h, "POST", "/predict", tc.body)
		if w.Code != tc.code {
			t.Errorf("%s: status %d want %d (%v)", tc.name, w.Code, tc.code, out)
		}
		if msg, _ := out["error"].(string); msg == "" {
			t.Errorf("%s: missing error message in %v", tc.name, out)
		}
	}
	if w, _ := do(t, h, "GET", "/predict", ""); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict: status %d", w.Code)
	}
}

func TestPredictNoLiveModel(t *testing.T) {
	reg, err := NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	h := New(reg, Config{}).Handler()
	if w, _ := do(t, h, "POST", "/predict", `{"x":[1]}`); w.Code != http.StatusServiceUnavailable {
		t.Errorf("predict without live model: status %d", w.Code)
	}
	if w, _ := do(t, h, "GET", "/healthz", ""); w.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz without live model: status %d", w.Code)
	}
}

func TestBatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, h := testServer(t, Config{Workers: workers})
		// Rows: the nonzeros of x = [1,0,0,0], {2:1}, and {3:1, 0:3} out
		// of order, against w = [1,1,-1,-1].
		w, out := do(t, h, "POST", "/predict/batch",
			`{"indptr":[0,1,2,4],"idx":[0,2,3,0],"val":[1,1,1,3]}`)
		if w.Code != http.StatusOK {
			t.Fatalf("workers=%d: status %d body %v", workers, w.Code, out)
		}
		labels, _ := out["labels"].([]any)
		want := []float64{1, -1, 1}
		if len(labels) != len(want) {
			t.Fatalf("workers=%d: labels %v", workers, labels)
		}
		for i, l := range labels {
			if l != want[i] {
				t.Errorf("workers=%d row %d: label %v want %v", workers, i, l, want[i])
			}
		}
	}
}

func TestBatchCSR(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, h := testServer(t, Config{Workers: workers})
		// Rows: {0:1}, {2:1}, {0:3, 3:1} against w = [1,1,-1,-1].
		w, out := do(t, h, "POST", "/predict/batch",
			`{"indptr":[0,1,2,4],"idx":[0,2,0,3],"val":[1,1,3,1]}`)
		if w.Code != http.StatusOK {
			t.Fatalf("workers=%d: status %d body %v", workers, w.Code, out)
		}
		labels, _ := out["labels"].([]any)
		want := []float64{1, -1, 1}
		if len(labels) != len(want) {
			t.Fatalf("workers=%d: labels %v", workers, labels)
		}
		for i, l := range labels {
			if l != want[i] {
				t.Errorf("workers=%d row %d: label %v want %v", workers, i, l, want[i])
			}
		}
	}
}

func TestBatchCSRErrors(t *testing.T) {
	_, h := testServer(t, Config{})
	cases := []struct {
		name, body string
		code       int
	}{
		{"rows beside columnar", `{"rows":[{"x":[1,0,0,0]}],"indptr":[0,0],"idx":[],"val":[]}`, http.StatusBadRequest},
		{"indptr too short", `{"indptr":[0],"idx":[],"val":[]}`, http.StatusBadRequest},
		{"indptr wrong end", `{"indptr":[0,3],"idx":[0],"val":[1]}`, http.StatusBadRequest},
		{"indptr not monotone", `{"indptr":[0,2,1,2],"idx":[0,1],"val":[1,1]}`, http.StatusBadRequest},
		{"indptr negative interior", `{"indptr":[0,-1,2],"idx":[0,1],"val":[1,1]}`, http.StatusBadRequest},
		{"missing indptr", `{"idx":[0],"val":[1]}`, http.StatusBadRequest},
		{"idx/val mismatch", `{"indptr":[0,2],"idx":[0,1],"val":[1]}`, http.StatusBadRequest},
		{"index out of range", `{"indptr":[0,1],"idx":[99],"val":[1]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		w, out := do(t, h, "POST", "/predict/batch", tc.body)
		if w.Code != tc.code {
			t.Errorf("%s: status %d want %d (%v)", tc.name, w.Code, tc.code, out)
		}
	}
}

func TestBatchRowStrictness(t *testing.T) {
	// A typo'd field in a batch must 400 exactly like /predict.
	_, h := testServer(t, Config{})
	w, out := do(t, h, "POST", "/predict/batch", `{"indptr":[0,1],"idx":[0],"vals":[1]}`)
	if w.Code != http.StatusBadRequest {
		t.Errorf("unknown batch field: status %d (%v)", w.Code, out)
	}
}

func TestPackCSR(t *testing.T) {
	rows := []Row{{Idx: []int{0, 3}, Val: []float64{1, 2}}, {Idx: []int{5}, Val: []float64{-1}}, {}}
	indptr, idx, val, err := PackCSR(rows)
	if err != nil {
		t.Fatal(err)
	}
	wantPtr, wantIdx, wantVal := []int{0, 2, 3, 3}, []int{0, 3, 5}, []float64{1, 2, -1}
	if fmt.Sprint(indptr) != fmt.Sprint(wantPtr) || fmt.Sprint(idx) != fmt.Sprint(wantIdx) || fmt.Sprint(val) != fmt.Sprint(wantVal) {
		t.Errorf("packed %v %v %v", indptr, idx, val)
	}
	if _, _, _, err := PackCSR([]Row{{X: []float64{1}}}); err == nil {
		t.Error("dense row packed into CSR")
	}
}

func TestBatchErrors(t *testing.T) {
	_, h := testServer(t, Config{MaxBatch: 2, Workers: 2})
	if w, _ := do(t, h, "POST", "/predict/batch", `{"indptr":[0],"idx":[],"val":[]}`); w.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", w.Code)
	}
	if w, _ := do(t, h, "POST", "/predict/batch",
		`{"indptr":[0,1,2,3],"idx":[0,0,0],"val":[1,1,1]}`); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d", w.Code)
	}
	// A bad row fails the whole batch with its index.
	w, out := do(t, h, "POST", "/predict/batch", `{"indptr":[0,1,2],"idx":[0,9],"val":[1,1]}`)
	if w.Code != http.StatusBadRequest {
		t.Errorf("bad row: status %d", w.Code)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "row 1") {
		t.Errorf("bad row error %q does not name the row", msg)
	}
	// The row-object form is gone: "rows" is an unknown key.
	w, out = do(t, h, "POST", "/predict/batch", `{"rows":[{"x":[1,0,0,0]}]}`)
	if msg, _ := out["error"].(string); w.Code != http.StatusBadRequest || !strings.Contains(msg, `unknown field "rows"`) {
		t.Errorf("rows form: status %d, error %q: want a 400 naming the unknown field", w.Code, msg)
	}
	// Bytes after the request object were scored as if absent.
	for _, body := range []string{
		`{"indptr":[0,1],"idx":[0],"val":[1]}{"model":"ova"}`,
		`{"indptr":[0,1],"idx":[0],"val":[1]} garbage`,
	} {
		if w, _ := do(t, h, "POST", "/predict/batch", body); w.Code != http.StatusBadRequest {
			t.Errorf("trailing bytes %s: status %d, want 400", body, w.Code)
		}
	}
}

// TestBatchCancelledContext: a batch whose request context is already
// done is not scored; the handler answers 503, never a 200.
func TestBatchCancelledContext(t *testing.T) {
	_, h := testServer(t, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/predict/batch", strings.NewReader(`{"indptr":[0,1,2],"idx":[0,2],"val":[1,1]}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req.WithContext(ctx))
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("cancelled batch: status %d, want 503: %s", w.Code, w.Body)
	}
}

func TestBodyCap(t *testing.T) {
	_, h := testServer(t, Config{MaxBody: 64})
	big := `{"x":[` + strings.Repeat("1,", 200) + `1]}`
	if w, _ := do(t, h, "POST", "/predict", big); w.Code != http.StatusBadRequest {
		t.Errorf("oversized body: status %d", w.Code)
	}
}

func TestHealthzAndModelz(t *testing.T) {
	reg, h := testServer(t, Config{})
	w, out := do(t, h, "GET", "/healthz", "")
	if w.Code != http.StatusOK || out["status"] != "ok" || out["live"] != "lin" || out["models"] != 2.0 {
		t.Errorf("healthz: %d %v", w.Code, out)
	}

	w, out = do(t, h, "GET", "/modelz", "")
	if w.Code != http.StatusOK || out["live"] != "lin" {
		t.Fatalf("modelz: %d %v", w.Code, out)
	}
	models, _ := out["models"].([]any)
	if len(models) != 2 {
		t.Fatalf("modelz models: %v", models)
	}
	lin := models[0].(map[string]any)
	if lin["name"] != "lin" || lin["dim"] != 4.0 || lin["classes"] != 2.0 || lin["live"] != true {
		t.Errorf("modelz lin entry: %v", lin)
	}
	meta, _ := lin["meta"].(map[string]any)
	if meta["epsilon"] != "0.1" {
		t.Errorf("modelz meta: %v", lin["meta"])
	}
	ova := models[1].(map[string]any)
	if ova["name"] != "ova" || ova["classes"] != 3.0 || ova["live"] != false {
		t.Errorf("modelz ova entry: %v", ova)
	}

	// Hot-swap is visible through the introspection endpoints.
	if _, err := reg.SetLive("ova"); err != nil {
		t.Fatal(err)
	}
	if _, out := do(t, h, "GET", "/healthz", ""); out["live"] != "ova" {
		t.Errorf("healthz after swap: %v", out)
	}
}

// TestHealthzSnapshotConsistency hammers /healthz while models publish
// and swap concurrently (run under -race). The handler reads the live
// model and the version count in one registry snapshot, so no response
// may ever pair a live name with a model count from a different
// registry state — concretely: a reported live model implies a
// non-zero model count.
func TestHealthzSnapshotConsistency(t *testing.T) {
	reg, err := NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	h := New(reg, Config{MaxInflight: 4}).Handler()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 100; k++ {
			name := fmt.Sprintf("v%d", k%5)
			if _, err := reg.Publish(name, &eval.Linear{W: []float64{1, 1}}, nil); err != nil {
				t.Error(err)
				return
			}
			if _, err := reg.SetLive(name); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				w, out := do(t, h, "GET", "/healthz", "")
				if w.Code != http.StatusOK && w.Code != http.StatusServiceUnavailable {
					t.Errorf("healthz status %d", w.Code)
					return
				}
				live, _ := out["live"].(string)
				models, _ := out["models"].(float64)
				if live != "" && models < 1 {
					t.Errorf("torn snapshot: live %q with %v models", live, models)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestServePredictDuringHotSwap drives the full HTTP path concurrently
// with hot-swaps: every response must come from a coherent model
// version (label ±1 for the all-equal-weight Linears involved).
func TestServePredictDuringHotSwap(t *testing.T) {
	reg, err := NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("v0", &eval.Linear{W: []float64{1, 1, 1, 1}}, nil); err != nil {
		t.Fatal(err)
	}
	h := New(reg, Config{Workers: 2}).Handler()

	const requests = 200
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				req := httptest.NewRequest("POST", "/predict/batch",
					strings.NewReader(`{"indptr":[0,2,4],"idx":[0,3,1,3],"val":[1,1,1,1]}`))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("status %d: %s", w.Code, w.Body.String())
					return
				}
				var out batchResponse
				if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
					t.Error(err)
					return
				}
				for _, l := range out.Labels {
					if l != 1 && l != -1 {
						t.Errorf("incoherent label %v from model %s", l, out.Model)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 50; k++ {
			sign := float64(1 - 2*(k%2))
			if _, err := reg.Publish("swap", &eval.Linear{W: []float64{sign, sign, sign, sign}}, nil); err != nil {
				t.Error(err)
				return
			}
			if k == 0 {
				// First publish needs explicit promotion; every
				// republish of the now-live name follows automatically.
				if _, err := reg.SetLive("swap"); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
}
