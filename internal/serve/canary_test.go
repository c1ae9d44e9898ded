package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// canaryServer builds a server with live model "stable" (all +1
// weights over dim 4) and candidate "cand" (all -1 weights), so the
// label's sign identifies which model scored each row.
func canaryServer(t *testing.T, cfg Config) (*Registry, *Server) {
	t.Helper()
	reg, err := NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("stable", linear(4, 1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("cand", linear(4, -1), nil); err != nil {
		t.Fatal(err)
	}
	return reg, New(reg, cfg)
}

// canaryRows builds n single-nonzero sparse rows with positive values,
// so "stable" labels them +1 and "cand" labels them -1.
func canaryRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Idx: []int{i % 4}, Val: []float64{float64(i + 1)}}
	}
	return rows
}

// TestCanaryDeterministicRouting pins the routing contract exactly:
// for a configured pct, the set of canary-scored rows is precisely
// {row : rowBucket(row) < pct} — no sampling, no approximation — and
// the canary row counter matches. Verified at 0, a middle value, and
// 100.
func TestCanaryDeterministicRouting(t *testing.T) {
	const n = 400
	rows := canaryRows(n)
	want := make([]bool, n) // want[i] = row i routes at pct=30
	routed := 0
	for i := range rows {
		if rowBucket(rows[i].Idx, rows[i].Val) < 30 {
			want[i] = true
			routed++
		}
	}
	if routed == 0 || routed == n {
		t.Fatalf("degenerate fixture: %d/%d rows route at 30%%", routed, n)
	}

	indptr, idx, val, err := PackCSR(rows)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"indptr": indptr, "idx": idx, "val": val})
	for _, pct := range []int{0, 30, 100} {
		reg, s := canaryServer(t, Config{})
		if err := reg.SetCanary("cand", pct); err != nil {
			t.Fatal(err)
		}
		w, out := do(t, s.Handler(), "POST", "/predict/batch", string(body))
		if w.Code != http.StatusOK {
			t.Fatalf("pct=%d: status %d body %v", pct, w.Code, out)
		}
		labels := out["labels"].([]any)
		miscount := 0
		for i, l := range labels {
			toCanary := pct == 100 || (pct == 30 && want[i])
			wantLabel := 1.0
			if toCanary {
				wantLabel = -1.0
			}
			if l != wantLabel {
				miscount++
				t.Errorf("pct=%d row %d: label %v, want %v", pct, i, l, wantLabel)
				if miscount > 4 {
					t.Fatalf("pct=%d: giving up after %d misroutes", pct, miscount)
				}
			}
		}
		_, _, gotRows, gotErrs := reg.Canary()
		wantRows := uint64(0)
		switch pct {
		case 30:
			wantRows = uint64(routed)
		case 100:
			wantRows = n
		}
		if gotRows != wantRows || gotErrs != 0 {
			t.Errorf("pct=%d: canary counters rows=%d errs=%d, want rows=%d errs=0", pct, gotRows, gotErrs, wantRows)
		}
	}
}

// TestCanaryBucketCanonical: routing depends on the row, not on how a
// request spells it. The same rows sent canonical, with their pairs
// permuted, and with one value split into a duplicate pair score on the
// same side of a 50% rollout whose two models label every row
// oppositely.
func TestCanaryBucketCanonical(t *testing.T) {
	const n = 100
	spellings := map[string][]Row{}
	for i := 0; i < n; i++ {
		a, b := i%4, (i+1+i/4%3)%4
		if a > b {
			a, b = b, a
		}
		va, vb := float64(i+1), float64(2*i+3)
		spellings["canonical"] = append(spellings["canonical"], Row{Idx: []int{a, b}, Val: []float64{va, vb}})
		spellings["permuted"] = append(spellings["permuted"], Row{Idx: []int{b, a}, Val: []float64{vb, va}})
		spellings["split"] = append(spellings["split"], Row{Idx: []int{a, b, a}, Val: []float64{va / 2, vb, va / 2}})
	}
	labels := map[string][]any{}
	for name, rows := range spellings {
		reg, s := canaryServer(t, Config{})
		if err := reg.SetCanary("cand", 50); err != nil {
			t.Fatal(err)
		}
		indptr, idx, val, err := PackCSR(rows)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(map[string]any{"indptr": indptr, "idx": idx, "val": val})
		w, out := do(t, s.Handler(), "POST", "/predict/batch", string(body))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d body %v", name, w.Code, out)
		}
		labels[name] = out["labels"].([]any)
	}
	canary := 0
	for i, l := range labels["canonical"] {
		if l == -1.0 {
			canary++
		}
		for _, name := range []string{"permuted", "split"} {
			if got := labels[name][i]; got != l {
				t.Errorf("row %d: %s spelling scored %v, canonical %v", i, name, got, l)
			}
		}
	}
	if canary == 0 || canary == n {
		t.Fatalf("degenerate fixture: %d/%d rows on the canary", canary, n)
	}
}

// TestCanaryNamedModelBypasses: a request addressing an explicit
// version never routes to the canary.
func TestCanaryNamedModelBypasses(t *testing.T) {
	reg, s := canaryServer(t, Config{})
	if err := reg.SetCanary("cand", 100); err != nil {
		t.Fatal(err)
	}
	w, out := do(t, s.Handler(), "POST", "/predict/batch",
		`{"model":"stable","indptr":[0,1],"idx":[0],"val":[1]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %v", w.Code, out)
	}
	if out["labels"].([]any)[0] != 1.0 {
		t.Error("named-model request was canary-routed")
	}
	if _, _, rows, _ := reg.Canary(); rows != 0 {
		t.Errorf("named-model request counted %d canary rows", rows)
	}
}

// TestCanaryFallbackAndAutoRollback injects a regressing canary (wrong
// feature dimension, so every routed row fails to score on it) and
// pins the fail-safe contract: every row falls back to the live model
// — the request succeeds with live labels — the errors are counted,
// and the error-rate gate rolls the rollout back automatically.
func TestCanaryFallbackAndAutoRollback(t *testing.T) {
	reg, err := NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("stable", linear(4, 1), nil); err != nil {
		t.Fatal(err)
	}
	// The canary has dim 2: any row touching features 2..3 errors on it.
	if _, err := reg.Publish("bad", linear(2, -1), nil); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{CanaryMinRows: 10, CanaryErrorRate: 0.1})
	if err := reg.SetCanary("bad", 100); err != nil {
		t.Fatal(err)
	}

	rows := make([]Row, 32)
	for i := range rows {
		rows[i] = Row{Idx: []int{3}, Val: []float64{float64(i + 1)}}
	}
	indptr, idx, val, err := PackCSR(rows)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"indptr": indptr, "idx": idx, "val": val})
	w, out := do(t, s.Handler(), "POST", "/predict/batch", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("fail-safe batch: status %d body %v", w.Code, out)
	}
	for i, l := range out["labels"].([]any) {
		if l != 1.0 {
			t.Fatalf("row %d: label %v — canary failure leaked into the response", i, l)
		}
	}
	if cm, _, _, _ := reg.Canary(); cm != nil {
		t.Error("regressed canary still active after the batch")
	}
	if got := s.metrics.canaryRollbacks.Load(); got != 1 {
		t.Errorf("rollback counter %d, want 1", got)
	}
	// The rollback must be visible in the scrape.
	w, _ = do(t, s.Handler(), "GET", "/metrics", "")
	if !strings.Contains(w.Body.String(), "dpserve_canary_rollbacks_total 1") {
		t.Error("rollback not visible in /metrics")
	}
}

// TestCanaryPromoteClearAndValidation covers the remaining state-machine
// arcs and the argument checks.
func TestCanaryPromoteClearAndValidation(t *testing.T) {
	reg, _ := canaryServer(t, Config{})
	if err := reg.SetCanary("cand", 101); err == nil {
		t.Error("pct 101 accepted")
	}
	if err := reg.SetCanary("nope", 10); err == nil {
		t.Error("unknown canary name accepted")
	}
	if _, err := reg.PromoteCanary(); err == nil {
		t.Error("promoted a non-existent canary")
	}

	if err := reg.SetCanary("cand", 25); err != nil {
		t.Fatal(err)
	}
	m, err := reg.PromoteCanary()
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "cand" || reg.Live() != m {
		t.Errorf("promotion: live %v", reg.Live())
	}
	if cm, _, _, _ := reg.Canary(); cm != nil {
		t.Error("promotion left the rollout active")
	}
}

// TestCanaryModelzVisibility: the active rollout shows up in /modelz —
// both the summary block and the per-model flag.
func TestCanaryModelzVisibility(t *testing.T) {
	reg, s := canaryServer(t, Config{})
	if err := reg.SetCanary("cand", 15); err != nil {
		t.Fatal(err)
	}
	w, out := do(t, s.Handler(), "GET", "/modelz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("modelz: %d", w.Code)
	}
	c, _ := out["canary"].(map[string]any)
	if c == nil || c["model"] != "cand" || c["pct"] != 15.0 {
		t.Fatalf("modelz canary block: %v", out["canary"])
	}
	for _, mi := range out["models"].([]any) {
		m := mi.(map[string]any)
		isCand := m["name"] == "cand"
		if flagged, _ := m["canary"].(bool); flagged != isCand {
			t.Errorf("model %v canary flag %v", m["name"], m["canary"])
		}
	}
	// And in /metrics.
	w, _ = do(t, s.Handler(), "GET", "/metrics", "")
	if !strings.Contains(w.Body.String(), fmt.Sprintf("dpserve_canary_pct{model=%q} 15", "cand")) {
		t.Error("canary pct gauge missing from /metrics")
	}
}
