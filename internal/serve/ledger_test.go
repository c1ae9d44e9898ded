package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"boltondp/internal/account"
	"boltondp/internal/account/compose"
	"boltondp/internal/dp"
	"boltondp/internal/eval"
)

// A model published through an accountant carries the audited ledger in
// its metadata, and /modelz round-trips it (acceptance criterion of the
// accountant tentpole): GET /modelz → meta["dp.ledger"] → LedgerFromMeta
// must recover the exact spend record, both for an in-memory publish
// and for a registry reloaded from disk.
func TestModelzRoundTripsLedger(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}

	acct := account.MustNew(dp.Budget{Epsilon: 1, Delta: 1e-6})
	if err := acct.Reserve("train(logistic)", dp.Budget{Epsilon: 0.75, Delta: 1e-6}); err != nil {
		t.Fatal(err)
	}
	meta := map[string]string{"loss": "logistic"}
	if err := acct.StampMeta(meta); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("fraud", &eval.Linear{W: []float64{1, -1}}, meta); err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, reg *Registry) {
		t.Helper()
		w, _ := do(t, New(reg, Config{}).Handler(), "GET", "/modelz", "")
		if w.Code != http.StatusOK {
			t.Fatalf("/modelz status %d: %s", w.Code, w.Body.String())
		}
		var resp struct {
			Models []struct {
				Name string            `json:"name"`
				Meta map[string]string `json:"meta"`
			} `json:"models"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Models) != 1 || resp.Models[0].Name != "fraud" {
			t.Fatalf("models: %+v", resp.Models)
		}
		l, ok, err := account.LedgerFromMeta(resp.Models[0].Meta)
		if err != nil || !ok {
			t.Fatalf("/modelz meta carries no ledger: ok=%v err=%v meta=%v", ok, err, resp.Models[0].Meta)
		}
		if l.Total() != (dp.Budget{Epsilon: 1, Delta: 1e-6}) {
			t.Errorf("ledger total: %v", l.Total())
		}
		if l.Spent() != (dp.Budget{Epsilon: 0.75, Delta: 1e-6}) {
			t.Errorf("ledger spent: %v", l.Spent())
		}
		if len(l.Entries) != 1 || l.Entries[0].Label != "train(logistic)" || l.Entries[0].Epsilon != 0.75 {
			t.Errorf("ledger entries: %+v", l.Entries)
		}
		if resp.Models[0].Meta["dp.total"] == "" || resp.Models[0].Meta["dp.spent"] == "" {
			t.Errorf("human-readable summary keys missing: %v", resp.Models[0].Meta)
		}
	}

	t.Run("live registry", func(t *testing.T) { check(t, reg) })

	// The ledger survives persistence: a fresh registry loaded from the
	// same directory serves the identical record.
	t.Run("reloaded registry", func(t *testing.T) {
		reloaded, err := NewRegistry(dir)
		if err != nil {
			t.Fatal(err)
		}
		check(t, reloaded)
	})

	// And the on-disk model file itself carries it (SaveClassifier
	// metadata path, readable without a server).
	t.Run("model file", func(t *testing.T) {
		_, meta, err := eval.LoadClassifier(filepath.Join(dir, "fraud.json"))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := account.LedgerFromMeta(meta); !ok || err != nil {
			data, _ := os.ReadFile(filepath.Join(dir, "fraud.json"))
			t.Fatalf("model file carries no ledger (ok=%v err=%v): %s", ok, err, data)
		}
	})
}

// The acceptance path for the rdp accounting rule: a gradperturb-style
// publish stamps an rdp ledger (sgm entry + per-order rule state), and
// it survives save → publish → /modelz → reload byte-faithfully; the
// /metrics endpoint reports the rule as a gauge label.
func TestModelzRoundTripsRDPLedger(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}

	acct, err := account.NewWithRule(compose.RuleRDP, dp.Budget{Epsilon: 2, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if err := acct.ReserveSubsampledGaussian("gradperturb(logistic)", 1.5, 0.01, 500, 1e-6); err != nil {
		t.Fatal(err)
	}
	want := acct.Ledger()
	meta := map[string]string{"loss": "logistic"}
	if err := acct.StampMeta(meta); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("gp", &eval.Linear{W: []float64{1, -1}}, meta); err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, reg *Registry) {
		t.Helper()
		w, _ := do(t, New(reg, Config{}).Handler(), "GET", "/modelz", "")
		if w.Code != http.StatusOK {
			t.Fatalf("/modelz status %d: %s", w.Code, w.Body.String())
		}
		var resp struct {
			Models []struct {
				Meta map[string]string `json:"meta"`
			} `json:"models"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Models) != 1 {
			t.Fatalf("models: %+v", resp.Models)
		}
		l, ok, err := account.LedgerFromMeta(resp.Models[0].Meta)
		if err != nil || !ok {
			t.Fatalf("no ledger: ok=%v err=%v", ok, err)
		}
		if !l.Same(want) {
			t.Fatalf("rdp ledger did not round-trip:\n%+v\nvs\n%+v", l, want)
		}
		if l.Rule != compose.RuleRDP || len(l.RuleState) == 0 {
			t.Errorf("rule/state lost: rule=%q state=%d bytes", l.Rule, len(l.RuleState))
		}
		e := l.Entries[0]
		if compose.Kind(e.Kind) != compose.KindSGM || e.Sigma != 1.5 || e.Q != 0.01 || e.Steps != 500 {
			t.Errorf("sgm entry detail lost: %+v", e)
		}
		// The rdp composed spend is below the entry's standalone price —
		// the tighter rule survived serialization, not just the name.
		if l.SpentEpsilon >= e.Epsilon {
			t.Errorf("composed spent %v not below linear entry price %v", l.SpentEpsilon, e.Epsilon)
		}
	}

	t.Run("live registry", func(t *testing.T) { check(t, reg) })
	t.Run("reloaded registry", func(t *testing.T) {
		reloaded, err := NewRegistry(dir)
		if err != nil {
			t.Fatal(err)
		}
		check(t, reloaded)
	})

	// /metrics exposes the rule as dpserve_dp_rule{model,rule}.
	t.Run("metrics rule gauge", func(t *testing.T) {
		w, _ := do(t, New(reg, Config{}).Handler(), "GET", "/metrics", "")
		if w.Code != http.StatusOK {
			t.Fatalf("/metrics status %d", w.Code)
		}
		if !strings.Contains(w.Body.String(), `dpserve_dp_rule{model="gp",rule="rdp"} 1`) {
			t.Errorf("missing dpserve_dp_rule gauge:\n%s", w.Body.String())
		}
	})
}
