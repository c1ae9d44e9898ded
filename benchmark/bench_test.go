package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	// Ten samples lie beyond the value read at p99 of 1000.
	if got := percentile(s, 99); got != 990 {
		t.Errorf("percentile(1..1000, 99) = %v, want 990", got)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// returns, since the acceptance check computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, m2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{10, 30, 20}, 10, 20, 30},
		{[]float64{7}, 7, 7, 7},
	} {
		d := summarize("s", c.v)
		if d.Q1 != c.q1 || d.Median != c.m2 || d.Q3 != c.q3 || d.N != len(c.v) {
			t.Errorf("summarize(%v) = %+v, want q1=%v median=%v q3=%v", c.v, d, c.q1, c.m2, c.q3)
		}
	}
}

// A windowed metric reads the best tenth of its windows (deciles as
// Python's statistics.quantiles(v, n=10) cuts them), any other metric
// its median.
func TestWindowedValue(t *testing.T) {
	v := []float64{3, 1, 2, 4, 9, 6, 7, 8, 5, 10, 19, 12, 13, 14, 15, 16, 17, 18, 11}
	for _, c := range []struct {
		m    metricSpec
		want float64
	}{
		{metricSpec{Name: "job_s", Better: "lower"}, 10},
		{metricSpec{Name: "predict_p50_us", Better: "lower", Windowed: true}, 2},
		{metricSpec{Name: "predict_rps", Better: "higher", Windowed: true}, 18},
	} {
		if d := c.m.summarize(v); d.Value != c.want || d.Median != 10 {
			t.Errorf("%s: value %v (median %v), want %v", c.m.Name, d.Value, d.Median, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "job", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},  // child with a nested child
		{Name: "a1", Start: 15, End: 25, Parent: 1}, // nested: leaves job's self time alone
		{Name: "b", Start: 40, End: 60, Parent: 0},  // adjacent to a
		{Name: "c", Start: 55, End: 70, Parent: 0},  // overlaps b: the union counts once
		{Name: "d", Start: 90, End: 120, Parent: 0}, // runs past its parent: clipped
	}
	want := []int64{100 - (30 + 20 + 10 + 10), 20, 10, 20, 15, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}

	tr := newTracer()
	root := tr.begin("job", -1, 3)
	kid := tr.begin("stage", root, 3)
	tr.end(kid)
	tr.end(root)
	if self := selfTimes(tr.spans); self[root]+self[kid] != tr.spans[root].End-tr.spans[root].Start {
		t.Errorf("self times %v do not add up to the root span", self)
	}
	if tr.seconds("stage", 3) <= 0 || tr.seconds("stage", 4) != 0 {
		t.Error("seconds must sum by name within one job")
	}
	var off *tracer // tracing off
	off.end(off.begin("x", -1, 0))
}

func fileSHA(t *testing.T, path string) [32]byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

func TestGeneratorDeterminism(t *testing.T) {
	dir := t.TempDir()
	gen := func(name string, seed int64) (text, bolt [32]byte) {
		p := filepath.Join(dir, name)
		if _, err := writeKDDLibSVM(p+".libsvm", seed, 500, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := writeWideStore(p+".bolt", seed, 500); err != nil {
			t.Fatal(err)
		}
		return fileSHA(t, p+".libsvm"), fileSHA(t, p+".bolt")
	}
	text1, bolt1 := gen("a", 1)
	text1b, bolt1b := gen("b", 1)
	text2, bolt2 := gen("c", 2)
	if text1 != text1b || bolt1 != bolt1b {
		t.Error("the same seed produced different bytes")
	}
	if text1 == text2 || bolt1 == bolt2 {
		t.Error("different seeds produced the same bytes")
	}
	a, b := kddRows(7, 100, 0.5), kddRows(7, 100, 0.5)
	for i := 0; i < a.Len(); i++ {
		ra, ya := a.Row(i)
		rb, yb := b.Row(i)
		if ya != yb || !sameBits(ra.Val, rb.Val) {
			t.Fatalf("kddRows row %d differs under one seed", i)
		}
	}
}

func TestCompareBounds(t *testing.T) {
	lower := metricSpec{Name: "job_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "predict_rps", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(m float64) summary { return summary{N: 5, Value: m, Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	wide := func(m float64) summary { return summary{N: 5, Value: m, Median: m, Q1: m * 0.9, Q3: m * 1.1} }
	for _, c := range []struct {
		m    metricSpec
		a, b summary
		want string
	}{
		{lower, tight(1), tight(1.09), verdictOK},
		{lower, tight(1), tight(1.11), verdictWorse},
		{lower, tight(1), tight(0.5), verdictOK}, // better is never a regression
		{higher, tight(100), tight(91), verdictOK},
		{higher, tight(100), tight(89), verdictWorse},
		{higher, tight(100), tight(150), verdictOK},
		{lower, wide(1), tight(1.02), verdictUnresolved},
		{lower, tight(1), wide(1.02), verdictUnresolved},
		{lower, wide(1), wide(1.5), verdictWorse},
	} {
		if got := judge(c.m, c.a, c.b, false, false); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.m.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
	// A windowed metric's value ignores how its windows spread within a
	// run; only a run-to-run spread makes it unresolved.
	windowed := metricSpec{Name: "predict_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Windowed: true}
	if got := judge(windowed, wide(1), tight(1.02), false, false); got != verdictOK {
		t.Errorf("single runs of a windowed metric: %s, want %s", got, verdictOK)
	}
	if got := judge(windowed, wide(1), tight(1.02), true, true); got != verdictUnresolved {
		t.Errorf("pooled runs of a windowed metric: %s, want %s", got, verdictUnresolved)
	}

	dir := t.TempDir()
	write := func(name string, mutate func(*resultFile)) string {
		rf := resultFile{
			Env:       environment{NProc: 2, GOMAXPROCS: 2, GOOS: "linux", GOARCH: "amd64"},
			Workloads: map[string]workloadResult{},
		}
		for _, w := range workloads {
			wr := workloadResult{EndToEnd: map[string]summary{}, Attempted: 100}
			for _, m := range endToEnd {
				wr.EndToEnd[m.Name] = tight(10)
			}
			rf.Workloads[w.Name] = wr
		}
		mutate(&rf)
		b, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", func(*resultFile) {})
	var out bytes.Buffer
	if err := compareFiles(&out, base, base); err != nil {
		t.Errorf("A against A: %v\n%s", err, out.String())
	}
	slow := write("slow.json", func(rf *resultFile) { rf.Workloads["wide_warm"].EndToEnd["job_s"] = tight(13) })
	out.Reset()
	if err := compareFiles(&out, base, slow); err == nil || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 30%% slower job_s passed the gate:\n%s", out.String())
	}
	failing := write("failing.json", func(rf *resultFile) {
		wr := rf.Workloads["serve_closed"]
		wr.Failed, wr.FailedShare = 1, 0.01
		rf.Workloads["serve_closed"] = wr
	})
	if err := compareFiles(&out, base, failing); err == nil {
		t.Error("a rise in failed_share passed the gate")
	}
	other := write("other.json", func(rf *resultFile) { rf.Env.GOMAXPROCS = 4 })
	if err := compareFiles(&out, base, other); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("files from different machine shapes were compared: %v", err)
	}
}

// BENCHMARK.json is the contract the driver reads; spec.go is what the
// harness prints and -compare bounds with. They must say the same.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []workloadSpec
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json %+v, spec.go %+v", i, doc.Workloads[i], w)
		}
	}
	same := func(kind string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i] != (metric{m.Name, m.Unit, m.Better, m.Bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, spec.go %+v", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	for _, m := range endToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Error("setup_s must be in seconds, lower is better")
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// The API-stability rule at the top of main.go, enforced: nothing but
// the standard library and boltondp/internal/*, and none of the API
// ROADMAP items 2 and 5 may delete.
func TestAPIStabilityRule(t *testing.T) {
	forbidden := map[string]bool{
		"core.Train": true, "core.Options": true, "core.WithOptions": true,
		"core.PrivateConvexPSGD": true, "core.PrivateStronglyConvexPSGD": true,
		"core.PrivateConvexPSGDCtx": true, "core.PrivateStronglyConvexPSGDCtx": true,
		"bismarck.ParallelTrainUDA": true, "bismarck.ParallelTrainConfig": true,
		"sgd.RunSVRG": true, "sgd.SVRGConfig": true, "dist.NewInlineSource": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			first, _, _ := strings.Cut(path, "/")
			if strings.Contains(first, ".") || (first == "boltondp" && !strings.HasPrefix(path, "boltondp/internal/")) {
				t.Errorf("%s imports %s", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && forbidden[pkg.Name+"."+n.Sel.Name] {
					t.Errorf("%s uses %s.%s", fset.Position(n.Pos()), pkg.Name, n.Sel.Name)
				}
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Options" {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "store" {
					return true
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Version" {
							t.Errorf("%s sets store.Options.Version", fset.Position(kv.Pos()))
						}
					}
				}
			}
			return true
		})
	}
}

// TestSmoke runs every workload at about 1/50 size, timed and traced,
// with every correctness check on: an API break in anything the harness
// imports, or a parity the harness pins, fails go test ./... here.
func TestSmoke(t *testing.T) {
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old) //nolint:errcheck // restoring the test's directory
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			detail := filepath.Join(t.TempDir(), "detail.json")
			err := runChild(childConfig{workload: w.Name, seed: 1, seconds: 0.25, traced: traced, smoke: true, detail: detail})
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
				continue
			}
			var d childDetail
			b, err := os.ReadFile(detail)
			if err == nil {
				err = json.Unmarshal(b, &d)
			}
			if err != nil {
				t.Fatal(err)
			}
			if d.Failed != 0 || d.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.Name, traced, d.Failed, d.Attempted, d.Failures)
			}
			if !traced {
				for _, m := range endToEnd {
					if s := d.Metrics[m.Name]; s.N == 0 || s.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %+v", w.Name, m.Name, s)
					}
				}
			} else if s := d.Metrics["trace.overhead"]; s.N == 0 || s.Median <= 0 {
				t.Errorf("%s: trace.overhead reads %+v", w.Name, s)
			}
		}
	}
	t.Logf("smoke: %v", time.Since(start))
}
