package serve

import (
	"encoding/json"
	"math/rand"
	"testing"

	"boltondp/internal/data"
	"boltondp/internal/eval"
)

// kddCSR builds the full KDDSimSparse test split in columnar form plus
// a registry model over it — the fixture for the f32 parity gate.
func kddCSR(tb testing.TB) (*Model, []int, []int, []float64) {
	tb.Helper()
	r := rand.New(rand.NewSource(7))
	_, test := data.KDDSimSparse(r, 0.1)
	w := make([]float64, test.Dim())
	for i := range w {
		w[i] = r.NormFloat64()
	}
	m, err := newModel("kdd", &eval.Linear{W: w}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	indptr := make([]int, 1, test.Len()+1)
	var idx []int
	var val []float64
	for i := 0; i < test.Len(); i++ {
		sp, _ := test.AtSparse(i)
		idx = append(idx, sp.Idx...)
		val = append(val, sp.Val...)
		indptr = append(indptr, len(idx))
	}
	return m, indptr, idx, val
}

// TestServeF32LabelParity is the precision acceptance gate: on the
// KDDSimSparse workload under a random linear model — margins far
// noisier than any trained model's — the float32 tier must agree with
// full precision on at least 99.9% of labels.
func TestServeF32LabelParity(t *testing.T) {
	m, indptr, idx, val := kddCSR(t)
	f64, err := m.ScoreBatchCSR(indptr, idx, val, 1)
	if err != nil {
		t.Fatal(err)
	}
	f32, err := m.ScoreBatchCSRF32(indptr, idx, val, 1)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := range f64 {
		if f64[i] == f32[i] {
			agree++
		}
	}
	rate := float64(agree) / float64(len(f64))
	t.Logf("f32/f64 label agreement: %d/%d = %.5f", agree, len(f64), rate)
	if rate < 0.999 {
		t.Fatalf("label agreement %.5f below the 0.999 acceptance floor", rate)
	}
}

// The float32 tier must replicate the eval tie rules bit for bit:
// Linear sends an exactly-zero margin to +1, OneVsAll argmax keeps the
// lowest class index on exact ties.
func TestServeF32TieRules(t *testing.T) {
	lin, err := newModel("lin", &eval.Linear{W: []float64{1, -1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Row {1, 1}: margin exactly 0 in both precisions → +1.
	y := lin.predictSparse32([]int{0, 1}, []float64{1, 1})
	if y != 1 {
		t.Errorf("zero-margin tie went to %v, want +1", y)
	}
	if got, _ := lin.Score(&Row{Idx: []int{0, 1}, Val: []float64{1, 1}}); got != y {
		t.Errorf("tie rule diverges from f64 tier: f32 %v f64 %v", y, got)
	}

	ova, err := newModel("ova", &eval.OneVsAll{W: [][]float64{
		{1, 0}, {1, 0}, {0.5, 0},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Classes 0 and 1 score identically → argmax must keep class 0.
	if y := ova.predictSparse32([]int{0}, []float64{2}); y != 0 {
		t.Errorf("argmax tie went to class %v, want 0", y)
	}
}

// The /predict/batch columnar path scores through the f32 tier by
// default, Config.Float64Batch opts back into full precision, and
// /modelz reports whichever tier is active.
func TestServeBatchTierRouting(t *testing.T) {
	m, indptr, idx, val := kddCSR(t)
	reg, err := NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("kdd", m.Classifier, nil); err != nil {
		t.Fatal(err)
	}
	req, err := json.Marshal(map[string]any{"indptr": indptr[:257], "idx": idx[:indptr[256]], "val": val[:indptr[256]]})
	if err != nil {
		t.Fatal(err)
	}
	want32, err := m.ScoreBatchCSRF32(indptr[:257], idx[:indptr[256]], val[:indptr[256]], 1)
	if err != nil {
		t.Fatal(err)
	}
	want64, err := m.ScoreBatchCSR(indptr[:257], idx[:indptr[256]], val[:indptr[256]], 1)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		cfg    Config
		tier   string
		labels []float64
	}{
		{"default-f32", Config{}, "float32", want32},
		{"opt-out-f64", Config{Float64Batch: true}, "float64", want64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(reg, tc.cfg)
			w, out := do(t, srv.Handler(), "POST", "/predict/batch", string(req))
			if w.Code != 200 {
				t.Fatalf("batch: %d %v", w.Code, out)
			}
			labels := out["labels"].([]any)
			if len(labels) != len(tc.labels) {
				t.Fatalf("got %d labels, want %d", len(labels), len(tc.labels))
			}
			for i, l := range labels {
				if l.(float64) != tc.labels[i] {
					t.Fatalf("label %d = %v, want %v (tier %s)", i, l, tc.labels[i], tc.tier)
				}
			}
			w, out = do(t, srv.Handler(), "GET", "/modelz", "")
			if w.Code != 200 || out["batchTier"] != tc.tier {
				t.Errorf("modelz batchTier = %v, want %q", out["batchTier"], tc.tier)
			}
		})
	}
}
