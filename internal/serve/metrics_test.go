package serve

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"boltondp/internal/account"
	"boltondp/internal/dp"
	"boltondp/internal/eval"
)

// promLine matches one sample line of the Prometheus text exposition
// format (0.0.4): metric name, optional label set, and a value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// parseMetrics validates the exposition text line by line and returns
// sample line → value. HELP/TYPE comments must precede their metric.
func parseMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line does not parse as Prometheus text: %q", line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("sample %q has no preceding TYPE declaration", name)
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		key := line[:strings.LastIndexByte(line, ' ')]
		out[key] = v
	}
	return out
}

// TestMetricsEndpoint drives traffic through every route and checks
// the scrape: well-formed exposition text, correct counts per route
// and status class, a coherent latency histogram, batch-row and
// model-info series.
func TestMetricsEndpoint(t *testing.T) {
	_, h := testServer(t, Config{})

	for i := 0; i < 3; i++ {
		if w, _ := do(t, h, "POST", "/predict", `{"x":[1,0,0,0]}`); w.Code != http.StatusOK {
			t.Fatalf("predict: %d", w.Code)
		}
	}
	if w, _ := do(t, h, "POST", "/predict", `{"x":[1]}`); w.Code != http.StatusBadRequest {
		t.Fatal("bad predict did not 400")
	}
	if w, _ := do(t, h, "POST", "/predict/batch",
		`{"indptr":[0,1,2],"idx":[0,2],"val":[1,1]}`); w.Code != http.StatusOK {
		t.Fatal("batch failed")
	}

	w, _ := do(t, h, "GET", "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	m := parseMetrics(t, w.Body.String())

	checks := map[string]float64{
		`dpserve_requests_total{route="predict"}`:                   4,
		`dpserve_errors_total{route="predict",class="4xx"}`:         1,
		`dpserve_errors_total{route="predict",class="5xx"}`:         0,
		`dpserve_requests_total{route="predict_batch"}`:             1,
		`dpserve_batch_rows_total`:                                  2,
		`dpserve_response_encode_errors_total`:                      0,
		`dpserve_model_info{model="lin",tier="float32"}`:            1,
		`dpserve_model_dim{model="lin"}`:                            4,
		`dpserve_request_seconds_count{route="predict"}`:            4,
		`dpserve_request_seconds_bucket{route="predict",le="+Inf"}`: 4,
	}
	for key, want := range checks {
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", key, got, ok, want)
		}
	}
	// Histogram buckets are cumulative: each le bound holds at least as
	// many observations as the one before it.
	prev := -1.0
	for _, ub := range latencyBuckets {
		key := `dpserve_request_seconds_bucket{route="predict",le="` + formatFloat(ub) + `"}`
		v, ok := m[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < prev {
			t.Fatalf("bucket %s not cumulative: %v < %v", key, v, prev)
		}
		prev = v
	}

	// A second scrape counts the first: the metrics route instruments
	// itself.
	w, _ = do(t, h, "GET", "/metrics", "")
	if m2 := parseMetrics(t, w.Body.String()); m2[`dpserve_requests_total{route="metrics"}`] != 1 {
		t.Errorf("metrics route self-count: %v", m2[`dpserve_requests_total{route="metrics"}`])
	}
}

// TestMetricsLedgerGauges: a live model published through an
// accountant exposes its ε/δ spend as gauges.
func TestMetricsLedgerGauges(t *testing.T) {
	reg, err := NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	acct := account.MustNew(dp.Budget{Epsilon: 2, Delta: 1e-6})
	if err := acct.Reserve("train(svm)", dp.Budget{Epsilon: 0.5, Delta: 1e-6}); err != nil {
		t.Fatal(err)
	}
	meta := map[string]string{}
	if err := acct.StampMeta(meta); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("audited", &eval.Linear{W: []float64{1, -1}}, meta); err != nil {
		t.Fatal(err)
	}
	w, _ := do(t, New(reg, Config{}).Handler(), "GET", "/metrics", "")
	m := parseMetrics(t, w.Body.String())
	for key, want := range map[string]float64{
		`dpserve_dp_epsilon_spent{model="audited"}`: 0.5,
		`dpserve_dp_delta_spent{model="audited"}`:   1e-6,
		`dpserve_dp_epsilon_total{model="audited"}`: 2,
		`dpserve_dp_delta_total{model="audited"}`:   1e-6,
	} {
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", key, got, ok, want)
		}
	}
}

// failAfterHeader is a ResponseWriter whose body writes fail — the
// mid-body encode failure writeJSON must surface (satellite: the error
// was silently discarded before).
type failAfterHeader struct {
	httptest.ResponseRecorder
}

func (w *failAfterHeader) Write([]byte) (int, error) {
	return 0, errors.New("client went away")
}

// TestWriteJSONEncodeErrorSurfaced: a response that fails mid-body
// increments the encode-error counter and logs, instead of vanishing.
func TestWriteJSONEncodeErrorSurfaced(t *testing.T) {
	reg, err := NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	s := New(reg, Config{Logf: func(format string, args ...any) {
		logged = append(logged, format)
	}})
	s.writeJSON(&failAfterHeader{}, http.StatusOK, map[string]string{"k": "v"})
	if got := s.metrics.encodeErrors.Load(); got != 1 {
		t.Errorf("encode-error counter %d, want 1", got)
	}
	if len(logged) != 1 {
		t.Errorf("encode error logged %d times, want 1", len(logged))
	}
}

// TestInstrumentCost is the gate on the cost of being observable, in
// units that repeat: the instrumented handler allocates at most once
// more per request than the bare one (the status-recording writer), and
// a request touches its own route's counter block and no other.
func TestInstrumentCost(t *testing.T) {
	reg, _ := testServer(t, Config{})
	s := New(reg, Config{})
	const runs = 200
	body := []byte(`{"idx":[0,3],"val":[1,0.5]}`)
	allocs := func(h http.HandlerFunc) float64 {
		w := &discard{h: http.Header{}}
		return testing.AllocsPerRun(runs, func() {
			clear(w.h)
			h(w, httptest.NewRequest("POST", "/predict", bytes.NewReader(body)))
		})
	}
	bare, instrumented := allocs(s.handlePredict), allocs(s.instrument("predict", s.handlePredict))
	t.Logf("allocations per request: bare %v, instrumented %v", bare, instrumented)
	if !raceEnabled && instrumented > bare+1 { // sync.Pool drops Puts at random under -race
		t.Errorf("instrumentation allocates %v times per request, want at most 1", instrumented-bare)
	}

	// AllocsPerRun calls once to warm up before it counts.
	for i, route := range metricsRoutes {
		rm := &s.metrics.routes[i]
		var buckets uint64
		for j := range rm.buckets {
			buckets += rm.buckets[j].Load()
		}
		want := uint64(0)
		if route == "predict" {
			want = runs + 1
		}
		if got := rm.requests.Load(); got != want || rm.count.Load() != want || buckets > want {
			t.Errorf("route %s: requests %d, histogram count %d, bucketed %d, want %d",
				route, got, rm.count.Load(), buckets, want)
		}
		if e := rm.errors4xx.Load() + rm.errors5xx.Load(); e != 0 {
			t.Errorf("route %s: %d errors counted on 200s", route, e)
		}
	}
}
