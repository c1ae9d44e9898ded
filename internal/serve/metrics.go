package serve

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"boltondp/internal/account"
	"boltondp/internal/account/compose"
)

// Observability: a dependency-free GET /metrics in the Prometheus text
// exposition format (version 0.0.4).
//
// The instrumentation budget is the design constraint: the scoring
// routes are the product, so the per-request cost of being observable
// is a handful of atomic adds and one clock read — no locks, no maps
// on the hot path, no allocation beyond the status-recording writer.
// TestInstrumentCost pins exactly that: one allocation, one route's
// counter block.
//
// Two kinds of series come out of the scrape:
//
//   - Counters and histograms accumulated per request (requests,
//     errors by status class, latency, batch rows, response-encode
//     failures, sheds). These live in Metrics and are updated by the
//     instrument middleware and the handlers.
//   - Gauges computed at scrape time from authoritative state (live
//     model info and its accountant ledger, admission-queue depths,
//     canary designation). Scrapes are rare; recomputing beats
//     mirroring state that the registry already owns.

// latencyBuckets are the histogram upper bounds in seconds. The span
// covers the serving regimes: single rows at tens of microseconds,
// columnar batches from a few hundred microseconds to milliseconds,
// and the tail where an overloaded or cold replica lives.
var latencyBuckets = [...]float64{.000025, .00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5}

// routeMetrics is the per-route counter block. All fields are atomics:
// a request touches exactly one block, once, after its handler ran.
type routeMetrics struct {
	requests  atomic.Uint64
	errors4xx atomic.Uint64
	errors5xx atomic.Uint64

	buckets [len(latencyBuckets)]atomic.Uint64 // non-cumulative; summed at scrape
	count   atomic.Uint64
	sumNs   atomic.Int64
}

func (rm *routeMetrics) observe(code int, d time.Duration) {
	rm.requests.Add(1)
	switch {
	case code >= 500:
		rm.errors5xx.Add(1)
	case code >= 400:
		rm.errors4xx.Add(1)
	}
	s := d.Seconds()
	for i, ub := range latencyBuckets {
		if s <= ub {
			rm.buckets[i].Add(1)
			break
		}
	}
	rm.count.Add(1)
	rm.sumNs.Add(int64(d))
}

// metricsRoutes are the instrumented route labels, in scrape order.
var metricsRoutes = [...]string{"predict", "predict_batch", "healthz", "modelz", "metrics"}

// Metrics holds the request-accumulated series of one server.
type Metrics struct {
	routes [len(metricsRoutes)]routeMetrics

	batchRows    atomic.Uint64 // rows scored by /predict/batch
	encodeErrors atomic.Uint64 // JSON responses that failed mid-body (see writeJSON)

	canaryRollbacks atomic.Uint64 // automatic canary rollbacks fired
}

// routeIndex maps a route label to its slot; -1 for unknown.
func routeIndex(route string) int {
	for i, r := range metricsRoutes {
		if r == route {
			return i
		}
	}
	return -1
}

// statusWriter records the status code a handler wrote so the
// middleware can classify the response after the fact.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-route request/error/latency
// accounting: one clock read, one status-recording writer and a handful
// of atomic adds on the route's own counter block (TestInstrumentCost).
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	rm := &s.metrics.routes[routeIndex(route)]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		rm.observe(sw.code, time.Since(start))
	}
}

// handleMetrics renders the scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.writeMetricsText(w)
}

// writeMetricsText writes every series in the Prometheus text format.
func (s *Server) writeMetricsText(w io.Writer) {
	m := s.metrics
	var b strings.Builder

	b.WriteString("# HELP dpserve_requests_total Requests served, by route.\n# TYPE dpserve_requests_total counter\n")
	for i, route := range metricsRoutes {
		fmt.Fprintf(&b, "dpserve_requests_total{route=%q} %d\n", route, m.routes[i].requests.Load())
	}

	b.WriteString("# HELP dpserve_errors_total Error responses, by route and status class.\n# TYPE dpserve_errors_total counter\n")
	for i, route := range metricsRoutes {
		fmt.Fprintf(&b, "dpserve_errors_total{route=%q,class=\"4xx\"} %d\n", route, m.routes[i].errors4xx.Load())
		fmt.Fprintf(&b, "dpserve_errors_total{route=%q,class=\"5xx\"} %d\n", route, m.routes[i].errors5xx.Load())
	}

	b.WriteString("# HELP dpserve_request_seconds Request latency, by route.\n# TYPE dpserve_request_seconds histogram\n")
	for i, route := range metricsRoutes {
		rm := &m.routes[i]
		var cum uint64
		for j, ub := range latencyBuckets {
			cum += rm.buckets[j].Load()
			fmt.Fprintf(&b, "dpserve_request_seconds_bucket{route=%q,le=%q} %d\n", route, formatFloat(ub), cum)
		}
		count := rm.count.Load()
		fmt.Fprintf(&b, "dpserve_request_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", route, count)
		fmt.Fprintf(&b, "dpserve_request_seconds_sum{route=%q} %s\n", route, formatFloat(time.Duration(rm.sumNs.Load()).Seconds()))
		fmt.Fprintf(&b, "dpserve_request_seconds_count{route=%q} %d\n", route, count)
	}

	b.WriteString("# HELP dpserve_batch_rows_total Rows scored by /predict/batch.\n# TYPE dpserve_batch_rows_total counter\n")
	fmt.Fprintf(&b, "dpserve_batch_rows_total %d\n", m.batchRows.Load())

	b.WriteString("# HELP dpserve_response_encode_errors_total JSON responses that failed mid-body after headers were sent.\n# TYPE dpserve_response_encode_errors_total counter\n")
	fmt.Fprintf(&b, "dpserve_response_encode_errors_total %d\n", m.encodeErrors.Load())

	// Admission gauges: authoritative state read at scrape time.
	if a := s.adm; a != nil {
		st := a.state()
		b.WriteString("# HELP dpserve_shed_total Requests shed by admission control (429).\n# TYPE dpserve_shed_total counter\n")
		fmt.Fprintf(&b, "dpserve_shed_total %d\n", st.Sheds)
		b.WriteString("# HELP dpserve_inflight Requests currently holding a scoring slot.\n# TYPE dpserve_inflight gauge\n")
		fmt.Fprintf(&b, "dpserve_inflight %d\n", st.Inflight)
		b.WriteString("# HELP dpserve_queued Requests waiting in the admission queue.\n# TYPE dpserve_queued gauge\n")
		fmt.Fprintf(&b, "dpserve_queued %d\n", st.Queued)
	}

	// Live-model gauges, including the privacy spend parsed from the
	// accountant ledger the model was published with.
	if live := s.reg.Live(); live != nil {
		b.WriteString("# HELP dpserve_model_info Live model (name and batch scoring tier); value is always 1.\n# TYPE dpserve_model_info gauge\n")
		fmt.Fprintf(&b, "dpserve_model_info{model=\"%s\",tier=\"%s\"} 1\n", escapeLabel(live.Name), s.BatchTier())
		b.WriteString("# HELP dpserve_model_dim Live model feature dimension.\n# TYPE dpserve_model_dim gauge\n")
		fmt.Fprintf(&b, "dpserve_model_dim{model=\"%s\"} %d\n", escapeLabel(live.Name), live.Dim)
		if l, ok, err := account.LedgerFromMeta(live.Meta); ok && err == nil {
			spent, total := l.Spent(), l.Total()
			b.WriteString("# HELP dpserve_dp_epsilon_spent Privacy budget epsilon spent on the live model (from its accountant ledger).\n# TYPE dpserve_dp_epsilon_spent gauge\n")
			fmt.Fprintf(&b, "dpserve_dp_epsilon_spent{model=\"%s\"} %s\n", escapeLabel(live.Name), formatFloat(spent.Epsilon))
			b.WriteString("# HELP dpserve_dp_delta_spent Privacy budget delta spent on the live model.\n# TYPE dpserve_dp_delta_spent gauge\n")
			fmt.Fprintf(&b, "dpserve_dp_delta_spent{model=\"%s\"} %s\n", escapeLabel(live.Name), formatFloat(spent.Delta))
			b.WriteString("# HELP dpserve_dp_epsilon_total Total privacy budget epsilon of the live model's accountant.\n# TYPE dpserve_dp_epsilon_total gauge\n")
			fmt.Fprintf(&b, "dpserve_dp_epsilon_total{model=\"%s\"} %s\n", escapeLabel(live.Name), formatFloat(total.Epsilon))
			b.WriteString("# HELP dpserve_dp_delta_total Total privacy budget delta of the live model's accountant.\n# TYPE dpserve_dp_delta_total gauge\n")
			fmt.Fprintf(&b, "dpserve_dp_delta_total{model=\"%s\"} %s\n", escapeLabel(live.Name), formatFloat(total.Delta))
			b.WriteString("# HELP dpserve_dp_rule Composition rule the live model's spend was accounted under (an absent ledger rule is simple); value is always 1.\n# TYPE dpserve_dp_rule gauge\n")
			fmt.Fprintf(&b, "dpserve_dp_rule{model=\"%s\",rule=\"%s\"} 1\n", escapeLabel(live.Name), escapeLabel(compose.Normalize(l.Rule)))
		}
	}

	// Canary series: designation gauge plus this rollout's counters.
	if cm, pct, rows, errs := s.reg.Canary(); cm != nil {
		b.WriteString("# HELP dpserve_canary_pct Active canary rollout traffic percentage, by candidate model.\n# TYPE dpserve_canary_pct gauge\n")
		fmt.Fprintf(&b, "dpserve_canary_pct{model=\"%s\"} %d\n", escapeLabel(cm.Name), pct)
		b.WriteString("# HELP dpserve_canary_rows_total Batch rows routed to the active canary.\n# TYPE dpserve_canary_rows_total counter\n")
		fmt.Fprintf(&b, "dpserve_canary_rows_total %d\n", rows)
		b.WriteString("# HELP dpserve_canary_errors_total Canary scoring failures (rows fell back to the live model).\n# TYPE dpserve_canary_errors_total counter\n")
		fmt.Fprintf(&b, "dpserve_canary_errors_total %d\n", errs)
	}
	b.WriteString("# HELP dpserve_canary_rollbacks_total Automatic canary rollbacks fired by the error-rate gate.\n# TYPE dpserve_canary_rollbacks_total counter\n")
	fmt.Fprintf(&b, "dpserve_canary_rollbacks_total %d\n", m.canaryRollbacks.Load())

	io.WriteString(w, b.String()) //nolint:errcheck // scrape writer; a failed scrape re-scrapes
}

// formatFloat renders a float the Prometheus text parser accepts.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format
// (backslash, quote and newline). %q adds the surrounding quotes and
// covers backslash/quote; newlines cannot appear in model names
// (ValidModelName), but escape defensively anyway.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}
