package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"time"

	"boltondp/internal/serve"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

const (
	poolRows  = 4096 // held-out rows the request bodies are cut from
	batchRows = 256  // rows per /predict/batch request
	// A run scores in slices, one of each route after every job pair, so
	// each serving metric is sampled from the run's first second to its
	// last. A slice is a few windows, and rate, median and tail are taken
	// per window. The host slows everything by half for a few hundred
	// milliseconds at a time, a tenth of the time and in a busy minute
	// most of it; a window is short enough to lie inside or outside such
	// a stretch, so the best tenth of the windows (metricSpec.summarize)
	// reads the program and not how much of the run the host took. A
	// window lasts until its time is up and it has sent enough requests
	// for its percentile to leave ten beyond it: 1000 for /predict's 99th
	// (75 ms hold 1300 to 2000), 20 for /predict/batch's median (125 ms
	// hold 20 to 100).
	singleWindow, singleWindows, singleWindowReq = 75 * time.Millisecond, 12, 1000
	batchWindow, batchWindows, batchWindowReq    = 125 * time.Millisecond, 6, 20
	// minWindowReq is the fewest requests a window of a -smoke run sends.
	minWindowReq = 4
)

// serveTarget is one serve.Server on a loopback listener with the
// request bodies of a 1-client closed loop: sparse single rows for
// /predict and columnar CSR batches for /predict/batch (the two wire
// forms ROADMAP item 5 keeps), pre-encoded so the loop times the
// server, not the client's encoder.
type serveTarget struct {
	reg    *serve.Registry
	url    string
	srv    *http.Server
	served chan struct{} // closed when Serve has returned
	client *http.Client

	rows     []*vec.Sparse
	singles  [][]byte
	batches  [][]byte
	perBatch int // rows in each batch body
	// expect maps a model name to the label offline PredictSparse gives
	// each pool row under that model.
	expect map[string][]float64
	// beside, when set, runs beside every call of slices until its context
	// ends (serve_closed's republish-and-swap ticker) and returns how
	// many operations it completed; an error is one failed operation.
	beside    func(ctx context.Context) (ops int, err error)
	besideOps int
	shed      int // 429 replies seen
	// batch rows scored so far, and how many of their float32-tier
	// labels differ from offline float64.
	scored, disagree int
	// where in the pool the next window of each route starts.
	atSingle, atBatch int
}

// newServeTarget starts a server over reg and encodes requests from
// the first poolRows rows of held.
func newServeTarget(reg *serve.Registry, held sgd.Samples) (*serveTarget, error) {
	t := &serveTarget{reg: reg, expect: map[string][]float64{}, served: make(chan struct{})}
	n := min(poolRows, held.Len())
	sp, sparse := held.(sgd.SparseSamples)
	for i := 0; i < n; i++ {
		var row *vec.Sparse
		if sparse {
			x, _ := sp.AtSparse(i)
			row = &vec.Sparse{Idx: append([]int(nil), x.Idx...), Val: append([]float64(nil), x.Val...)}
		} else {
			x, _ := held.At(i)
			row = vec.DenseToSparse(x)
		}
		t.rows = append(t.rows, row)
		b, err := json.Marshal(struct {
			Idx []int     `json:"idx"`
			Val []float64 `json:"val"`
		}{row.Idx, row.Val})
		if err != nil {
			return nil, err
		}
		t.singles = append(t.singles, b)
	}
	per := min(batchRows, n)
	t.perBatch = per
	for lo := 0; lo+per <= n; lo += per {
		indptr, idx, val := []int{0}, []int{}, []float64{}
		for _, row := range t.rows[lo : lo+per] {
			idx = append(idx, row.Idx...)
			val = append(val, row.Val...)
			indptr = append(indptr, len(idx))
		}
		b, err := json.Marshal(struct {
			Indptr []int     `json:"indptr"`
			Idx    []int     `json:"idx"`
			Val    []float64 `json:"val"`
		}{indptr, idx, val})
		if err != nil {
			return nil, err
		}
		t.batches = append(t.batches, b)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.url = "http://" + ln.Addr().String()
	t.srv = &http.Server{Handler: serve.New(reg, serve.Config{Logf: func(string, ...any) {}}).Handler()}
	go func() {
		defer close(t.served)
		t.srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after close()
	}()
	t.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	return t, nil
}

// newModelTarget is a target that serves the one model m of reg.
func newModelTarget(reg *serve.Registry, held sgd.Samples, m *serve.Model) (*serveTarget, error) {
	t, err := newServeTarget(reg, held)
	if err != nil {
		return nil, err
	}
	t.expectModel(m)
	return t, nil
}

// expectModel records the offline labels of every pool row under m.
func (t *serveTarget) expectModel(m *serve.Model) {
	labels := make([]float64, len(t.rows))
	for i, row := range t.rows {
		labels[i] = m.Sparse.PredictSparse(row)
	}
	t.expect[m.Name] = labels
}

func (t *serveTarget) close() {
	if t.srv == nil {
		return
	}
	t.srv.Close() //nolint:errcheck // benchmark teardown
	<-t.served
	t.client.CloseIdleConnections()
	t.srv = nil
}

// post sends one request and returns the reply with its latency: from
// before the request is built until the body is fully read.
func (t *serveTarget) post(ctx context.Context, path string, body []byte, buf *bytes.Buffer) (int, time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(start), err
}

// loopStats is one closed-loop window: per-request latencies and how
// long the window took.
type loopStats struct {
	lat  []float64 // seconds
	took time.Duration
}

// closedLoop sends requests one at a time for d (at least minReq of
// them): the next only after verify has seen the previous reply. from is
// the body the window starts at, so consecutive windows walk the pool.
func (t *serveTarget) closedLoop(ctx context.Context, r *run, path string, bodies [][]byte, from, minReq int, d time.Duration, verify func(i int, reply []byte) error) loopStats {
	var buf bytes.Buffer
	var st loopStats
	t0 := time.Now()
	deadline := t0.Add(d)
	for i := 0; i < minReq || time.Now().Before(deadline); i++ {
		k := (from + i) % len(bodies)
		code, lat, err := t.post(ctx, path, bodies[k], &buf)
		r.attempted++
		switch {
		case err != nil:
			r.fail("%s: %v", path, err)
		case code != http.StatusOK:
			if code == http.StatusTooManyRequests {
				t.shed++
			}
			r.fail("%s: status %d: %s", path, code, bytes.TrimSpace(buf.Bytes()))
		default:
			if err := verify(k, buf.Bytes()); err != nil {
				r.fail("%s: %v", path, err)
			}
		}
		st.lat = append(st.lat, lat.Seconds())
	}
	st.took = time.Since(t0)
	return st
}

// summary reports the window's request rate, median latency and tail
// latency at percentile level — or at a lower one when the window has
// fewer than ten samples beyond it, which only a -smoke run is short
// enough for.
func (st loopStats) summary(level float64) (rate, p50, tail float64) {
	s := append([]float64(nil), st.lat...)
	sort.Float64s(s)
	level = min(tailPercentile(len(s)), level)
	return float64(len(s)) / st.took.Seconds(), percentile(s, 50), percentile(s, level)
}

// slices runs one /predict slice (single sparse rows) then one
// /predict/batch slice (columnar CSR) and records, per window, one sample
// of each of the five serving metrics. scale shortens the windows of a
// run shorter than BENCHMARK.json's (-smoke). Every reply must be 200
// and carry the label offline PredictSparse gives under the model the
// reply names (checkTier judges the batch path's float32 tier).
//
// The loop runs on one P. One client waits for one server, so a second
// P gives them nothing to overlap and puts a thread wake-up on every
// hop; how long a wake-up takes is the host's doing, and with two Ps a
// run sits for seconds on end in one of two modes, 54 or 80 us a request.
func (t *serveTarget) slices(ctx context.Context, r *run, scale float64) error {
	if len(t.singles) == 0 || len(t.batches) == 0 {
		return fmt.Errorf("no held-out rows to score")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if t.beside != nil {
		bctx, cancel := context.WithCancel(ctx)
		type outcome struct {
			ops int
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			ops, err := t.beside(bctx)
			done <- outcome{ops, err}
		}()
		defer func() {
			cancel()
			res := <-done
			t.besideOps += res.ops
			r.attempted += res.ops
			r.check(res.err == nil, "beside the scoring loop: %v", res.err)
		}()
	}
	window := func(d time.Duration) time.Duration { return time.Duration(scale * float64(d)) }
	atLeast := func(req int) int { return max(minWindowReq, int(scale*float64(req))) }

	var one struct {
		Model string
		Label float64
	}
	for w := 0; w < singleWindows; w++ {
		a := t.closedLoop(ctx, r, "/predict", t.singles, t.atSingle, atLeast(singleWindowReq), window(singleWindow), func(i int, reply []byte) error {
			if err := json.Unmarshal(reply, &one); err != nil {
				return err
			}
			want, ok := t.expect[one.Model]
			if !ok {
				return fmt.Errorf("reply names unknown model %q", one.Model)
			}
			if one.Label != want[i] {
				return fmt.Errorf("row %d under %q: label %v, offline %v", i, one.Model, one.Label, want[i])
			}
			return nil
		})
		t.atSingle += len(a.lat)
		rate, p50, p99 := a.summary(99)
		r.add("predict_rps", rate)
		r.add("predict_p50_us", p50*1e6)
		r.add("predict_p99_us", p99*1e6)
	}

	per := t.perBatch
	var many struct {
		Model  string
		Labels []float64
	}
	for w := 0; w < batchWindows; w++ {
		b := t.closedLoop(ctx, r, "/predict/batch", t.batches, t.atBatch, atLeast(batchWindowReq), window(batchWindow), func(k int, reply []byte) error {
			many.Labels = many.Labels[:0]
			if err := json.Unmarshal(reply, &many); err != nil {
				return err
			}
			want, ok := t.expect[many.Model]
			if !ok {
				return fmt.Errorf("reply names unknown model %q", many.Model)
			}
			if len(many.Labels) != per {
				return fmt.Errorf("batch %d: %d labels for %d rows", k, len(many.Labels), per)
			}
			for i, y := range many.Labels {
				if y != want[k*per+i] {
					t.disagree++
				}
			}
			t.scored += per
			return nil
		})
		t.atBatch += len(b.lat)
		rate, p50, _ := b.summary(50)
		r.add("batch_rows_per_s", rate*float64(per))
		r.add("batch_p50_ms", p50*1e3)
	}
	return nil
}

// checkTier is the check on everything the batch slices scored: the
// float32 tier must agree with offline float64 on at least 99.9% of rows.
func (t *serveTarget) checkTier(r *run) {
	r.check(float64(t.disagree) <= 0.001*float64(t.scored),
		"batch float32 tier disagrees with offline float64 on %d of %d rows", t.disagree, t.scored)
}

// get fetches an introspection route.
func (t *serveTarget) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.url+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// probeForm sends body in a short closed loop and returns requests per
// second, or ok=false when the server does not accept the form.
func (t *serveTarget) probeForm(ctx context.Context, path string, body []byte) (rate float64, ok bool) {
	var buf bytes.Buffer
	const probe = 300 * time.Millisecond
	start := time.Now()
	n := 0
	for ; n < minWindowReq || time.Since(start) < probe; n++ {
		code, _, err := t.post(ctx, path, body, &buf)
		if err != nil || code != http.StatusOK {
			return 0, false
		}
	}
	return float64(n) / time.Since(start).Seconds(), true
}
