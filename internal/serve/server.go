package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"boltondp/internal/engine"
	"boltondp/internal/vec"
)

// Row is one example in the request wire format: either a dense vector
// ("x") or sparse coordinate form ("idx"/"val", pairs in any order,
// duplicates summed). Exactly one of the two forms must be present.
type Row struct {
	X   []float64 `json:"x,omitempty"`
	Idx []int     `json:"idx,omitempty"`
	Val []float64 `json:"val,omitempty"`
}

// Score scores one wire row against the model. Sparse rows go through
// the eval sparse tier: one O(classes·nnz) row visit, never a dense
// scatter. Already-canonical coordinate rows (strictly increasing
// indices) are scored zero-copy; anything else is canonicalized
// through vec.SortedCopy.
func (m *Model) Score(row *Row) (float64, error) {
	switch {
	case row.X != nil && (row.Idx != nil || row.Val != nil):
		return 0, errors.New("row has both dense and sparse form")
	case row.X != nil:
		if len(row.X) != m.Dim {
			return 0, fmt.Errorf("row has %d features, model %q expects %d", len(row.X), m.Name, m.Dim)
		}
		return m.Classifier.Predict(row.X), nil
	case row.Idx != nil || row.Val != nil:
		sp, err := canonicalRow(row.Idx, row.Val, new(vec.Sparse))
		if err != nil {
			return 0, err
		}
		return m.scoreSparse(sp, false)
	default:
		return 0, errors.New(`empty row (need "x" or "idx"/"val")`)
	}
}

// canonicalRow is one coordinate-form row as the scorers and the canary
// hash take it: sorted indices, duplicates summed. sp is the caller's
// row header: pairs that are already canonical (the common case for
// programmatic clients) come back through it zero-copy, anything else
// as a canonicalizing copy.
func canonicalRow(idx []int, val []float64, sp *vec.Sparse) (*vec.Sparse, error) {
	if len(idx) == len(val) && canonical(idx) {
		sp.Idx, sp.Val = idx, val
		return sp, nil
	}
	return vec.SortedCopy(idx, val)
}

// scoreSparse scores one canonical row on either precision tier, after
// the model's own bounds check.
func (m *Model) scoreSparse(sp *vec.Sparse, f32 bool) (float64, error) {
	if mi := sp.MaxIndex(); mi >= m.Dim {
		return 0, fmt.Errorf("sparse index %d out of range for model %q (dim %d)", mi, m.Name, m.Dim)
	}
	if f32 {
		return m.predictSparse32(sp.Idx, sp.Val), nil
	}
	return m.Sparse.PredictSparse(sp), nil
}

// canonical reports whether indices are non-negative and strictly
// increasing — vec.NewSparse's invariant, checked without the error
// plumbing.
func canonical(idx []int) bool {
	if len(idx) > 0 && idx[0] < 0 {
		return false
	}
	for i := 1; i < len(idx); i++ {
		if idx[i-1] >= idx[i] {
			return false
		}
	}
	return true
}

// fanOut runs fn over [0, n) split into contiguous chunks across up
// to workers goroutines and returns the first error. Each invocation
// owns its range exclusively, so callers write disjoint output slots
// without locking. ctx is polled per row by the chunk functions; fanOut
// itself refuses to start work on an already-dead context.
func fanOut(ctx context.Context, n, workers int, fn func(lo, hi int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return fn(0, n)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w, b := range engine.ShardBounds(n, workers) {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = fn(lo, hi)
		}(w, b[0], b[1])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// canaryRouter carries an active canary rollout into a batch scoring
// loop: rows whose hash bucket falls under the rollout percentage
// score on the canary model (with per-row fallback to the primary on
// canary failure — a broken canary degrades the rollout, never the
// request). See canary.go for the full contract.
type canaryRouter struct {
	cs *canaryState
}

// score scores one canonical row: on the canary when a rollout is
// active (rt != nil) and the row hashes under its percentage, falling
// back to the primary when the canary cannot score it, and on the
// primary otherwise.
func (rt *canaryRouter) score(primary *Model, sp *vec.Sparse, f32 bool) (float64, error) {
	if rt == nil || rowBucket(sp.Idx, sp.Val) >= rt.cs.pct {
		return primary.scoreSparse(sp, f32)
	}
	rt.cs.rows.Add(1)
	y, err := rt.cs.model.scoreSparse(sp, f32)
	if err == nil {
		return y, nil
	}
	rt.cs.errors.Add(1)
	return primary.scoreSparse(sp, f32)
}

// ScoreBatchCSR scores a columnar sparse batch across up to workers
// goroutines: row i is the coordinate pairs
// idx[indptr[i]:indptr[i+1]] / val[...], the one batch encoding of
// /predict/batch. The whole batch is three JSON arrays, so decode cost
// per row collapses to the numbers themselves, and canonical rows are
// scored zero-copy straight out of the decoded arrays at
// O(rows·classes·nnz) total. It scores through the full-precision
// tier; the float32 tier the batch handler defaults to is
// ScoreBatchCSRF32.
func (m *Model) ScoreBatchCSR(indptr, idx []int, val []float64, workers int) ([]float64, error) {
	return m.scoreBatchCSR(context.Background(), nil, indptr, idx, val, workers, false, nil)
}

// ScoreBatchCSRF32 scores a columnar sparse batch through the float32
// tier: identical validation and fan-out, with each margin taken
// against the quantized weight rows (see f32.go). Labels agree with
// the full-precision tier except on rows whose margin magnitude is
// within weight-quantization distance of the decision boundary.
func (m *Model) ScoreBatchCSRF32(indptr, idx []int, val []float64, workers int) ([]float64, error) {
	return m.scoreBatchCSR(context.Background(), nil, indptr, idx, val, workers, true, nil)
}

// scoreBatchCSR is the columnar scorer behind the exported forms and
// the batch handler. labels is storage to score into when it is large
// enough (the handler's pooled scratch); nil allocates. Scoring stops
// within one row of ctx's cancellation and returns ctx.Err(), so a
// client that disconnects or times out releases its scoring workers.
// Each row is canonicalized once, before the canary hash, so that how
// a request spells a row (pair order, split duplicates) cannot move it
// across the rollout boundary.
func (m *Model) scoreBatchCSR(ctx context.Context, labels []float64, indptr, idx []int, val []float64, workers int, f32 bool, rt *canaryRouter) ([]float64, error) {
	if len(idx) != len(val) {
		return nil, fmt.Errorf("idx/val length mismatch %d != %d", len(idx), len(val))
	}
	if len(indptr) < 2 || indptr[0] != 0 || indptr[len(indptr)-1] != len(idx) {
		return nil, fmt.Errorf("indptr must start at 0 and end at len(idx)=%d", len(idx))
	}
	n := len(indptr) - 1
	labels = slices.Grow(labels[:0], n)[:n]
	err := fanOut(ctx, n, workers, func(lo, hi int) error {
		var sp vec.Sparse
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			a, b := indptr[i], indptr[i+1]
			if a < 0 || a > b || b > len(idx) {
				return fmt.Errorf("row %d: indptr not monotone", i)
			}
			row, err := canonicalRow(idx[a:b], val[a:b], &sp)
			var y float64
			if err == nil {
				y, err = rt.score(m, row, f32)
			}
			if err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
			labels[i] = y
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return labels, nil
}

// PackCSR packs sparse wire rows into the columnar batch form
// (indptr/idx/val), the one body /predict/batch takes. Dense rows are
// rejected: the columnar form carries coordinates only, so a client
// batching dense rows sends the pairs of their nonzeros.
func PackCSR(rows []Row) (indptr, idx []int, val []float64, err error) {
	indptr = make([]int, 1, len(rows)+1)
	for i := range rows {
		if rows[i].X != nil {
			return nil, nil, nil, fmt.Errorf("row %d: dense rows cannot pack into CSR form", i)
		}
		idx = append(idx, rows[i].Idx...)
		val = append(val, rows[i].Val...)
		indptr = append(indptr, len(idx))
	}
	return indptr, idx, val, nil
}

// Config tunes the prediction service.
type Config struct {
	// Workers is the number of goroutines scoring each batch request
	// (default 1: the caller's goroutine; the HTTP server already runs
	// one goroutine per connection).
	Workers int
	// MaxBatch caps rows per /predict/batch request (default 8192).
	MaxBatch int
	// MaxBody caps the request body in bytes (default 32 MiB).
	MaxBody int64
	// Float64Batch opts /predict/batch out of the float32 scoring
	// tier, scoring every batch at full precision. Single-row /predict
	// always scores at full precision.
	Float64Batch bool

	// MaxInflight bounds the scoring requests running at once; 0 (the
	// default) leaves admission unlimited. When set, up to MaxQueue
	// more requests wait for a slot and everything beyond that is shed
	// with 429 + Retry-After (see admission.go).
	MaxInflight int
	// MaxQueue bounds the admission queue (default: MaxInflight).
	MaxQueue int
	// QueueTimeout bounds how long a request may wait for a scoring
	// slot before being shed (default 1s).
	QueueTimeout time.Duration

	// CanaryErrorRate is the canary auto-rollback threshold: once the
	// active rollout has scored at least CanaryMinRows rows, an
	// error rate above this fraction rolls the canary back (default
	// 0.05). See canary.go.
	CanaryErrorRate float64
	// CanaryMinRows is the sample floor before the rollback gate can
	// fire (default 200) — a single early failure must not kill a
	// rollout the way it would at n=1.
	CanaryMinRows int

	// Logf, when set, receives operational log lines (truncated
	// responses, canary rollbacks); nil logs through the standard
	// library logger.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 8192
	}
	if c.MaxBody < 1 {
		c.MaxBody = 32 << 20
	}
	if c.MaxInflight > 0 {
		if c.MaxQueue < 1 {
			c.MaxQueue = c.MaxInflight
		}
		if c.QueueTimeout <= 0 {
			c.QueueTimeout = time.Second
		}
	}
	if c.CanaryErrorRate <= 0 {
		c.CanaryErrorRate = 0.05
	}
	if c.CanaryMinRows < 1 {
		c.CanaryMinRows = 200
	}
	return c
}

// Server is the HTTP prediction service over a registry. Scoring
// synchronization lives in the registry; the server's own state is
// observability (metrics) and the admission gate.
type Server struct {
	reg     *Registry
	cfg     Config
	metrics *Metrics
	adm     *admission

	// testHookScoring, when set by a test, runs inside the scoring
	// handlers while the admission slot is held — the deterministic
	// stand-in for a slow batch in the overload tests.
	testHookScoring func()
}

// New builds a prediction service over the registry.
func New(reg *Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{reg: reg, cfg: cfg, metrics: &Metrics{}, adm: newAdmission(cfg)}
}

// logf routes operational log lines through Config.Logf (or the
// standard logger when unset).
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
		return
	}
	stdlog(format, args...)
}

// Handler returns the service's route table:
//
//	POST /predict        {"x":[...]} or {"idx":[...],"val":[...]} (+"model")
//	POST /predict/batch  columnar {"indptr":[...],"idx":[...],"val":[...]} (+"model")
//	GET  /healthz        load-balancer health: 200 iff a live model is set; reports shed-state
//	GET  /modelz         registry introspection (incl. the active canary)
//	GET  /metrics        Prometheus text exposition
//
// The scoring routes sit behind the admission gate (when configured);
// the introspection routes never do — an overloaded replica must stay
// observable.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", s.instrument("predict", s.admit(s.handlePredict)))
	mux.HandleFunc("POST /predict/batch", s.instrument("predict_batch", s.admit(s.handleBatch)))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /modelz", s.instrument("modelz", s.handleModelz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	return mux
}

type healthResponse struct {
	Status    string          `json:"status"`
	Live      string          `json:"live,omitempty"`
	Models    int             `json:"models"`
	Admission *admissionState `json:"admission,omitempty"`
}

type modelInfo struct {
	Name      string            `json:"name"`
	Dim       int               `json:"dim"`
	Classes   int               `json:"classes"`
	Live      bool              `json:"live"`
	Canary    bool              `json:"canary,omitempty"`
	Published time.Time         `json:"published"`
	Meta      map[string]string `json:"meta,omitempty"`
}

// canaryInfo is the /modelz view of the active rollout.
type canaryInfo struct {
	Model  string `json:"model"`
	Pct    int    `json:"pct"`
	Rows   uint64 `json:"rows"`
	Errors uint64 `json:"errors"`
}

type modelzResponse struct {
	Live string `json:"live,omitempty"`
	// BatchTier is the precision tier the columnar /predict/batch path
	// scores at: "float32" (default) or "float64" (Config.Float64Batch).
	BatchTier string      `json:"batchTier"`
	Canary    *canaryInfo `json:"canary,omitempty"`
	Models    []modelInfo `json:"models"`
}

// model resolves the version a request addresses: a named one, or the
// live model (one atomic load, no lock).
func (s *Server) model(name string) (*Model, int, error) {
	if name != "" {
		m, ok := s.reg.Get(name)
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("no model %q", name)
		}
		return m, 0, nil
	}
	m := s.reg.Live()
	if m == nil {
		return nil, http.StatusServiceUnavailable, errors.New("no live model")
	}
	return m, 0, nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc) // after the reply, which is built in sc, is written
	if !s.readRequest(w, r, sc, predictFields) {
		return
	}
	m, code, err := s.model(sc.req.model)
	if err != nil {
		s.httpError(w, code, "%v", err)
		return
	}
	if s.testHookScoring != nil {
		s.testHookScoring()
	}
	row := sc.req.row()
	y, err := m.Score(&row)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sc.reply = appendPredictReply(sc.reply[:0], m.Name, y)
	s.writeReply(w, sc.reply)
}

// handleBatch takes the columnar CSR triple "indptr"/"idx"/"val", the
// one batch encoding; any other key, "rows" included, is a 400.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc) // after the reply, which is built in sc, is written
	if !s.readRequest(w, r, sc, batchFields) {
		return
	}
	req := &sc.req
	indptr, idx, val := req.indptr.slice(), req.idx.slice(), req.val.slice()
	if len(indptr) == 0 && (idx != nil || val != nil) {
		s.httpError(w, http.StatusBadRequest, `columnar batch is missing "indptr"`)
		return
	}
	n := len(indptr) - 1
	if n <= 0 {
		s.httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if n > s.cfg.MaxBatch {
		s.httpError(w, http.StatusRequestEntityTooLarge, "batch of %d rows exceeds limit %d", n, s.cfg.MaxBatch)
		return
	}
	m, code, err := s.model(req.model)
	if err != nil {
		s.httpError(w, code, "%v", err)
		return
	}
	if s.testHookScoring != nil {
		s.testHookScoring()
	}
	// Canary routing applies only to live-model batches: a request
	// naming an explicit version gets exactly that version.
	var rt *canaryRouter
	var cs *canaryState
	if req.model == "" {
		if cs = s.reg.canary.Load(); cs != nil && cs.pct > 0 {
			rt = &canaryRouter{cs: cs}
		}
	}
	sc.labels, err = m.scoreBatchCSR(r.Context(), sc.labels, indptr, idx, val, s.cfg.Workers, !s.cfg.Float64Batch, rt)
	if cs != nil {
		s.maybeRollback(cs)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The request context died mid-scoring. A disconnected
			// client never reads the status, but during graceful
			// shutdown (BaseContext cancellation) the connection is
			// still open — silence here would surface as a 200 with an
			// empty body, which a client would misread as success.
			s.httpError(w, http.StatusServiceUnavailable, "request cancelled: %v", err)
			return
		}
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.metrics.batchRows.Add(uint64(n))
	sc.reply = appendBatchReply(sc.reply[:0], m.Name, sc.labels)
	s.writeReply(w, sc.reply)
}

// maybeRollback fires the canary auto-rollback once the active rollout
// has enough sample and its error rate crosses the configured
// threshold. The registry-side compare-and-swap makes the check
// idempotent across concurrent batches.
func (s *Server) maybeRollback(cs *canaryState) {
	rows := cs.rows.Load()
	if rows < uint64(s.cfg.CanaryMinRows) {
		return
	}
	errs := cs.errors.Load()
	if float64(errs) <= s.cfg.CanaryErrorRate*float64(rows) {
		return
	}
	if s.reg.rollbackCanary(cs) {
		s.metrics.canaryRollbacks.Add(1)
		s.logf("serve: canary %q rolled back: %d of %d routed rows errored (threshold %.3f)",
			cs.model.Name, errs, rows, s.cfg.CanaryErrorRate)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// One registry snapshot: the model count and live name must come
	// from the same registry state (a publish landing between two
	// separate reads could pair models:0 with a live name).
	live, models := s.reg.Snapshot()
	resp := healthResponse{Models: models}
	if s.adm != nil {
		st := s.adm.state()
		resp.Admission = &st
	}
	if live != nil {
		resp.Status, resp.Live = "ok", live.Name
		s.writeJSON(w, http.StatusOK, resp)
		return
	}
	resp.Status = "no live model"
	s.writeJSON(w, http.StatusServiceUnavailable, resp)
}

func (s *Server) handleModelz(w http.ResponseWriter, _ *http.Request) {
	live := s.reg.Live()
	resp := modelzResponse{BatchTier: s.BatchTier(), Models: []modelInfo{}}
	if live != nil {
		resp.Live = live.Name
	}
	cm, pct, rows, errs := s.reg.Canary()
	if cm != nil {
		resp.Canary = &canaryInfo{Model: cm.Name, Pct: pct, Rows: rows, Errors: errs}
	}
	for _, m := range s.reg.Models() {
		resp.Models = append(resp.Models, modelInfo{
			Name: m.Name, Dim: m.Dim, Classes: m.Classes,
			Live: m == live, Canary: cm != nil && m.Name == cm.Name,
			Published: m.Published, Meta: m.Meta,
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// writeJSON writes a JSON response. An Encode failure after the
// headers went out cannot change the status line anymore, but it must
// not be invisible either: the client received a truncated body that
// will fail to parse, and the operator needs to know that happened —
// it is counted (dpserve_response_encode_errors_total) and logged.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.metrics.encodeErrors.Add(1)
		s.logf("serve: %d response truncated mid-body: %v", code, err)
	}
}

func (s *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
