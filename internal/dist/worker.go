package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"

	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/store"
)

// Worker executes shard assignments: it installs validated shard
// manifests and advances them one merge epoch at a time with the
// noiseless Sequential kernel, exactly as an in-process sharded worker
// would. A Worker holds no privacy state — noise lives strictly above
// the coordinator, in internal/core.
//
// Epoch determinism is the worker's one non-obvious duty: a shard's
// permutation stream is fully determined by its seed (one permutation
// per epoch, in epoch order), so a worker asked for epoch e while its
// local generator stands at a different epoch rewinds — reseed, discard
// e permutations — before training. That makes every epoch request
// idempotent and lets the coordinator replay a lost response or move a
// shard to a fresh worker without skewing the randomness.
//
// A job's shards live until the coordinator releases the job (or until
// Close). Every path that retires a shard — release, re-install, Close —
// first removes it from the job table under the worker's lock, then
// closes its store reader under the shard's own lock. An epoch holds
// the shard's lock while it trains and checks, once it has the lock,
// that the shard is still installed, so it answers 404 rather than read
// an unmapped reader.
type Worker struct {
	mu   sync.Mutex
	jobs map[string]map[int]*shardState
}

// NewWorker returns an empty worker.
func NewWorker() *Worker {
	return &Worker{jobs: make(map[string]map[int]*shardState)}
}

// shardState is one installed (job, shard) assignment.
type shardState struct {
	mu      sync.Mutex
	spec    TrainSpec
	lossFn  loss.Function
	step    sgd.Schedule
	reader  *store.Reader
	samples sgd.Samples
	rows    int
	dim     int

	// seed/rng drive the per-epoch permutation stream (multi-shard
	// runs); perm is the delegated single-shard permutation instead.
	seed int64
	rng  *rand.Rand
	perm []int
	// next is the epoch the generator is positioned at, or -1 when a
	// failed run left it in an unknown state (forces a rewind).
	next int
}

// Handler returns the worker's HTTP surface:
//
//	GET  /dist/healthz — liveness + protocol handshake
//	POST /dist/shard   — install (or replace) a shard assignment
//	POST /dist/epoch   — advance an installed shard one merge epoch
//	POST /dist/release — free every shard of a finished job
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathHealthz, wk.handleHealthz)
	mux.HandleFunc(pathShard, wk.handleShard)
	mux.HandleFunc(pathEpoch, wk.handleEpoch)
	mux.HandleFunc(pathRelease, wk.handleRelease)
	return mux
}

// Close frees every installed shard. The worker is unusable afterwards.
func (wk *Worker) Close() error {
	wk.mu.Lock()
	jobs := wk.jobs
	wk.jobs = make(map[string]map[int]*shardState)
	wk.mu.Unlock()
	var first error
	for _, shards := range jobs {
		if err := freeShards(shards); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// shard returns the installed state of (job, shard), or nil.
func (wk *Worker) shard(job string, shard int) *shardState {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	return wk.jobs[job][shard]
}

// free closes the shard's store reader under the shard's lock, after an
// epoch running on it has finished. The caller has already removed the
// shard from the job table, so no later epoch can reach it.
func (st *shardState) free() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.reader.Close()
}

// freeShards frees every shard of one job, returning the first error.
func freeShards(shards map[int]*shardState) error {
	var first error
	for _, st := range shards {
		if err := st.free(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (wk *Worker) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	wk.mu.Lock()
	jobs, shards := len(wk.jobs), 0
	for _, m := range wk.jobs {
		shards += len(m)
	}
	wk.mu.Unlock()
	writeJSON(w, http.StatusOK, healthResponse{
		Version: ProtocolVersion, Status: "ok", Jobs: jobs, Shards: shards,
	})
}

func (wk *Worker) handleShard(w http.ResponseWriter, r *http.Request) {
	var req shardRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if err := checkVersion(req.Version); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Job == "" {
		httpError(w, http.StatusBadRequest, "dist: empty job id")
		return
	}
	if err := req.Spec.validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	lossFn, err := req.Spec.Loss.Build()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	step, err := req.Spec.Step.Build()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m := &req.Manifest
	rd, err := openShard(m)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rows := m.Hi - m.Lo
	if req.Perm != nil && len(req.Perm) != rows {
		rd.Close()
		httpError(w, http.StatusBadRequest, "dist: permutation length %d, shard holds %d rows", len(req.Perm), rows)
		return
	}
	st := &shardState{
		spec: req.Spec, lossFn: lossFn, step: step,
		reader: rd, samples: rd.Shard(m.Lo, m.Hi), rows: rows, dim: rd.Dim(),
		seed: req.Seed, perm: req.Perm,
	}
	if st.perm == nil {
		st.rng = rand.New(rand.NewSource(st.seed))
	}

	wk.mu.Lock()
	shards := wk.jobs[req.Job]
	if shards == nil {
		shards = make(map[int]*shardState)
		wk.jobs[req.Job] = shards
	}
	// Re-installing the same (job, shard) replaces the previous state —
	// the reassignment path after a worker failure.
	old := shards[m.Shard]
	shards[m.Shard] = st
	wk.mu.Unlock()
	if old != nil {
		old.free()
	}

	writeJSON(w, http.StatusOK, shardResponse{
		Version: ProtocolVersion, Job: req.Job, Shard: m.Shard,
		Rows: rows, Dim: st.dim,
	})
}

func (wk *Worker) handleEpoch(w http.ResponseWriter, r *http.Request) {
	var req epochRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if err := checkVersion(req.Version); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	wk.serveEpoch(r.Context(), w, &req, wk.shard(req.Job, req.Shard))
}

// serveEpoch runs req on st, the state the request's (job, shard) named
// when it was looked up. A shard released or replaced since then is no
// longer installed once the epoch holds its lock, and answers 404.
func (wk *Worker) serveEpoch(ctx context.Context, w http.ResponseWriter, req *epochRequest, st *shardState) {
	if st == nil {
		httpError(w, http.StatusNotFound, "dist: no shard %d installed for job %q", req.Shard, req.Job)
		return
	}
	w0, err := req.W.Decode()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(w0) != st.dim {
		httpError(w, http.StatusBadRequest, "dist: model has dim %d, shard data has dim %d", len(w0), st.dim)
		return
	}
	if req.Epoch < 0 || req.Passes < 1 || req.T0 < 0 {
		httpError(w, http.StatusBadRequest, "dist: epoch=%d passes=%d t0=%d invalid", req.Epoch, req.Passes, req.T0)
		return
	}

	st.mu.Lock()
	if wk.shard(req.Job, req.Shard) != st {
		st.mu.Unlock()
		httpError(w, http.StatusNotFound, "dist: shard %d of job %q was released", req.Shard, req.Job)
		return
	}
	res, err := st.runEpoch(ctx, req, w0)
	st.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := epochResponse{
		Version: ProtocolVersion, Job: req.Job, Shard: req.Shard, Epoch: req.Epoch,
		W: encodeVec(res.W), Updates: res.Updates, Passes: res.Passes,
	}
	if res.WAvg != nil {
		v := encodeVec(res.WAvg)
		resp.WAvg = &v
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRelease drops the job from the table, then frees its shards —
// each after any epoch running on it has finished.
func (wk *Worker) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req releaseRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if err := checkVersion(req.Version); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	wk.mu.Lock()
	shards := wk.jobs[req.Job]
	delete(wk.jobs, req.Job)
	wk.mu.Unlock()
	if err := freeShards(shards); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, releaseResponse{Version: ProtocolVersion, Job: req.Job, Shards: len(shards)})
}

// runEpoch advances the shard under its own lock. Two modes, mirroring
// the engine's two sharded paths:
//
//   - Delegated permutation (P = 1): the installed explicit permutation
//     is used and all passes run in one continuous sgd.Run — the
//     engine's one-worker delegation to the sequential path, whose
//     iterate-average arithmetic differs bitwise from per-epoch merging.
//     Only epoch 0 exists.
//
//   - Seeded (P > 1): exactly one pass from the shared model, consuming
//     one permutation from the seeded generator. If the generator is
//     not positioned at the requested epoch, rewind deterministically
//     first.
//
// ctx is the request's: an epoch the coordinator gave up on stops at
// the next update instead of holding the shard lock to the end.
func (st *shardState) runEpoch(ctx context.Context, req *epochRequest, w0 []float64) (*sgd.Result, error) {
	cfg := sgd.Config{
		Loss:          st.lossFn,
		Step:          st.step,
		Batch:         st.spec.Batch,
		Radius:        st.spec.Radius,
		Average:       st.spec.Average,
		KernelWorkers: st.spec.KernelWorkers,
		W0:            w0,
		T0:            req.T0,
		Ctx:           ctx,
	}
	if st.perm != nil {
		if req.Epoch != 0 {
			return nil, fmt.Errorf("dist: delegated single-shard runs have only epoch 0, got %d", req.Epoch)
		}
		cfg.Passes = req.Passes
		cfg.Perm = st.perm
		return sgd.Run(st.samples, cfg)
	}
	if req.Passes != 1 {
		return nil, fmt.Errorf("dist: seeded shards advance one pass per epoch, got passes=%d", req.Passes)
	}
	if st.next != req.Epoch {
		// Deterministic rewind: the permutation stream is a pure
		// function of (seed, epoch), so a retry, a replayed request or
		// a reassignment lands on exactly the permutation the original
		// schedule would have drawn.
		st.rng = rand.New(rand.NewSource(st.seed))
		for i := 0; i < req.Epoch; i++ {
			st.rng.Perm(st.rows)
		}
		st.next = req.Epoch
	}
	cfg.Passes = 1
	cfg.Rand = st.rng
	res, err := sgd.Run(st.samples, cfg)
	if err != nil {
		// The generator may or may not have consumed its permutation;
		// force a rewind on the next request rather than guess.
		st.next = -1
		return nil, err
	}
	st.next = req.Epoch + 1
	return res, nil
}

// ---------------------------------------------------------------------
// Shared HTTP helpers (the serve-tier idiom).
// ---------------------------------------------------------------------

// maxBody bounds request bodies. No request carries data rows; the
// largest is a single-shard (P = 1) install, whose explicit permutation
// holds one JSON integer per row — 1 GiB covers some 10⁸ rows.
const maxBody = 1 << 30

func decodeRequest(w http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	// A typo'd field must be a 400, not a silently dropped key — the
	// same strictness as the serving tier's request decoding.
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}
