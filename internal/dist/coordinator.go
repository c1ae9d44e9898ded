package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"boltondp/internal/engine"
	"boltondp/internal/sgd"
)

// CoordinatorConfig tunes a coordinator's HTTP behavior and failure
// policy. The zero value is usable.
type CoordinatorConfig struct {
	// Client is the HTTP client worker calls go through (default
	// http.DefaultClient). Parity tests inject an httptest client here.
	Client *http.Client

	// EpochTimeout bounds each worker call (shard install, epoch run).
	// Zero means no per-call deadline beyond the run context's.
	EpochTimeout time.Duration

	// Retries is how many times a failed call is retried on the SAME
	// worker before the worker is declared dead and its shards are
	// reassigned (default 1).
	Retries int

	// Backoff is the base delay between retries, doubled per attempt
	// (default 10ms). The run context cancels a sleeping retry.
	Backoff time.Duration
}

func (c *CoordinatorConfig) withDefaults() CoordinatorConfig {
	out := *c
	if out.Client == nil {
		out.Client = http.DefaultClient
	}
	if out.Retries == 0 {
		out.Retries = 1
	}
	if out.Backoff == 0 {
		out.Backoff = 10 * time.Millisecond
	}
	return out
}

// Coordinator drives distributed sharded training runs over a pool of
// registered workers. It is safe for concurrent use, but a single
// Train call is the unit the parity contract is stated for.
type Coordinator struct {
	cfg CoordinatorConfig

	mu      sync.Mutex
	workers []*workerRef
}

type workerRef struct {
	url  string
	dead bool
}

// NewCoordinator returns a coordinator with no registered workers.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	return &Coordinator{cfg: cfg.withDefaults()}
}

// Register performs the handshake with the worker at baseURL (scheme +
// host[:port]) and adds it to the pool. The handshake validates the
// protocol version fail-closed, so a version-skewed worker is rejected
// at registration, not mid-run.
func (c *Coordinator) Register(ctx context.Context, baseURL string) error {
	baseURL = strings.TrimRight(baseURL, "/")
	if _, err := url.Parse(baseURL); err != nil || baseURL == "" {
		return fmt.Errorf("dist: worker url %q invalid", baseURL)
	}
	var h healthResponse
	if err := c.get(ctx, baseURL+PathHealthz, &h); err != nil {
		return fmt.Errorf("dist: worker %s handshake: %w", baseURL, err)
	}
	if err := checkVersion(h.Version); err != nil {
		return fmt.Errorf("dist: worker %s: %w", baseURL, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.url == baseURL {
			w.dead = false // re-registration revives a dead worker
			return nil
		}
	}
	c.workers = append(c.workers, &workerRef{url: baseURL})
	return nil
}

// Workers returns the URLs of the live registered workers, in
// registration order.
func (c *Coordinator) Workers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.workers))
	for _, w := range c.workers {
		if !w.dead {
			out = append(out, w.url)
		}
	}
	return out
}

// Job describes one distributed training run.
type Job struct {
	// ID names the run on the wire; every shard and epoch request
	// carries it and every response must echo it.
	ID string
	// Spec is the per-shard SGD parameterization, fully resolved (the
	// caller — internal/core — applies defaults and calibration before
	// building it).
	Spec TrainSpec
	// Shards is the shard count P. The parity target is the in-process
	// engine run with Strategy=Sharded, Workers=P.
	Shards int
	// Passes is the merge-epoch count k.
	Passes int
	// W0 is the starting model (nil means the origin).
	W0 []float64
}

// Train runs one distributed sharded training job and returns the
// merged (noiseless) model: the engine.Result the in-process Sharded(P)
// run returns, bit for bit, under the parity contract. r plays exactly
// the role engine.Run's cfg.SGD.Rand plays for the in-process Sharded
// strategy, and is consumed identically: P = 1 draws one permutation of the whole
// dataset; P > 1 draws P shard seeds via Int63 in shard order. A caller
// drawing noise from r afterwards therefore sees the same values either
// way — the keystone of private-run parity.
//
// Failure policy: a failed worker call is retried on the same worker
// with backoff; a worker that exhausts its retries is marked dead and
// its shards are reassigned (install + deterministic epoch rewind) to
// the next live worker; when no live workers remain, or ctx is done,
// the run aborts fail-closed — no partial average is ever returned.
// However the run ends, every worker an install was sent to is then
// asked to release the job (see release).
func (c *Coordinator) Train(ctx context.Context, src *Source, job Job, r *rand.Rand) (*engine.Result, error) {
	if r == nil {
		return nil, errors.New("dist: Train requires a *rand.Rand (the parity contract is stated against its state)")
	}
	if job.Passes < 1 {
		return nil, fmt.Errorf("dist: Passes must be >= 1, got %d", job.Passes)
	}
	if job.ID == "" {
		return nil, errors.New("dist: Job.ID is required")
	}
	if err := job.Spec.validate(); err != nil {
		return nil, err
	}
	plan, err := engine.PlanShards(src.Rows(), job.Shards)
	if err != nil {
		return nil, err
	}
	d := src.Dim()
	if job.W0 != nil && len(job.W0) != d {
		return nil, fmt.Errorf("dist: W0 has dim %d, want %d", len(job.W0), d)
	}
	if len(c.Workers()) == 0 {
		return nil, errors.New("dist: no live workers registered")
	}

	// The randomness is drawn before any network work, exactly as the
	// engine draws it: P = 1 delegates to one continuous sequential run
	// whose single permutation comes from r (the draw sgd.Run would
	// make), shipped explicitly; P > 1 draws the Int63 shard seeds in
	// shard order that seed the engine's per-worker generators.
	shards := make([]*shard, plan.Workers)
	for i := range shards {
		man, err := src.manifest(i, plan.Bounds[i][0], plan.Bounds[i][1])
		if err != nil {
			return nil, err
		}
		shards[i] = &shard{index: i, manifest: man}
		if plan.Workers == 1 {
			shards[i].perm = r.Perm(src.Rows())
		} else {
			shards[i].seed = r.Int63()
		}
	}
	defer c.release(ctx, job.ID, shards)

	// Install every shard on its initial worker (round-robin over the
	// live pool), in parallel.
	var wg sync.WaitGroup
	errs := make([]error, len(shards))
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.assign(ctx, job, shards[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var res *engine.Result
	if plan.Workers == 1 {
		res, err = c.trainSingle(ctx, job, shards[0], d)
	} else {
		res, err = c.trainSharded(ctx, job, shards, plan, d)
	}
	if err == nil && ctx.Err() != nil {
		// The last round's reply can beat the transport to a cancel; the
		// run still fails closed.
		return nil, ctx.Err()
	}
	return res, err
}

// trainSingle is the P = 1 path: like the engine, it delegates to one
// continuous sequential run. The worker runs all passes in one epoch
// call over the shipped permutation, consuming no randomness of its
// own, so the iterate-average arithmetic is the sequential one.
func (c *Coordinator) trainSingle(ctx context.Context, job Job, sh *shard, d int) (*engine.Result, error) {
	resp, err := c.epoch(ctx, job, sh, &epochRequest{
		Version: ProtocolVersion, Job: job.ID, Shard: 0,
		Epoch: 0, Passes: job.Passes, T0: 0, W: encodeW0(job.W0, d),
	})
	if err != nil {
		return nil, err
	}
	w, wavg, err := decodeModels(resp, d, job.Spec.Average)
	if err != nil {
		return nil, err
	}
	return &engine.Result{
		Result:      sgd.Result{W: w, WAvg: wavg, Updates: resp.Updates, Passes: resp.Passes},
		ShardModels: [][]float64{w}, Workers: 1,
	}, nil
}

// shard is the coordinator's bookkeeping for one shard: its manifest,
// its randomness (seed or delegated permutation), the worker currently
// holding it, and every worker an install of it was ever sent to.
type shard struct {
	index    int
	manifest *shardManifest
	seed     int64
	perm     []int
	worker   *workerRef
	sentTo   []*workerRef
}

// trainSharded is the P > 1 path: engine.Plan.Merge drives the epochs,
// and each shard's epoch is one request to the worker holding it.
func (c *Coordinator) trainSharded(ctx context.Context, job Job, shards []*shard, plan *engine.Plan, d int) (*engine.Result, error) {
	return plan.Merge(ctx, job.Passes, job.W0, d, job.Spec.Average, func(i, e int, w []float64, t0 int) (*sgd.Result, error) {
		resp, err := c.epoch(ctx, job, shards[i], &epochRequest{
			Version: ProtocolVersion, Job: job.ID, Shard: i,
			Epoch: e, Passes: 1, T0: t0, W: encodeVec(w),
		})
		if err != nil {
			return nil, err
		}
		model, avg, err := decodeModels(resp, d, job.Spec.Average)
		if err != nil {
			return nil, err
		}
		return &sgd.Result{W: model, WAvg: avg, Updates: resp.Updates}, nil
	}, nil)
}

// releaseTimeout bounds the end-of-job release calls, which run outside
// the run's own cancellation.
const releaseTimeout = 5 * time.Second

// release asks every worker an install of one of the job's shards was
// sent to — the current holder, one declared dead since, one whose
// acknowledgement was lost — to free the job. It is best effort: it
// runs after the result is fixed, survives the run's cancellation
// (context.WithoutCancel) under releaseTimeout, and never retries; a
// failed release changes nothing about the run, and the worker keeps
// the shards until its Close.
func (c *Coordinator) release(ctx context.Context, id string, shards []*shard) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), releaseTimeout)
	defer cancel()
	seen := make(map[*workerRef]bool)
	var wg sync.WaitGroup
	for _, sh := range shards {
		for _, wr := range sh.sentTo {
			if seen[wr] {
				continue
			}
			seen[wr] = true
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = c.post(ctx, wr.url+pathRelease, &releaseRequest{Version: ProtocolVersion, Job: id}, &releaseResponse{}) // best effort, as above
			}()
		}
	}
	wg.Wait()
}

// encodeW0 encodes the starting model (origin when nil).
func encodeW0(w0 []float64, d int) wireVec {
	if w0 == nil {
		w0 = make([]float64, d)
	}
	return encodeVec(w0)
}

// decodeModels unpacks and validates an epoch response's model
// vector(s).
func decodeModels(resp *epochResponse, d int, average bool) (w, wavg []float64, err error) {
	w, err = resp.W.Decode()
	if err != nil {
		return nil, nil, err
	}
	if len(w) != d {
		return nil, nil, fmt.Errorf("dist: shard %d returned a model of dim %d, want %d", resp.Shard, len(w), d)
	}
	if average {
		if resp.WAvg == nil {
			return nil, nil, fmt.Errorf("dist: shard %d returned no iterate average for an averaging run", resp.Shard)
		}
		wavg, err = resp.WAvg.Decode()
		if err != nil {
			return nil, nil, err
		}
		if len(wavg) != d {
			return nil, nil, fmt.Errorf("dist: shard %d returned an iterate average of dim %d, want %d", resp.Shard, len(wavg), d)
		}
	}
	return w, wavg, nil
}

// ---------------------------------------------------------------------
// Worker calls: assignment, epochs, retry and reassignment.
// ---------------------------------------------------------------------

// errTerminal wraps failures retrying cannot fix (the worker parsed the
// request and rejected it, or its response failed validation in a way a
// replay would repeat).
type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// assign installs sh on a live worker, moving to the next live worker
// on failure. On success sh.worker holds the assignment.
func (c *Coordinator) assign(ctx context.Context, job Job, sh *shard) error {
	req := &shardRequest{
		Version: ProtocolVersion, Job: job.ID, Manifest: *sh.manifest,
		Spec: job.Spec, Seed: sh.seed, Perm: sh.perm,
	}
	for {
		wr := c.pick(sh.index)
		if wr == nil {
			return fmt.Errorf("dist: job %s: no live workers left to hold shard %d — aborting fail-closed", job.ID, sh.index)
		}
		sh.sentTo = append(sh.sentTo, wr)
		var resp shardResponse
		err := c.callWorker(ctx, wr, pathShard, req, &resp)
		if err == nil {
			if resp.Job != job.ID || resp.Shard != sh.index {
				err = &terminalError{fmt.Errorf("dist: worker %s acknowledged (job=%q shard=%d), want (job=%q shard=%d)",
					wr.url, resp.Job, resp.Shard, job.ID, sh.index)}
			} else if err2 := checkVersion(resp.Version); err2 != nil {
				err = &terminalError{err2}
			}
		}
		if err == nil {
			sh.worker = wr
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var term *terminalError
		if errors.As(err, &term) {
			return term.err
		}
		c.markDead(wr)
	}
}

// epoch runs one epoch request against the shard's worker, retrying on
// the same worker, then reassigning the shard to the next live worker
// (whose deterministic rewind reproduces the lost state exactly). All
// response echoes are validated fail-closed: a stale or misrouted model
// never enters an average.
func (c *Coordinator) epoch(ctx context.Context, job Job, sh *shard, req *epochRequest) (*epochResponse, error) {
	for {
		if sh.worker == nil || c.isDead(sh.worker) {
			if err := c.assign(ctx, job, sh); err != nil {
				return nil, err
			}
		}
		var resp epochResponse
		err := c.callWorker(ctx, sh.worker, pathEpoch, req, &resp)
		if err == nil {
			if resp.Job != req.Job || resp.Shard != req.Shard || resp.Epoch != req.Epoch {
				// A wrong echo is the stale-model hazard — reject the
				// response; the retry path replays the request, which the
				// worker-side rewind makes idempotent.
				err = fmt.Errorf("dist: worker %s answered (job=%q shard=%d epoch=%d), want (job=%q shard=%d epoch=%d) — stale response rejected",
					sh.worker.url, resp.Job, resp.Shard, resp.Epoch, req.Job, req.Shard, req.Epoch)
			} else if err2 := checkVersion(resp.Version); err2 != nil {
				err = &terminalError{err2}
			}
		}
		if err == nil {
			return &resp, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var term *terminalError
		if errors.As(err, &term) {
			return nil, term.err
		}
		// This worker is out of retries: declare it dead and let the
		// loop reassign the shard (re-install + rewind) elsewhere.
		c.markDead(sh.worker)
		sh.worker = nil
	}
}

// pick returns a live worker for shard index (round-robin over the live
// pool), or nil when none remain.
func (c *Coordinator) pick(index int) *workerRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := make([]*workerRef, 0, len(c.workers))
	for _, w := range c.workers {
		if !w.dead {
			live = append(live, w)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return live[index%len(live)]
}

func (c *Coordinator) markDead(w *workerRef) {
	c.mu.Lock()
	w.dead = true
	c.mu.Unlock()
}

func (c *Coordinator) isDead(w *workerRef) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return w.dead
}

// callWorker POSTs req to the worker with per-call deadline, strict
// response decoding, and same-worker retries with doubling backoff.
// 4xx responses are terminal (the worker understood and refused);
// transport errors and 5xx responses are transient.
func (c *Coordinator) callWorker(ctx context.Context, wr *workerRef, path string, in, out any) error {
	var lastErr error
	backoff := c.cfg.Backoff
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
			backoff *= 2
		}
		lastErr = c.post(ctx, wr.url+path, in, out)
		if lastErr == nil {
			return nil
		}
		var term *terminalError
		if errors.As(lastErr, &term) || ctx.Err() != nil {
			return lastErr
		}
	}
	return lastErr
}

func (c *Coordinator) post(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return &terminalError{fmt.Errorf("dist: encoding request: %w", err)}
	}
	if c.cfg.EpochTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.EpochTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return &terminalError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Coordinator) get(ctx context.Context, url string, out any) error {
	if c.cfg.EpochTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.EpochTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return &terminalError{err}
	}
	return c.do(req, out)
}

func (c *Coordinator) do(req *http.Request, out any) error {
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&e)
		err := fmt.Errorf("dist: %s %s: http %d: %s", req.Method, req.URL, resp.StatusCode, e.Error)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return &terminalError{err}
		}
		return err
	}
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("dist: decoding response from %s: %w", req.URL, err)
	}
	return nil
}
