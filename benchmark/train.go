package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"boltondp/internal/account"
	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dist"
	"boltondp/internal/engine"
	"boltondp/internal/eval"
	"boltondp/internal/serve"
	"boltondp/internal/sgd"
	"boltondp/internal/store"
)

// trainer is the part wide_warm, dense_mem, dist_loopback and
// serve_closed share: jobs that train on rows already in reach (a warm
// store or memory), publish and read back.
type trainer struct {
	model   string // registry name of the private model
	shape   trainShape
	workers int // shard count the sensitivity is checked at (1 = sequential)
	dir     string
	train   sgd.Samples
	held    sgd.Samples

	// private and noiseless run one training under span parent.
	private   func(r *run, parent, j int) (*core.Result, *account.Accountant, error)
	noiseless func(r *run, parent, j int) ([]float64, error)

	reg  *serve.Registry // the last private job's registry, read back
	last *serve.Model
}

// localTraining trains in this process, sequentially: core.TrainCtx and
// its baselines.Noiseless twin over the same rows.
func (t *trainer) localTraining() {
	t.workers = 1
	t.private = func(r *run, parent, j int) (*core.Result, *account.Accountant, error) {
		sp := r.tr.begin("core.train", parent, j)
		defer r.tr.end(sp)
		return trainPrivate(context.Background(), t.train, t.shape, r.jobSeed(j))
	}
	t.noiseless = func(r *run, parent, j int) ([]float64, error) {
		sp := r.tr.begin("baselines.noiseless", parent, j)
		defer r.tr.end(sp)
		return trainNoiseless(context.Background(), t.train, t.shape, r.jobSeed(j), engine.Sequential, 1)
	}
}

// privateJob is one private job: train, stamp, publish, read back. It
// returns the job's wall seconds and the model as read back.
func (t *trainer) privateJob(r *run, j int) (float64, *serve.Model, error) {
	regDir := filepath.Join(t.dir, "reg-private")
	if err := os.RemoveAll(regDir); err != nil { // a fresh registry per job
		return 0, nil, err
	}
	var res *core.Result
	secs, err := stopwatch(func() error {
		root := r.tr.begin("job", -1, j)
		defer r.tr.end(root)
		var acct *account.Accountant
		var err error
		if res, acct, err = t.private(r, root, j); err != nil {
			return err
		}
		t.reg, t.last, err = r.publish(root, j, regDir, t.model, res.W, acct, nil)
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	r.checkLedger(t.last, t.shape.grant)
	r.checkSensitivity(res.Sensitivity, t.train.Len(), t.workers)
	r.check(sameBits(t.last.Classifier.(*eval.Linear).W, res.W), "job %d: model read back differs from the one trained", j)
	return secs, t.last, nil
}

func (t *trainer) noiselessJob(r *run, j int) (float64, error) {
	regDir := filepath.Join(t.dir, "reg-noiseless")
	if err := os.RemoveAll(regDir); err != nil {
		return 0, err
	}
	return stopwatch(func() error {
		w, err := t.noiseless(r, -1, j)
		if err != nil {
			return err
		}
		_, _, err = r.publish(-1, j, regDir, t.model+"-noiseless", w, nil, nil)
		return err
	})
}

func (t *trainer) pair(r *run, j int, record bool) error {
	var privS, noiseS float64
	var m *serve.Model
	var err error
	runPrivate := func() { privS, m, err = t.privateJob(r, j) }
	runNoiseless := func() {
		if err == nil {
			noiseS, err = t.noiselessJob(r, j)
		}
	}
	if j%2 == 0 {
		runPrivate()
		runNoiseless()
	} else {
		runNoiseless()
		if err == nil {
			runPrivate()
		}
	}
	if err != nil {
		return err
	}
	if record {
		r.recordPair(privS, noiseS, eval.Accuracy(t.held, m.Classifier))
	}
	return nil
}

func (t *trainer) target() (*serveTarget, error) {
	return newModelTarget(t.reg, t.held, t.last)
}

// release drops the rows and models of the last set-up, so that the
// next one does not hold two copies.
func (t *trainer) release() { t.train, t.held, t.reg, t.last = nil, nil, nil, nil }

// tracedJobs runs three private jobs untraced and traced, checks the
// traced one reproduces the untraced weights bit for bit, and records
// trace.overhead plus the span-derived layer times of the traced jobs.
func (t *trainer) tracedJobs(r *run) error {
	return r.traceOverhead(func(j int) (float64, []float64, error) {
		secs, m, err := t.privateJob(r, j)
		if err != nil {
			return 0, nil, err
		}
		return secs, m.Classifier.(*eval.Linear).W, nil
	})
}

// maxTraceReps caps the traced jobs of a run; job indices from it up
// are free for probes.
const maxTraceReps = 8

// traceOverhead runs job j untraced and traced for j = 0, 1, …: an even
// count of at least 2 and at most maxTraceReps, until half of -seconds
// is spent. The order alternates with j so that whatever the second run
// of a pair pays (a warmer cache, a grown heap) falls on both sides. The
// traced run must reproduce the untraced weights bit for bit.
func (r *run) traceOverhead(job func(j int) (float64, []float64, error)) error {
	tr := r.tr
	defer func() { r.tr = tr }()
	var secs [2][]float64 // untraced, traced
	deadline := time.Now().Add(time.Duration(r.cfg.seconds / 2 * float64(time.Second)))
	for j := 0; j < maxTraceReps && (j < 2 || j%2 == 1 || time.Now().Before(deadline)); j++ {
		var weights [2][]float64
		for _, side := range [2]int{j % 2, 1 - j%2} {
			r.tr = nil
			if side == 1 {
				r.tr = tr
			}
			s, w, err := job(j)
			if err != nil {
				return err
			}
			secs[side], weights[side] = append(secs[side], s), w
		}
		r.check(sameBits(weights[0], weights[1]), "traced job %d does not reproduce the untraced weights", j)
	}
	r.tracedJobs = len(secs[1])
	r.add("trace.overhead", median(secs[1])/median(secs[0]))
	return nil
}

// spanMetrics maps a span name to the per-layer metric the span's whole
// time feeds, with the factor from seconds to the metric's unit.
var spanMetrics = map[string]struct {
	name  string
	scale float64
}{
	"store.open":          {"store.open_ms", 1e3},
	"core.train":          {"core.train_s", 1},
	"baselines.noiseless": {"baselines.noiseless_s", 1},
	"serve.publish":       {"serve.publish_ms", 1e3},
	"serve.registry_open": {"serve.registry_open_ms", 1e3},
	"dist.train":          {"dist.train_s", 1},
	"dist.register":       {"dist.register_ms", 1e3},
	"data.load_sparse":    {"data.load_sparse_s", 1},
	"online.ingest":       {"online.ingest_s", 1},
	"store.compact":       {"store.compact_s", 1},
	"store.verify":        {"store.verify_s", 1},
}

// spanLayerMetrics turns the traced jobs' spans into per-layer samples:
// one sample per job, the span's time summed over that job.
func (r *run) spanLayerMetrics() {
	for name, metric := range spanMetrics {
		for j := 0; j < r.tracedJobs; j++ {
			if s := r.tr.seconds(name, j); s > 0 {
				r.add(metric.name, s*metric.scale)
			}
		}
	}
}

// storeTrain is wide_warm (sequential core.TrainCtx from a warm
// single-file store) and, with distributed set, dist_loopback (the same
// store through a coordinator and two loopback workers).
type storeTrain struct {
	trainer
	distributed bool

	rd      *store.Reader
	coord   *dist.Coordinator
	servers []*httptest.Server
	pool    []*dist.Worker
	wire    *countingTransport
}

const (
	wideRowsFull = 200000
	heldRowsFull = 8192
	distShards   = 2
)

func (w *storeTrain) setup(r *run, dir string) error {
	w.dir, w.model, w.shape = dir, "wide", trainShape{passes: 6, batch: 10, grant: wideGrant}
	path := filepath.Join(dir, "wide.bolt")
	if err := writeWideStore(path, r.cfg.seed, r.size(wideRowsFull)); err != nil {
		return err
	}
	rd, err := store.Open(path)
	if err != nil {
		return err
	}
	w.rd, w.train = rd, rd
	// Warm by contract: one full verifying pass faults every page in.
	if err := rd.Verify(); err != nil {
		return err
	}
	w.held = wideRows(r.cfg.seed, r.cfg.seed+2, r.size(heldRowsFull))
	if !w.distributed {
		w.localTraining()
		return nil
	}

	w.workers = distShards
	src := dist.NewStoreSource(rd)
	w.private = func(r *run, parent, j int) (*core.Result, *account.Accountant, error) {
		sp := r.tr.begin("dist.train", parent, j)
		defer r.tr.end(sp)
		acct, err := account.New(w.shape.grant)
		if err != nil {
			return nil, nil, err
		}
		opts := append(w.shape.options(r.jobSeed(j)), core.WithAccountant(acct), core.WithStrategy(engine.Sharded, distShards))
		res, err := core.TrainDistributed(context.Background(), w.coord, src, logistic, opts...)
		return res, acct, err
	}
	// The twin crosses the same wire with the same job, minus the
	// bolt-on: the coordinator's own Train, nothing reserved or added.
	w.noiseless = func(r *run, parent, j int) ([]float64, error) {
		lossSpec, err := dist.LossSpecFor(logistic)
		if err != nil {
			return nil, err
		}
		p := logistic.Params()
		res, err := w.coord.Train(context.Background(), src, dist.Job{
			ID: fmt.Sprintf("noiseless-%d-%d", j, w.wire.calls.Load()),
			Spec: dist.TrainSpec{
				Loss:  lossSpec,
				Step:  dist.StepSpec{Kind: dist.StepStronglyConvex, Beta: p.Beta, Gamma: p.Gamma},
				Batch: w.shape.batch, Radius: 1 / lambda,
			},
			Shards: distShards, Passes: w.shape.passes,
		}, rand.New(rand.NewSource(r.jobSeed(j))))
		if err != nil {
			return nil, err
		}
		return res.W, nil
	}
	return nil
}

// startPool brings up a coordinator and its loopback workers. A
// dist.Worker keeps every job's shard state (an open store mapping per
// shard) until Close, so its resident set grows with the jobs it has
// served; the timed run starts a fresh pool per job pair, outside the
// job's clock, so that peak_rss_mb reads a job and not a job count.
func (w *storeTrain) startPool(r *run, j int) error {
	w.wire = &countingTransport{next: http.DefaultTransport}
	w.coord = dist.NewCoordinator(dist.CoordinatorConfig{Client: &http.Client{Transport: w.wire}})
	for i := 0; i < distShards; i++ {
		wk := dist.NewWorker()
		ts := httptest.NewServer(wk.Handler())
		w.pool, w.servers = append(w.pool, wk), append(w.servers, ts)
		sp := r.tr.begin("dist.register", -1, j)
		if err := w.coord.Register(context.Background(), ts.URL); err != nil {
			return err
		}
		r.tr.end(sp)
	}
	return nil
}

func (w *storeTrain) stopPool() {
	for _, ts := range w.servers {
		ts.Close()
	}
	for _, wk := range w.pool {
		wk.Close() //nolint:errcheck // benchmark teardown
	}
	w.servers, w.pool = nil, nil
}

func (w *storeTrain) pair(r *run, j int, record bool) error {
	if !w.distributed {
		return w.trainer.pair(r, j, record)
	}
	if err := w.startPool(r, j); err != nil {
		return err
	}
	defer w.stopPool()
	return w.trainer.pair(r, j, record)
}

func (w *storeTrain) teardown() {
	w.stopPool()
	if w.rd != nil {
		w.rd.Close() //nolint:errcheck // read-only
		w.rd = nil
	}
	w.release()
}

// countingTransport counts the coordinator's HTTP calls and the bytes
// they carry in both directions.
type countingTransport struct {
	next  http.RoundTripper
	calls atomic.Int64
	bytes atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.calls.Add(1)
	if req.ContentLength > 0 {
		c.bytes.Add(req.ContentLength)
	}
	resp, err := c.next.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	}
	return resp, err
}

// countingBody counts reply bytes as they are read: worker replies are
// chunked, so their length is not in the header.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// denseMem trains on in-memory dense rows, the paper's own data shape.
type denseMem struct{ trainer }

const covtypeScale = 0.3

func (w *denseMem) setup(r *run, dir string) error {
	scale := covtypeScale
	if r.cfg.smoke {
		scale /= 50
	}
	train, test := data.CovtypeSim(rand.New(rand.NewSource(r.cfg.seed)), scale)
	w.dir, w.model, w.shape = dir, "covtype", trainShape{passes: 10, batch: 50, grant: pureGrant}
	w.train, w.held = train, test
	w.localTraining()
	return nil
}

func (w *denseMem) teardown() { w.release() }
