package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"boltondp/internal/eval"
	"boltondp/internal/serve"
)

// serveClosed is the serving workload: most of the run is one client
// in a closed loop against one server over a directory registry, while
// a ticker republishes the alternate model and swaps it live every
// 500 ms — the registry's write path under read load. Its jobs are the
// small in-memory sparse trainings that produce the two KDD models.
type serveClosed struct {
	trainer
	models [2][]float64 // weights of the last two private jobs
}

const (
	serveTrainRowsFull = 50000
	swapEvery          = 500 * time.Millisecond
)

func (w *serveClosed) setup(r *run, dir string) error {
	w.dir, w.model, w.shape = dir, "kdd", trainShape{passes: 10, batch: 50, grant: pureGrant}
	w.train = kddRows(r.cfg.seed, r.size(serveTrainRowsFull), 0.5)
	w.held = kddRows(r.cfg.seed+2, r.size(heldRowsFull), 0.5)
	w.localTraining()
	return nil
}

func (w *serveClosed) teardown() { w.release() }

func (w *serveClosed) pair(r *run, j int, record bool) error {
	if err := w.trainer.pair(r, j, record); err != nil {
		return err
	}
	w.models[0], w.models[1] = w.models[1], w.last.Classifier.(*eval.Linear).W
	return nil
}

var swapNames = [2]string{"kdd-a", "kdd-b"}

func (w *serveClosed) target() (*serveTarget, error) {
	reg, err := serve.NewRegistry(filepath.Join(w.dir, "reg-live"))
	if err != nil {
		return nil, err
	}
	tgt, err := newServeTarget(reg, w.held)
	if err != nil {
		return nil, err
	}
	// The two models and their metadata as they are now: later jobs
	// replace w.models, and the replies are checked against these.
	models, meta := w.models, w.last.Meta
	for i, name := range swapNames {
		m, err := reg.Publish(name, &eval.Linear{W: models[i]}, meta)
		if err != nil {
			tgt.close()
			return nil, err
		}
		tgt.expectModel(m)
	}
	next := 1 // kept between slices, so the swaps go on alternating
	tgt.beside = func(ctx context.Context) (swaps int, err error) {
		tick := time.NewTicker(swapEvery)
		defer tick.Stop()
		for ; ; next = 1 - next {
			select {
			case <-ctx.Done():
				return swaps, nil
			case <-tick.C:
			}
			if _, err := reg.Publish(swapNames[next], &eval.Linear{W: models[next]}, meta); err != nil {
				return swaps, err
			}
			if _, err := reg.SetLive(swapNames[next]); err != nil {
				return swaps, err
			}
			swaps++
		}
	}
	return tgt, nil
}

// traced: the jobs under spans, a short closed-loop run for the HTTP
// half, then every serving layer timed alone under the same model.
func (w *serveClosed) traced(r *run) error {
	if err := w.tracedJobs(r); err != nil {
		return err
	}
	// Two different models to swap between (a traced job and its
	// untraced twin are the same model).
	for j := maxTraceReps; j < maxTraceReps+2; j++ {
		if err := w.pair(r, j, false); err != nil {
			return err
		}
	}
	if err := w.noiselessSpans(r); err != nil {
		return err
	}
	if err := r.kernelProbes(w.train, w.shape.batch); err != nil {
		return err
	}

	ctx := context.Background()
	tgt, err := w.target()
	if err != nil {
		return err
	}
	defer tgt.close()
	for round := 0; round < 3; round++ {
		if err := tgt.slices(ctx, r, r.windowScale()); err != nil {
			return err
		}
	}
	tgt.checkTier(r)
	r.add("serve.swaps", float64(tgt.besideOps))
	r.add("serve.shed", float64(tgt.shed))

	live := tgt.reg.Live()
	rows := make([]serve.Row, len(tgt.rows))
	for i, row := range tgt.rows {
		rows[i] = serve.Row{Idx: row.Idx, Val: row.Val}
	}
	var scoreErr error
	scoreNS := nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			y, err := live.Score(&rows[i%len(rows)])
			if err != nil {
				scoreErr = err
			}
			sink += y
		}
	})
	if scoreErr != nil {
		return scoreErr
	}
	r.add("serve.score_row_ns", scoreNS)
	r.add("serve.http_overhead_us", median(r.samples["predict_p50_us"])-scoreNS/1e3)

	var indptr, idx []int
	var val []float64
	packNS := nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			indptr, idx, val, scoreErr = serve.PackCSR(rows)
		}
	})
	if scoreErr != nil {
		return scoreErr
	}
	r.add("serve.pack_csr_rows_per_s", float64(len(rows))/(packNS/1e9))
	csr := func(score func(indptr, idx []int, val []float64, workers int) ([]float64, error)) float64 {
		return nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				labels, err := score(indptr, idx, val, 1)
				if err != nil {
					scoreErr = err
					return
				}
				sink += labels[0]
			}
		})
	}
	f32NS, f64NS := csr(live.ScoreBatchCSRF32), csr(live.ScoreBatchCSR)
	if scoreErr != nil {
		return scoreErr
	}
	r.add("serve.score_csr_f32_rows_per_s", float64(len(rows))/(f32NS/1e9))
	r.add("serve.score_csr_f64_rows_per_s", float64(len(rows))/(f64NS/1e9))
	// Of one HTTP batch's time, the share that is not scoring: decode,
	// encode and the wire.
	overHTTP := 1 / median(r.samples["batch_rows_per_s"]) // seconds per row
	direct := f32NS / 1e9 / float64(len(rows))
	r.add("serve.batch_decode_share", 1-direct/overHTTP)

	var scrape []float64
	for i := 0; i < 20; i++ {
		secs, err := stopwatch(func() error {
			code, _, err := tgt.get(ctx, "/metrics")
			if err == nil && code != 200 {
				err = fmt.Errorf("/metrics: status %d", code)
			}
			return err
		})
		if err != nil {
			return err
		}
		scrape = append(scrape, secs*1e3)
	}
	r.add("serve.metrics_scrape_ms", median(scrape))
	return w.legacyForms(ctx, r, tgt)
}

// legacyForms probes the two wire forms ROADMAP item 5 may delete, over
// HTTP only: a server that refuses one reads 0 (absent), not failed.
func (w *serveClosed) legacyForms(ctx context.Context, r *run, tgt *serveTarget) error {
	type sparseRow struct {
		Idx []int     `json:"idx"`
		Val []float64 `json:"val"`
	}
	per := min(batchRows, len(tgt.rows))
	form := struct {
		Rows []sparseRow `json:"rows"`
	}{}
	for _, row := range tgt.rows[:per] {
		form.Rows = append(form.Rows, sparseRow{row.Idx, row.Val})
	}
	body, err := json.Marshal(form)
	if err != nil {
		return err
	}
	if rate, ok := tgt.probeForm(ctx, "/predict/batch", body); ok {
		r.add("serve.batch_rowsform_rows_per_s", rate*float64(per))
	}

	// A dense 10-class one-vs-all model, MNIST-shaped.
	const classes, dim = 10, 784
	g := rand.New(rand.NewSource(r.cfg.seed))
	ova := &eval.OneVsAll{W: make([][]float64, classes)}
	for c := range ova.W {
		ova.W[c] = make([]float64, dim)
		for i := range ova.W[c] {
			ova.W[c][i] = g.NormFloat64()
		}
	}
	if _, err := tgt.reg.Publish("ova", ova, nil); err != nil {
		return err
	}
	x := make([]float64, dim)
	for i := range x {
		x[i] = g.Float64()
	}
	body, err = json.Marshal(struct {
		Model string    `json:"model"`
		X     []float64 `json:"x"`
	}{"ova", x})
	if err != nil {
		return err
	}
	if rate, ok := tgt.probeForm(ctx, "/predict", body); ok {
		r.add("serve.dense_ova_rps", rate)
	}
	return nil
}
