package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"boltondp/internal/account"
	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/eval"
	"boltondp/internal/online"
	"boltondp/internal/serve"
	"boltondp/internal/store"
	"boltondp/internal/vec"
)

// onlineWindows runs the closed loop as lifecycles: a base file becomes
// the first segment, a model is trained and published live with its
// drift snapshot, then three label-drifted files are each loaded,
// ingested (append behind the gate → drift fires → one continual
// window is spent on the union → canary) and promoted; the directory
// is then compacted and verified.
type onlineWindows struct {
	dir    string
	base   string
	drift  [onlineSegments]string
	held   *data.SparseDataset
	shape  trainShape
	budget dp.Budget

	reg  *serve.Registry
	last *serve.Model
}

const (
	onlineSegments     = 3
	onlineBaseRowsFull = 30000
	onlineSegRowsFull  = 15000
)

// driftPriors are the label rates of the ingested files against the
// base file's 0.5: each lands more than the detector's 0.2 away from
// the rate of the union it meets.
var driftPriors = [onlineSegments]float64{0.15, 0.85, 0.15}

func (w *onlineWindows) setup(r *run, dir string) error {
	w.dir, w.shape = dir, trainShape{passes: 5, batch: 50, grant: pureGrant}
	w.budget = dp.Budget{Epsilon: 1, Delta: 1e-6}
	w.base = filepath.Join(dir, "base.libsvm")
	if _, err := writeKDDLibSVM(w.base, r.cfg.seed, r.size(onlineBaseRowsFull), 0.5); err != nil {
		return err
	}
	for i := range w.drift {
		w.drift[i] = filepath.Join(dir, fmt.Sprintf("drift%d.libsvm", i+1))
		if _, err := writeKDDLibSVM(w.drift[i], r.cfg.seed+10+int64(i), r.size(onlineSegRowsFull), driftPriors[i]); err != nil {
			return err
		}
	}
	w.held = kddRows(r.cfg.seed+2, r.size(heldRowsFull), 0.5)
	return nil
}

func (w *onlineWindows) teardown() { w.held, w.reg, w.last = nil, nil, nil }

// twinPairs is how many private÷noiseless pairs follow a lifecycle.
const twinPairs = 4

// lifecycle is one job. It returns the lifecycle's seconds, the final
// live model read back from the registry and, measured after the job's
// clock has stopped, private÷noiseless over the compacted union: the
// same rows, seed and strategy trained by core.TrainCtx and by
// baselines.Noiseless, order alternating.
func (w *onlineWindows) lifecycle(r *run, j int, twins bool) (job float64, m *serve.Model, ratios []float64, err error) {
	segDir, regDir := filepath.Join(w.dir, "segments"), filepath.Join(w.dir, "registry")
	for _, p := range []string{segDir, regDir} {
		if err := os.RemoveAll(p); err != nil {
			return 0, nil, nil, err
		}
	}
	ctx := context.Background()
	start := time.Now()
	root := r.tr.begin("job", -1, j)

	sp := r.tr.begin("store.append_scan", root, j)
	_, err = store.AppendSegmentScan(segDir, 0, store.Options{RemapLabels01: true},
		func(emit func(x *vec.Sparse, y float64) error) error {
			return data.ScanLIBSVM(w.base, func(row *vec.Sparse, y float64) error {
				if nrm := row.Norm(); nrm > 1 {
					row.Scale(1 / nrm)
				}
				return emit(row, y)
			})
		})
	if err != nil {
		return 0, nil, nil, err
	}
	r.tr.end(sp)
	sp = r.tr.begin("store.open", root, j)
	dir, err := store.OpenDir(segDir)
	if err != nil {
		return 0, nil, nil, err
	}
	defer dir.Close()
	r.tr.end(sp)

	sp = r.tr.begin("core.train", root, j)
	res, acct, err := trainPrivate(ctx, dir, w.shape, r.jobSeed(j))
	if err != nil {
		return 0, nil, nil, err
	}
	r.tr.end(sp)
	r.checkSensitivity(res.Sensitivity, dir.Len(), 1)

	meta := map[string]string{}
	sp = r.tr.begin("online.stats", root, j)
	online.StampMeta(meta, online.Stats(dir, res.W), 0)
	r.tr.end(sp)
	reg, _, err := r.publish(root, j, regDir, "kdd", res.W, acct, meta)
	if err != nil {
		return 0, nil, nil, err
	}

	trainer, err := core.NewContinualRDP(w.budget, onlineSegments, logistic,
		w.shape.options(r.jobSeed(j)+1000)...)
	if err != nil {
		return 0, nil, nil, err
	}
	runner := &online.Runner{Dir: dir, Registry: reg, Trainer: trainer, Logf: func(string, ...any) {}}
	for i, file := range w.drift {
		sp = r.tr.begin("data.load_sparse", root, j)
		src, err := data.LoadLIBSVMSparse(file, dir.Dim())
		if err != nil {
			return 0, nil, nil, err
		}
		src.Normalize()
		r.tr.end(sp)
		sp = r.tr.begin("online.ingest", root, j)
		rep, err := runner.Ingest(ctx, src, store.Options{})
		if err != nil {
			return 0, nil, nil, err
		}
		r.tr.end(sp)
		r.check(rep.Fired, "job %d: drifted segment %d did not fire (Δlabel=%.3f)", j, i+1, rep.LabelShift)
		sp = r.tr.begin("serve.promote", root, j)
		if _, err := runner.Promote(); err != nil {
			return 0, nil, nil, err
		}
		r.tr.end(sp)
	}

	sp = r.tr.begin("store.compact", root, j)
	if _, _, err := store.Compact(segDir, 0); err != nil {
		return 0, nil, nil, err
	}
	if err := dir.Reload(); err != nil {
		return 0, nil, nil, err
	}
	r.tr.end(sp)
	sp = r.tr.begin("store.verify", root, j)
	verifyErr := dir.Verify()
	r.tr.end(sp)

	sp = r.tr.begin("serve.registry_open", root, j)
	back, err := serve.NewRegistry(regDir)
	if err != nil {
		return 0, nil, nil, err
	}
	r.tr.end(sp)
	if m = back.Live(); m == nil {
		return 0, nil, nil, fmt.Errorf("no live model after %d promotions", onlineSegments)
	}
	r.tr.end(root)
	job = time.Since(start).Seconds()

	r.check(verifyErr == nil && dir.Segments() == 1, "job %d: after Compact: %d segments, Verify: %v", j, dir.Segments(), verifyErr)
	l, ok, lerr := account.LedgerFromMeta(m.Meta)
	r.check(lerr == nil && ok && core.ContinualWindowsSpent(l) == onlineSegments && l.Total() == w.budget,
		"job %d: live ledger does not record exactly %d window spends of %v (err=%v)", j, onlineSegments, w.budget, lerr)
	_, err = trainer.Retrain(ctx, dir)
	r.check(errors.Is(err, account.ErrOverdraw), "job %d: a 4th Retrain did not fail closed: %v", j, err)
	w.reg, w.last = back, m
	if twins {
		// Compact left a new file behind a new mapping: touch every row
		// once, or the first training of the first pair pays the faults;
		// and collect the lifecycle's garbage now, not beside one side.
		sink += online.Stats(dir, m.Classifier.(*eval.Linear).W).MeanMargin
		runtime.GC()
	}
	for k := 0; twins && k < twinPairs; k++ {
		var secs [2]float64 // private, noiseless
		for _, side := range [2]int{k % 2, 1 - k%2} {
			secs[side], err = stopwatch(func() error {
				if side == 0 {
					_, _, err := trainPrivate(ctx, dir, w.shape, r.jobSeed(j))
					return err
				}
				_, err := trainNoiseless(ctx, dir, w.shape, r.jobSeed(j), engine.Sequential, 1)
				return err
			})
			if err != nil {
				return 0, nil, nil, err
			}
		}
		ratios = append(ratios, secs[0]/secs[1])
	}
	return job, m, ratios, nil
}

func (w *onlineWindows) pair(r *run, j int, record bool) error {
	job, m, ratios, err := w.lifecycle(r, j, true)
	if err != nil {
		return err
	}
	if record {
		r.add("job_s", job)
		r.add("test_accuracy", eval.Accuracy(w.held, m.Classifier))
		for _, ratio := range ratios {
			r.add("private_over_noiseless", ratio)
		}
	}
	return nil
}

func (w *onlineWindows) target() (*serveTarget, error) {
	return newModelTarget(w.reg, w.held, w.last)
}

func (w *onlineWindows) traced(r *run) error {
	err := r.traceOverhead(func(j int) (float64, []float64, error) {
		job, m, _, err := w.lifecycle(r, j, false)
		if err != nil {
			return 0, nil, err
		}
		return job, m.Classifier.(*eval.Linear).W, nil
	})
	if err != nil {
		return err
	}
	return w.probes(r)
}
