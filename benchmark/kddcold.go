package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"boltondp/internal/cli"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/eval"
	"boltondp/internal/serve"
	"boltondp/internal/store"
	"boltondp/internal/vec"
)

// kddCold is the real user path, cold: every job is
// `dpsgd -data F -cache DIR -publish REG -passes 10 -batch 50 -eps 1`
// through cli.ParseDPSGD and cli.RunDPSGDCtx with a fresh DIR and REG,
// over a KDD-shaped LIBSVM text file (written in set-up, so it sits in
// the page cache: the job is cold in the store, not in the disk).
type kddCold struct {
	dir   string
	file  string
	bytes int64
	rows  int
	held  *data.SparseDataset
	shape trainShape

	reg  *serve.Registry
	last *serve.Model
}

const kddFileRowsFull = 136000

func (w *kddCold) setup(r *run, dir string) error {
	w.dir, w.file, w.rows = dir, filepath.Join(dir, "kdd.libsvm"), r.size(kddFileRowsFull)
	w.shape = trainShape{passes: 10, batch: 50, grant: pureGrant}
	var err error
	if w.bytes, err = writeKDDLibSVM(w.file, r.cfg.seed, w.rows, 0.5); err != nil {
		return err
	}
	w.held = kddRows(r.cfg.seed+2, r.size(heldRowsFull), 0.5)
	return nil
}

func (w *kddCold) teardown() { w.held, w.reg, w.last = nil, nil, nil }

// trainRows is dpsgd's positional 80/20 split of the store.
func (w *kddCold) trainRows() int { return int(float64(w.rows) * 0.8) }

// cliJob runs one dpsgd job and reads the model back from its registry.
func (w *kddCold) cliJob(r *run, j int, algo string) (float64, *serve.Model, error) {
	cache, regDir := filepath.Join(w.dir, "cache-"+algo), filepath.Join(w.dir, "reg-"+algo)
	for _, p := range []string{cache, regDir} {
		if err := os.RemoveAll(p); err != nil {
			return 0, nil, err
		}
	}
	var out bytes.Buffer
	var m *serve.Model
	secs, err := stopwatch(func() error {
		cfg, err := cli.ParseDPSGD([]string{
			"-data", w.file, "-cache", cache, "-publish", regDir, "-algo", algo,
			"-passes", strconv.Itoa(w.shape.passes), "-batch", strconv.Itoa(w.shape.batch),
			"-eps", "1", "-seed", strconv.FormatInt(r.jobSeed(j), 10),
		}, io.Discard)
		if err != nil {
			return err
		}
		if err := cli.RunDPSGDCtx(context.Background(), cfg, &out); err != nil {
			return err
		}
		reg, err := serve.NewRegistry(regDir)
		if err != nil {
			return err
		}
		if m = reg.Live(); m == nil {
			return fmt.Errorf("dpsgd published no live model into %s", regDir)
		}
		if algo == "ours" {
			w.reg, w.last = reg, m
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	if algo == "ours" {
		r.checkLedger(m, w.shape.grant)
		p := logistic.Params()
		want := fmt.Sprintf("Δ₂=%.6g ", dp.SensitivityStronglyConvex(p.L, p.Gamma, w.trainRows()))
		r.check(strings.Contains(out.String(), want), "job %d: dpsgd did not report the closed-form sensitivity %s", j, want)
	}
	return secs, m, nil
}

func (w *kddCold) pair(r *run, j int, record bool) error {
	order := []string{"ours", "noiseless"}
	if j%2 == 1 {
		order[0], order[1] = order[1], order[0]
	}
	secs := map[string]float64{}
	for _, algo := range order {
		s, _, err := w.cliJob(r, j, algo)
		if err != nil {
			return err
		}
		secs[algo] = s
	}
	if record {
		r.recordPair(secs["ours"], secs["noiseless"], eval.Accuracy(w.held, w.last.Classifier))
	}
	return nil
}

func (w *kddCold) target() (*serveTarget, error) {
	return newModelTarget(w.reg, w.held, w.last)
}

// scan streams the file as dpsgd does: ScanLIBSVM, each row normalised
// into the unit ball, then handed to emit.
func (w *kddCold) scan(emit func(x *vec.Sparse, y float64) error) error {
	return data.ScanLIBSVM(w.file, func(row *vec.Sparse, y float64) error {
		if nrm := row.Norm(); nrm > 1 {
			row.Scale(1 / nrm)
		}
		return emit(row, y)
	})
}

// reenact is job j stage by stage, each stage a call into one layer's
// public API under a span: what dpsgd does, unrolled. Its weights must
// equal the CLI job's bit for bit.
func (w *kddCold) reenact(r *run, j int) (float64, *serve.Model, error) {
	cache, regDir := filepath.Join(w.dir, "cache-traced"), filepath.Join(w.dir, "reg-traced")
	for _, p := range []string{cache, regDir} {
		if err := os.RemoveAll(p); err != nil {
			return 0, nil, err
		}
	}
	var m *serve.Model
	secs, err := stopwatch(func() error {
		root := r.tr.begin("job", -1, j)
		defer r.tr.end(root)

		sp := r.tr.begin("store.convert", root, j)
		_, err := store.AppendSegmentScan(cache, 0, store.Options{RemapLabels01: true},
			func(emit func(x *vec.Sparse, y float64) error) error { return w.scan(emit) })
		if err != nil {
			return err
		}
		r.tr.end(sp)

		sp = r.tr.begin("store.open", root, j)
		d, err := store.OpenDir(cache)
		if err != nil {
			return err
		}
		defer d.Close()
		r.tr.end(sp)
		cut := w.trainRows()
		train, test := d.Shard(0, cut), d.Shard(cut, d.Len())

		sp = r.tr.begin("core.train", root, j)
		res, acct, err := trainPrivate(context.Background(), train, w.shape, r.jobSeed(j))
		if err != nil {
			return err
		}
		r.tr.end(sp)

		sp = r.tr.begin("eval.accuracy", root, j)
		model := &eval.Linear{W: res.W}
		eval.Accuracy(train, model)
		eval.Accuracy(test, model)
		r.tr.end(sp)

		_, m, err = r.publish(root, j, regDir, "kdd", res.W, acct, nil)
		return err
	})
	return secs, m, err
}

func (w *kddCold) traced(r *run) error {
	tr := r.tr
	err := r.traceOverhead(func(j int) (float64, []float64, error) {
		var secs float64
		var m *serve.Model
		var err error
		if r.tr == nil {
			secs, m, err = w.cliJob(r, j, "ours")
		} else {
			secs, m, err = w.reenact(r, j)
		}
		if err != nil {
			return 0, nil, err
		}
		return secs, m.Classifier.(*eval.Linear).W, nil
	})
	if err != nil {
		return err
	}
	// The stages account for the job when the CLI's wall time is the
	// sum of theirs: the inverse view of trace.overhead.
	r.add("cli.run_over_stages", 1/median(r.samples["trace.overhead"]))
	for j := 0; j < r.tracedJobs; j++ {
		r.add("eval.accuracy_rows_per_s", float64(w.rows)/tr.seconds("eval.accuracy", j))
	}
	// Parse runs inside the store's conversion, row by row. Splitting
	// the two takes a clock around every emit, which would cost a traced
	// job 2%; so the split is made on conversions of its own.
	for i := 0; i < slowReps; i++ {
		cache := filepath.Join(w.dir, "cache-split")
		if err := os.RemoveAll(cache); err != nil {
			return err
		}
		var scanning, emitting time.Duration
		total, err := stopwatch(func() error {
			_, err := store.AppendSegmentScan(cache, 0, store.Options{RemapLabels01: true},
				func(emit func(x *vec.Sparse, y float64) error) error {
					start := time.Now()
					err := w.scan(func(row *vec.Sparse, y float64) error {
						start := time.Now()
						err := emit(row, y)
						emitting += time.Since(start)
						return err
					})
					scanning = time.Since(start)
					return err
				})
			return err
		})
		if err != nil {
			return err
		}
		parse := (scanning - emitting).Seconds() // ScanLIBSVM + normalise
		r.add("data.parse_s", parse)
		r.add("data.parse_mb_per_s", float64(w.bytes)/1e6/parse)
		r.add("store.convert_s", total-parse) // appends, close, fsync, manifest commit
	}
	return w.probes(r)
}
