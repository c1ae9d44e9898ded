package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

type childConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
	detail   string
	smoke    bool
}

// run is one workload run in this process: its scratch directory, the
// samples of every metric it measures, and the tally of what it
// attempted (jobs, requests, correctness checks) and what failed.
type run struct {
	cfg        childConfig
	work       string
	tr         *tracer // nil in the timed run: tracing off
	tracedJobs int     // how many jobs the traced run traced
	samples    map[string][]float64
	attempted  int
	failed     int
	failures   []string // the first few, for the report
}

// workload is what the six workloads implement. setup may be called
// several times (each after teardown), so set-up time has a median.
type workload interface {
	// setup builds the inputs under dir: data generation, file writes,
	// server start.
	setup(r *run, dir string) error
	teardown()
	// pair runs job j and its noiseless twin (order alternating with
	// j), recording job_s, private_over_noiseless and test_accuracy
	// when record is set. The last private model stays servable.
	pair(r *run, j int, record bool) error
	// target is what the scoring slices send requests to: a server over
	// the models the pairs so far have published.
	target() (*serveTarget, error)
	// traced makes the traced run: job 0 stage by stage under spans,
	// and this workload's fixed-size layer probes.
	traced(r *run) error
}

func newWorkload(name string) workload {
	switch name {
	case "kdd_cold":
		return &kddCold{}
	case "wide_warm":
		return &storeTrain{}
	case "dense_mem":
		return &denseMem{}
	case "dist_loopback":
		return &storeTrain{distributed: true}
	case "serve_closed":
		return &serveClosed{}
	case "online_windows":
		return &onlineWindows{}
	}
	return nil
}

// size scales a full-size row count; -smoke runs at 1/50.
func (r *run) size(full int) int {
	if r.cfg.smoke {
		return max(full/50, 400)
	}
	return full
}

func (r *run) add(metric string, v float64) {
	r.samples[metric] = append(r.samples[metric], v)
}

// check tallies one correctness check.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// Set-up is repeated at least minSetupReps times, and on until a tenth
// of -seconds has gone into it (at most maxSetupReps times): a set-up
// of 60 ms needs more repeats than one of a second for a steady median.
const (
	minSetupReps = 3
	maxSetupReps = 15
	// minRounds is the fewest rounds a timed run makes however slow the
	// machine, so that every metric still has a median.
	minRounds = 3
)

// windowScale shortens the scoring windows of a run shorter than
// BENCHMARK.json's run_seconds (-smoke) in proportion.
func (r *run) windowScale() float64 { return min(1, r.cfg.seconds/defaultSeconds) }

// runChild runs one workload in this process and prints the result
// line the BENCHMARK.json contract asks for.
func runChild(cfg childConfig) error {
	spec, ok := findWorkload(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", cfg.seconds)
	}
	// Everything written lives under the directory the command runs in.
	if err := os.MkdirAll(".bench_work", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_work", spec.Name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	work, err = filepath.Abs(work) // dist workers open the store by the path the coordinator names
	if err != nil {
		return err
	}

	r := &run{cfg: cfg, work: work, samples: map[string][]float64{}}
	w := newWorkload(spec.Name)
	defer func() { w.teardown() }()

	specs := endToEnd
	if cfg.traced {
		specs = perLayer
		err = r.tracedRun(w)
	} else {
		err = r.timedRun(w)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", spec.Name, err)
	}
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED %s\n", spec.Name, f)
	}
	return r.emit(specs)
}

// timedRun measures the end-to-end metrics, tracing off. After set-up
// and an untimed warm-up pair it makes rounds until -seconds are spent:
// a job pair, a /predict slice, a /predict/batch slice, the slices
// against the model the first round's job published. Every metric is
// thus sampled from the first second of the run to the last, and a busy
// few seconds on the host fall on a few samples of each, not on all of
// one.
func (r *run) timedRun(w workload) error {
	setupBudget := time.Duration(r.cfg.seconds / 10 * float64(time.Second))
	var inSetup time.Duration
	for rep := 0; rep < minSetupReps || (rep < maxSetupReps && inSetup < setupBudget); rep++ {
		w.teardown()
		// Hand the last set-up's memory back before the next one, so that
		// peak_rss_mb is one set-up plus the jobs, not a sum that depends
		// on when the collector happened to run.
		debug.FreeOSMemory()
		dir := filepath.Join(r.work, fmt.Sprintf("setup%d", rep))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		start := time.Now()
		if err := w.setup(r, dir); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		took := time.Since(start)
		r.add("setup_s", took.Seconds())
		inSetup += took
	}
	if err := w.pair(r, 0, false); err != nil { // untimed warm-up
		return fmt.Errorf("warm-up: %w", err)
	}

	var tgt *serveTarget
	defer func() {
		if tgt != nil {
			tgt.close()
		}
	}()
	deadline := time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	var round time.Duration // how long the last round took
	// A round that would end more than half its length past the
	// deadline is not begun.
	for j := 0; j < minRounds || time.Now().Add(round/2).Before(deadline); j++ {
		began := time.Now()
		r.attempted++
		if err := w.pair(r, j, true); err != nil {
			r.fail("job %d: %v", j, err)
			if j >= minRounds {
				break
			}
			continue
		}
		if tgt == nil {
			var err error
			if tgt, err = w.target(); err != nil {
				return fmt.Errorf("serve target: %w", err)
			}
		}
		if err := tgt.slices(context.Background(), r, r.windowScale()); err != nil {
			return err
		}
		round = time.Since(began)
	}
	if tgt == nil {
		return fmt.Errorf("no job pair succeeded, nothing to serve")
	}
	tgt.checkTier(r)
	r.add("peak_rss_mb", peakRSSMB())
	return nil
}

// tracedRun yields the per-layer metrics.
func (r *run) tracedRun(w workload) error {
	r.tr = newTracer()
	if err := w.setup(r, r.work); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if err := w.traced(r); err != nil {
		return err
	}
	r.spanLayerMetrics()
	if r.cfg.traceOut != "" {
		return r.tr.write(r.cfg.traceOut)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the result line: every metric of the run's kind, by its
// value (summary.Value). A traced run reads 0 for a layer the workload
// never entered.
func (r *run) emit(specs []metricSpec) error {
	metrics := map[string]metricValue{}
	dists := map[string]summary{}
	for _, m := range specs {
		d := m.summarize(r.samples[m.Name])
		if d.N == 0 && !r.cfg.traced {
			r.fail("metric %s was not measured", m.Name)
		}
		dists[m.Name] = d
		metrics[m.Name] = metricValue{d.Value, m.Unit}
	}
	if r.cfg.detail != "" {
		b, err := json.Marshal(childDetail{dists, r.attempted, r.failed, r.failures})
		if err != nil {
			return err
		}
		if err := os.WriteFile(r.cfg.detail, b, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		return errReported
	}
	return nil
}

// childDetail is what a child hands the all-workloads parent.
type childDetail struct {
	Metrics   map[string]summary `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
}
