package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

type allConfig struct {
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
	out      string
	smoke    bool
}

// environment is recorded in every result file; -compare refuses to
// set two files side by side when the machine shape differs.
type environment struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
}

// workloadResult is one workload's timed run and, when made, its
// traced run.
type workloadResult struct {
	EndToEnd    map[string]summary `json:"end_to_end"`
	PerLayer    map[string]summary `json:"per_layer,omitempty"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedShare float64            `json:"failed_share"`
	Failures    []string           `json:"failures,omitempty"`
}

type resultFile struct {
	Env       environment               `json:"env"`
	Workloads map[string]workloadResult `json:"workloads"`
	// pooled marks a side of -compare made of several files: its
	// summaries are run-to-run distributions (readSide).
	pooled bool
}

func currentEnv(cfg allConfig) environment {
	env := environment{
		Commit: "unknown", Go: runtime.Version(), CPU: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke,
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimLeft(name, " \t:"))
				break
			}
		}
	}
	return env
}

// runAll runs the six workloads one after another, never concurrently,
// each run in a child process of this binary so that peak_rss_mb is
// the workload's own: first the timed run, then the traced one.
func runAll(cfg allConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_work", 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(".bench_work", "all-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	res := resultFile{Env: currentEnv(cfg), Workloads: map[string]workloadResult{}}
	fmt.Printf("boltondp benchmark: commit %s, %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %.0f s per run\n",
		res.Env.Commit, res.Env.Go, res.Env.CPU, res.Env.NProc, res.Env.GOMAXPROCS, cfg.seed, cfg.seconds)
	traces := map[string]json.RawMessage{}
	failed := false
	for _, w := range workloads {
		var wr workloadResult
		child := func(traced bool) (childDetail, error) {
			detail, spans := filepath.Join(scratch, "detail.json"), filepath.Join(scratch, "spans.json")
			args := []string{
				"-workload", w.Name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-detail", detail,
			}
			if traced {
				args = append(args, "-trace", "1", "-trace-out", spans)
			} else {
				args = append(args, "-trace", "0")
			}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
			runErr := cmd.Run()
			var d childDetail
			b, err := os.ReadFile(detail)
			if err == nil {
				err = json.Unmarshal(b, &d)
			}
			if err != nil {
				return d, fmt.Errorf("%s: child left no result (%v): %v", w.Name, runErr, err)
			}
			os.Remove(detail)
			if traced {
				if b, err := os.ReadFile(spans); err == nil {
					traces[w.Name] = b
				}
			}
			return d, nil
		}
		d, err := child(false)
		if err != nil {
			return err
		}
		wr.EndToEnd, wr.Attempted, wr.Failed, wr.Failures = d.Metrics, d.Attempted, d.Failed, d.Failures
		if cfg.traced {
			if d, err = child(true); err != nil {
				return err
			}
			wr.PerLayer = d.Metrics
			wr.Attempted, wr.Failed, wr.Failures = wr.Attempted+d.Attempted, wr.Failed+d.Failed, append(wr.Failures, d.Failures...)
		}
		wr.FailedShare = float64(wr.Failed) / float64(max(wr.Attempted, 1))
		res.Workloads[w.Name] = wr
		printWorkload(os.Stdout, w, wr)
		failed = failed || wr.Failed > 0
	}

	if cfg.traced {
		path := cfg.traceOut
		if path == "" {
			path = filepath.Join(".bench_work", "trace.json")
		}
		b, err := json.Marshal(traces)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("\ntrace written to %s\n", path)
	}
	if cfg.out != "" {
		b, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("result written to %s\n", cfg.out)
	}
	if failed {
		fmt.Println("FAILED: at least one job, request or correctness check failed")
		return errReported
	}
	return nil
}

func printWorkload(out io.Writer, w workloadSpec, wr workloadResult) {
	fmt.Fprintf(out, "\n== %s — %s\n", w.Name, w.Why)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tn\tvalue\tmedian\tq1\tq3")
	row := func(specs []metricSpec, got map[string]summary) {
		for _, m := range specs {
			if d, ok := got[m.Name]; ok && d.N > 0 {
				fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.6g\n", m.Name, d.Unit, d.N, d.Value, d.Median, d.Q1, d.Q3)
			}
		}
	}
	row(endToEnd, wr.EndToEnd)
	fmt.Fprintf(tw, "failed_share\tratio\t%d\t%.6g\t\t\n", wr.Attempted, wr.FailedShare)
	row(perLayer, wr.PerLayer)
	tw.Flush()
	for _, f := range wr.Failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
}
