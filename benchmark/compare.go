package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// verdict of one (metric, workload) pair under -compare.
const (
	verdictOK         = "ok"
	verdictWorse      = "WORSE"      // B's value is worse than A's by more than the bound
	verdictUnresolved = "unresolved" // a side's quartile spread exceeds the bound: no call either way
)

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative means better.
func worsening(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies a metric's bound to one pair of distributions; pooledA
// and pooledB say which of them are run-to-run distributions (readSide).
func judge(m metricSpec, a, b summary, pooledA, pooledB bool) string {
	switch {
	case worsening(m, a.Value, b.Value) > m.Bound:
		return verdictWorse
	case unsteady(m, a, pooledA) || unsteady(m, b, pooledB):
		return verdictUnresolved
	}
	return verdictOK
}

// unsteady reports whether a side spreads by more than the bound. The
// windows of a single run spread by how much of it was disturbed, which
// a windowed metric's value is chosen to ignore (metricSpec.summarize),
// so only a run-to-run spread counts against one.
func unsteady(m metricSpec, d summary, pooled bool) bool {
	if m.Windowed && !pooled {
		return false
	}
	return d.spread() > m.Bound
}

// readSide reads one side of a comparison: a comma-separated list of
// result files. One file stands as it is, its quartiles those of the
// samples inside the run. Several files of the same machine shape are
// pooled per metric into the distribution of their values, so that the
// quartiles are the run-to-run spread — what a verdict should rest on
// where single runs differ by more than a bound, as they do on a shared
// two-core box.
func readSide(list string) (resultFile, error) {
	var side resultFile
	var files []resultFile
	for _, path := range strings.Split(list, ",") {
		var rf resultFile
		b, err := os.ReadFile(path)
		if err != nil {
			return side, err
		}
		if err := json.Unmarshal(b, &rf); err != nil {
			return side, fmt.Errorf("%s: %w", path, err)
		}
		if len(files) > 0 && !sameShape(files[0].Env, rf.Env) {
			return side, fmt.Errorf("refusing to pool %s: its nproc, GOMAXPROCS, goos or goarch differ within %s", path, list)
		}
		files = append(files, rf)
	}
	if len(files) == 1 {
		return files[0], nil
	}
	side = resultFile{Env: files[0].Env, Workloads: map[string]workloadResult{}, pooled: true}
	for _, w := range workloads {
		pooled := workloadResult{EndToEnd: map[string]summary{}}
		for _, m := range endToEnd {
			var values []float64
			for _, rf := range files {
				if d, ok := rf.Workloads[w.Name].EndToEnd[m.Name]; ok && d.N > 0 {
					values = append(values, d.Value)
				}
			}
			pooled.EndToEnd[m.Name] = summarize(m.Unit, values)
		}
		for _, rf := range files {
			pooled.Attempted += rf.Workloads[w.Name].Attempted
			pooled.Failed += rf.Workloads[w.Name].Failed
		}
		pooled.FailedShare = float64(pooled.Failed) / float64(max(pooled.Attempted, 1))
		side.Workloads[w.Name] = pooled
	}
	return side, nil
}

func sameShape(a, b environment) bool {
	return a.NProc == b.NProc && a.GOMAXPROCS == b.GOMAXPROCS && a.GOOS == b.GOOS && a.GOARCH == b.GOARCH
}

// compareFiles is the regression gate: B against baseline A, one row
// per end-to-end metric and workload. Each side is one result file or
// a comma-separated list of them (see readSide). It fails when any pair
// is WORSE or when failed_share rose, and refuses sides measured on
// different machine shapes.
func compareFiles(out io.Writer, listA, listB string) error {
	a, err := readSide(listA)
	if err != nil {
		return err
	}
	b, err := readSide(listB)
	if err != nil {
		return err
	}
	ea, eb := a.Env, b.Env
	if !sameShape(ea, eb) {
		return fmt.Errorf("refusing to compare: %s ran on nproc=%d GOMAXPROCS=%d %s/%s, %s on nproc=%d GOMAXPROCS=%d %s/%s",
			listA, ea.NProc, ea.GOMAXPROCS, ea.GOOS, ea.GOARCH, listB, eb.NProc, eb.GOMAXPROCS, eb.GOOS, eb.GOARCH)
	}
	fmt.Fprintf(out, "A = %s (commit %s)\nB = %s (commit %s)\n", listA, ea.Commit, listB, eb.Commit)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA value [q1, q3]\tB value [q1, q3]\tworse by\tbound\tverdict")
	worse := 0
	for _, w := range workloads {
		wa, okA := a.Workloads[w.Name]
		wb, okB := b.Workloads[w.Name]
		if !okA || !okB {
			return fmt.Errorf("workload %s is missing from one side", w.Name)
		}
		for _, m := range endToEnd {
			da, db := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			v := judge(m, da, db, a.pooled, b.pooled)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, m.Unit, da.Value, da.Q1, da.Q3, db.Value, db.Q1, db.Q3,
				100*worsening(m, da.Value, db.Value), 100*m.Bound, v)
		}
		v := verdictOK
		if wb.FailedShare > wa.FailedShare {
			v = verdictWorse
			worse++
		}
		fmt.Fprintf(tw, "%s\tfailed_share\tratio\t%.5g\t%.5g\t\tany\t%s\n", w.Name, wa.FailedShare, wb.FailedShare, v)
	}
	tw.Flush()
	if worse > 0 {
		fmt.Fprintf(out, "%d pairs WORSE beyond their bound\n", worse)
		return errReported
	}
	fmt.Fprintln(out, "no end-to-end metric of B is worse than A beyond its bound")
	return nil
}
