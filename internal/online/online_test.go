package online

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"boltondp/internal/account"
	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/eval"
	"boltondp/internal/loss"
	"boltondp/internal/serve"
	"boltondp/internal/sgd"
	"boltondp/internal/store"
	"boltondp/internal/vec"
)

// synth builds a binary sparse dataset with a planted separator on
// coordinate 0 and the given +1 label rate: rows are unit-norm, the
// label follows sign(x0) for the first posRate fraction and -sign(x0)
// inverted labels otherwise — so posRate ~0.5 looks like the training
// population and posRate ~1 is a drifted prior.
func synth(r *rand.Rand, m, dim int, posRate float64) *data.SparseDataset {
	ds := data.NewSparseDataset("synth", dim)
	for i := 0; i < m; i++ {
		idx := []int{0, 1 + r.Intn(dim-1)}
		val := []float64{0.5 + r.Float64(), r.NormFloat64()}
		y := 1.0
		if float64(i%100)/100 >= posRate {
			y = -1
			val[0] = -val[0]
		}
		x := &vec.Sparse{Idx: idx, Val: val}
		if nrm := x.Norm(); nrm > 1 {
			x.Scale(1 / nrm)
		}
		if err := ds.Append(x, y); err != nil {
			panic(err)
		}
	}
	return ds
}

// TestOnlineLoopEndToEnd is the acceptance loop: train → publish →
// serve → AppendSegment → drift fires → warm retrain on a per-window
// draw → canary publish → promote; then a rollback variant; the final
// ledger audits every window; and an integrity-violating segment is
// rejected fail-closed before visibility.
func TestOnlineLoopEndToEnd(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const dim = 16
	ctx := context.Background()
	f := loss.NewLogistic(1e-2, 0)

	// --- Seed the segment directory with the initial training data.
	dirPath := t.TempDir() + "/segments"
	base := synth(r, 600, dim, 0.5)
	if _, err := store.AppendSegment(dirPath, base, store.Options{}); err != nil {
		t.Fatal(err)
	}
	dir, err := store.OpenDir(dirPath)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()

	// --- Initial training: one accountant owns the whole ε; the first
	// run draws an explicit slice and the continual windows split the
	// rest.
	total := dp.Budget{Epsilon: 4, Delta: 1e-6}
	acct, err := account.NewWithRule("rdp", total)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.TrainCtx(ctx, dir, f,
		core.WithBudget(dp.Budget{Epsilon: 1, Delta: 2.5e-7}),
		core.WithAccountant(acct), core.WithSpendLabel("initial"),
		core.WithPasses(2), core.WithBatch(20), core.WithRadius(100),
		core.WithRand(rand.New(rand.NewSource(2))))
	if err != nil {
		t.Fatal(err)
	}

	// --- Publish into a directory-backed registry (the dpserve path)
	// with the ledger and training snapshot stamped.
	reg, err := serve.NewRegistry(t.TempDir() + "/registry")
	if err != nil {
		t.Fatal(err)
	}
	meta := map[string]string{}
	if err := acct.StampMeta(meta); err != nil {
		t.Fatal(err)
	}
	StampMeta(meta, Stats(dir, res.W), 0)
	if _, err := reg.Publish("model", &eval.Linear{W: res.W}, meta); err != nil {
		t.Fatal(err)
	}
	live := reg.Live()
	if live == nil || live.Name != "model" {
		t.Fatalf("live = %v", live)
	}
	// Serve: the published model answers a prediction.
	x0, _ := dir.AtSparse(0)
	if p := live.Sparse.PredictSparse(x0); p != 1 && p != -1 {
		t.Fatalf("served prediction = %v", p)
	}

	// --- Continual trainer over the remaining budget, 3 windows.
	const N = 3
	tr, err := core.NewContinualTrainer(acct, N, f,
		core.WithPasses(2), core.WithBatch(20), core.WithRadius(100),
		core.WithRand(rand.New(rand.NewSource(3))))
	if err != nil {
		t.Fatal(err)
	}
	run := &Runner{Dir: dir, Registry: reg, Trainer: tr, CanaryPct: 25,
		Logf: t.Logf}

	// --- A same-distribution segment must NOT fire.
	calm := synth(rand.New(rand.NewSource(4)), 200, dim, 0.5)
	rep, err := run.Ingest(ctx, calm, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fired {
		t.Fatalf("calm segment fired: %+v", rep)
	}
	if dir.Len() != 800 {
		t.Fatalf("union len = %d after calm ingest, want 800", dir.Len())
	}
	if tr.Window() != 0 {
		t.Fatalf("calm ingest spent a window")
	}

	// --- A drifted segment (label prior flips to ~1.0) fires, spends
	// window 1, and stages a canary.
	drift := synth(rand.New(rand.NewSource(5)), 200, dim, 1.0)
	rep, err = run.Ingest(ctx, drift, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fired {
		t.Fatalf("drifted segment did not fire: %+v", rep)
	}
	if tr.Window() != 1 {
		t.Fatalf("Window() = %d after drift, want 1", tr.Window())
	}
	cm, pct, _, _ := reg.Canary()
	if cm == nil || cm.Name != "model-w1" || pct != 25 {
		t.Fatalf("canary = %v at %d%%", cm, pct)
	}
	// The canary's warm start came from the live model: retraining was
	// warm, not from scratch — pinned by the trainer's weight state
	// having been seeded with the live weights.
	if tr.Weights() == nil {
		t.Fatal("trainer has no weights after window 1")
	}

	// --- Promote: the window-1 model goes live.
	if _, err := run.Promote(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Live().Name; got != "model-w1" {
		t.Fatalf("live after promote = %q", got)
	}
	if cm, _, _, _ := reg.Canary(); cm != nil {
		t.Fatal("canary still staged after promote")
	}
	// The promoted model's metadata audits the spend so far.
	l, ok, err := account.LedgerFromMeta(reg.Live().Meta)
	if err != nil || !ok {
		t.Fatalf("promoted model carries no ledger: %v", err)
	}
	if len(l.Entries) != 2 || l.Entries[1].Label != "window[1/3]" {
		t.Fatalf("promoted ledger entries: %+v", l.Entries)
	}

	// --- Second drift: another drifted segment stages window 2 as a
	// canary. The live model stays window 1 until a promotion, and the
	// window budget is spent (released is released).
	drift2 := synth(rand.New(rand.NewSource(6)), 200, dim, 0.0)
	rep, err = run.Ingest(ctx, drift2, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fired || tr.Window() != 2 {
		t.Fatalf("second drift: fired=%v window=%d", rep.Fired, tr.Window())
	}
	if cm, _, _, _ := reg.Canary(); cm == nil || cm.Name != "model-w1-w2" {
		t.Fatalf("second canary = %v", cm)
	}
	if got := reg.Live().Name; got != "model-w1" {
		t.Fatalf("live with window 2 staged = %q", got)
	}

	// --- Integrity violation: a segment with a wider dimension is
	// rejected fail-closed — no new segment visible, no window spent.
	lenBefore, winBefore := dir.Len(), tr.Window()
	bad := data.NewSparseDataset("bad", dim+7)
	for i := 0; i < 50; i++ {
		if err := bad.Append(&vec.Sparse{Idx: []int{dim + 6}, Val: []float64{1}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := run.Ingest(ctx, bad, store.Options{}); err == nil || !strings.Contains(err.Error(), "dim") {
		t.Fatalf("integrity-violating ingest: %v", err)
	}
	if dir.Len() != lenBefore || tr.Window() != winBefore {
		t.Fatalf("rejected ingest changed state: len %d→%d window %d→%d",
			lenBefore, dir.Len(), winBefore, tr.Window())
	}

	// --- Final audit: the accountant's ledger records the initial run
	// plus every spent window, within the total.
	fl := tr.Ledger()
	labels := make([]string, len(fl.Entries))
	for i, e := range fl.Entries {
		labels[i] = e.Label
	}
	want := []string{"initial", "window[1/3]", "window[2/3]"}
	if len(labels) != len(want) {
		t.Fatalf("ledger labels = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("ledger labels = %v, want %v", labels, want)
		}
	}
	if sp := fl.Spent(); sp.Epsilon > total.Epsilon*(1+1e-9) || sp.Delta > total.Delta*(1+1e-9) {
		t.Fatalf("spent %v exceeds total %v", sp, total)
	}
}

// TestRunnerWindowsExhaust: once every window is spent, a drifting
// segment still ingests and reports, but the retrain fails closed with
// ErrOverdraw.
func TestRunnerWindowsExhaust(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	const dim = 8
	ctx := context.Background()
	f := loss.NewLogistic(1e-2, 0)

	dirPath := t.TempDir() + "/segments"
	if _, err := store.AppendSegment(dirPath, synth(r, 300, dim, 0.5), store.Options{}); err != nil {
		t.Fatal(err)
	}
	dir, err := store.OpenDir(dirPath)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()

	tr, err := core.NewContinualRDP(dp.Budget{Epsilon: 2, Delta: 1e-6}, 1, f,
		core.WithPasses(1), core.WithBatch(10), core.WithRadius(100),
		core.WithRand(rand.New(rand.NewSource(10))))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := serve.NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	w0 := make([]float64, dim)
	w0[0] = 1
	meta := map[string]string{}
	StampMeta(meta, Stats(dir, w0), 0)
	if _, err := reg.Publish("m", &eval.Linear{W: w0}, meta); err != nil {
		t.Fatal(err)
	}
	run := &Runner{Dir: dir, Registry: reg, Trainer: tr, Logf: t.Logf}

	if rep, err := run.Ingest(ctx, synth(rand.New(rand.NewSource(11)), 100, dim, 1.0), store.Options{}); err != nil || !rep.Fired {
		t.Fatalf("first drift: rep=%v err=%v", rep, err)
	}
	rep, err := run.Ingest(ctx, synth(rand.New(rand.NewSource(12)), 100, dim, 0.0), store.Options{})
	if !errors.Is(err, account.ErrOverdraw) {
		t.Fatalf("exhausted retrain = %v, want ErrOverdraw", err)
	}
	if rep == nil || !rep.Fired {
		t.Fatalf("drift report lost on exhaustion: %v", rep)
	}
}

// TestStatsAndDetect covers the statistic pair and threshold logic on
// hand-built rows, both tiers.
func TestStatsAndDetect(t *testing.T) {
	s := &sgd.SliceSamples{
		X: [][]float64{{1, 0}, {1, 0}, {-1, 0}, {1, 0}},
		Y: []float64{1, 1, -1, -1},
	}
	w := []float64{2, 0}
	snap := Stats(s, w)
	if snap.LabelRate != 0.5 {
		t.Errorf("LabelRate = %v, want 0.5", snap.LabelRate)
	}
	// margins: 2, 2, 2, -2 → mean 1.
	if snap.MeanMargin != 1 {
		t.Errorf("MeanMargin = %v, want 1", snap.MeanMargin)
	}

	sp := data.NewSparseDataset("s", 2)
	for i := range s.Y {
		x := &vec.Sparse{Idx: []int{0}, Val: []float64{s.X[i][0]}}
		if err := sp.Append(x, s.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := Stats(sp, w); got != snap {
		t.Errorf("sparse Stats = %+v, dense %+v", got, snap)
	}
	if got := Stats(&sgd.SliceSamples{}, w); got != (Snapshot{}) {
		t.Errorf("empty Stats = %+v", got)
	}

	rep := detect(snap, Snapshot{LabelRate: 0.9, MeanMargin: 1.1}, Thresholds{})
	if !rep.Fired || math.Abs(rep.LabelShift-0.4) > 1e-15 {
		t.Errorf("label drift: %+v", rep)
	}
	rep = detect(snap, Snapshot{LabelRate: 0.5, MeanMargin: -1}, Thresholds{})
	if !rep.Fired || rep.MarginShift != 2 {
		t.Errorf("margin drift: %+v", rep)
	}
	rep = detect(snap, Snapshot{LabelRate: 0.55, MeanMargin: 1.2}, Thresholds{})
	if rep.Fired {
		t.Errorf("calm snapshot fired: %+v", rep)
	}
	rep = detect(snap, Snapshot{LabelRate: 0.6, MeanMargin: 1}, Thresholds{LabelRate: 0.05})
	if !rep.Fired {
		t.Errorf("tight threshold did not fire: %+v", rep)
	}
}

// TestSnapshotMetaRoundTrip: StampMeta → snapshotFromMeta is exact.
func TestSnapshotMetaRoundTrip(t *testing.T) {
	snap := Snapshot{LabelRate: 1.0 / 3, MeanMargin: -0.12345678901234567}
	meta := map[string]string{}
	StampMeta(meta, snap, 4)
	got, ok, err := snapshotFromMeta(meta)
	if err != nil || !ok {
		t.Fatalf("snapshotFromMeta: ok=%v err=%v", ok, err)
	}
	if got != snap {
		t.Errorf("round trip %+v != %+v", got, snap)
	}
	if _, ok, _ := snapshotFromMeta(map[string]string{}); ok {
		t.Error("empty meta claims a snapshot")
	}
	if _, ok, err := snapshotFromMeta(map[string]string{metaLabelRate: "x", metaMeanMargin: "1"}); !ok || err == nil {
		t.Error("corrupt snapshot not rejected")
	}
}
