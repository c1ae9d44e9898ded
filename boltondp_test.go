package boltondp

// Tests of the public facade: everything a downstream user calls must
// work end-to-end through the exported API alone.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFacadeTrainPrivate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	// Parameters sized for the sound (b-independent) sensitivity: the
	// noise 74·Δ₂/ε stays well below the model scale at γm ≈ 360.
	train, test := ProteinSim(r, 0.1)
	lambda := 0.05
	res, err := TrainCtx(context.Background(), train, NewLogisticLoss(lambda),
		WithBudget(Budget{Epsilon: 1}),
		WithPasses(5), WithBatch(50), WithRadius(1/lambda), WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy(test, &LinearClassifier{W: res.W})
	if acc < 0.6 {
		t.Errorf("private accuracy %v on protein-sim at ε=1", acc)
	}
	if res.Sensitivity <= 0 || res.NoiseNorm <= 0 {
		t.Error("missing sensitivity/noise report")
	}
}

func TestFacadeAlgorithmVariants(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	train, _ := KDDSim(r, 0.01)
	f := NewLogisticLoss(0.01)
	if _, err := TrainCtx(context.Background(), train, f, WithConvexity(ConvexityStronglyConvex),
		WithBudget(Budget{Epsilon: 1}), WithRand(r)); err != nil {
		t.Error(err)
	}
	if _, err := TrainCtx(context.Background(), train, NewLogisticLoss(0), WithConvexity(ConvexityConvex),
		WithBudget(Budget{Epsilon: 1}), WithRand(r)); err != nil {
		t.Error(err)
	}
	if _, err := NoiselessSGD(train, f, BaselineOptions{Rand: r}); err != nil {
		t.Error(err)
	}
	if _, err := SCS13(train, f, BaselineOptions{Budget: Budget{Epsilon: 1}, Rand: r}); err != nil {
		t.Error(err)
	}
	if _, err := BST14(train, f, BaselineOptions{
		Budget: Budget{Epsilon: 1, Delta: 1e-6}, Radius: 100, Rand: r,
	}); err != nil {
		t.Error(err)
	}
}

func TestFacadeHuberLoss(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	train, test := ProteinSim(r, 0.02)
	res, err := TrainCtx(context.Background(), train, NewHuberSVMLoss(0.1, 0.01),
		WithBudget(Budget{Epsilon: 1}), WithPasses(5), WithBatch(50), WithRadius(100), WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(test, &LinearClassifier{W: res.W}); acc < 0.6 {
		t.Errorf("huber private accuracy %v", acc)
	}
}

func TestFacadeMulticlassWithProjection(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	rawTrain, rawTest := MNISTSim(r, 0.02)
	proj := NewProjection(r, 784, 50)
	train := &Dataset{Name: "p", Classes: 10, Y: rawTrain.Y}
	for _, x := range rawTrain.X {
		train.X = append(train.X, proj.Apply(x))
	}
	test := &Dataset{Name: "pt", Classes: 10, Y: rawTest.Y}
	for _, x := range rawTest.X {
		test.X = append(test.X, proj.Apply(x))
	}
	per := Budget{Epsilon: 10}.Split(10)
	if per.Epsilon != 1 {
		t.Fatalf("Split: %v", per)
	}
	lambda := 0.05
	model, err := TrainOneVsAllCtx(context.Background(), train, 10, func(view Samples, class int) ([]float64, error) {
		res, err := TrainCtx(context.Background(), view, NewLogisticLoss(lambda),
			WithBudget(per), WithPasses(5), WithBatch(50), WithRadius(1/lambda), WithRand(r),
			// The tiny test-scale m makes the sound bound's noise
			// dominate; the paper calibration keeps this a wiring test
			// rather than a utility test.
			WithPaperBatchSensitivity())
		if err != nil {
			return nil, err
		}
		return res.W, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(test, model); acc < 0.5 {
		t.Errorf("multiclass private accuracy %v at ε=10", acc)
	}
}

func TestFacadeTuning(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	train, test := KDDSim(r, 0.02)
	budget := Budget{Epsilon: 1}
	fit := func(part *Dataset, p TuningParams) (Classifier, error) {
		res, err := TrainCtx(context.Background(), part, NewLogisticLoss(p.Lambda),
			WithBudget(budget), WithPasses(p.K), WithBatch(p.B), WithRadius(1/p.Lambda), WithRand(r))
		if err != nil {
			return nil, err
		}
		return &LinearClassifier{W: res.W}, nil
	}
	priv, err := PrivateTuneCtx(context.Background(), train, PaperTuningGrid(), budget, nil, fit, r)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(test, priv.Model); acc < 0.6 {
		t.Errorf("privately tuned accuracy %v", acc)
	}
	pub, err := PublicTune(train, test, PaperTuningGrid(), fit)
	if err != nil {
		t.Fatal(err)
	}
	if pub.Model == nil {
		t.Error("nil publicly tuned model")
	}
}

func TestFacadeRDBMS(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	train, test := CovtypeSim(r, 0.005)
	lambda := 0.05
	f := NewLogisticLoss(lambda)

	mem := NewMemTable("t", train.Dim())
	if err := mem.InsertAll(train); err != nil {
		t.Fatal(err)
	}
	res, err := TrainInRDBMS(mem, f, UDATrainConfig{
		Algorithm: UDAOutputPerturb,
		Budget:    Budget{Epsilon: 1},
		Passes:    3, Batch: 10, Radius: 1 / lambda,
		Rand: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(test, &LinearClassifier{W: res.W}); acc < 0.55 {
		t.Errorf("in-RDBMS private accuracy %v", acc)
	}

	disk, err := CreateDiskTable(filepath.Join(t.TempDir(), "t.tbl"), train.Dim(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Remove()
	if err := disk.InsertAll(train); err != nil {
		t.Fatal(err)
	}
	dres, err := TrainInRDBMS(disk, f, UDATrainConfig{
		Algorithm: UDANoiseless, Passes: 2, Batch: 10, Rand: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dres.Stats.Reads == 0 {
		t.Error("disk training reported no page reads")
	}
}

func TestFacadeLIBSVMRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	train, _ := ProteinSim(r, 0.002)
	path := filepath.Join(t.TempDir(), "x.libsvm")
	// Exercise the public loader against a file written by a tiny
	// inline fixture.
	if err := writeLIBSVMFixture(path, train); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLIBSVM(path, train.Dim())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != train.Len() || got.Dim() != train.Dim() {
		t.Errorf("loaded %dx%d, want %dx%d", got.Len(), got.Dim(), train.Len(), train.Dim())
	}
}

func TestFacadeNoiseScalesWithEpsilon(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	train, _ := ProteinSim(r, 0.02)
	lambda := 0.01
	noise := func(eps float64) float64 {
		var sum float64
		for i := 0; i < 10; i++ {
			res, err := TrainCtx(context.Background(), train, NewLogisticLoss(lambda),
				WithBudget(Budget{Epsilon: eps}), WithPasses(2), WithBatch(50),
				WithRadius(1/lambda), WithRand(r))
			if err != nil {
				t.Fatal(err)
			}
			sum += res.NoiseNorm
		}
		return sum / 10
	}
	if n1, n2 := noise(0.01), noise(1); n2 >= n1 {
		t.Errorf("noise at ε=1 (%v) should be below ε=0.01 (%v)", n2, n1)
	}
}

func TestFacadeSimulatorShapes(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		name string
		gen  func(*rand.Rand, float64) (*Dataset, *Dataset)
		dim  int
	}{
		{"mnist", MNISTSim, 784},
		{"protein", ProteinSim, 74},
		{"covtype", CovtypeSim, 54},
		{"higgs", HIGGSSim, 28},
		{"kdd", KDDSim, 41},
	} {
		train, test := tc.gen(r, 0.002)
		if train.Dim() != tc.dim {
			t.Errorf("%s: dim %d, want %d", tc.name, train.Dim(), tc.dim)
		}
		if train.Len() == 0 || test.Len() == 0 {
			t.Errorf("%s: empty split", tc.name)
		}
		if train.MaxNorm() > 1+1e-12 {
			t.Errorf("%s: max norm %v", tc.name, train.MaxNorm())
		}
	}
}

func TestFacadeParallelTraining(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	train, test := CovtypeSim(r, 0.01)
	lambda := 0.05
	f := NewLogisticLoss(lambda)
	tab := NewMemTable("p", train.Dim())
	if err := tab.InsertAll(train); err != nil {
		t.Fatal(err)
	}
	res, err := TrainCtx(context.Background(), tab, f,
		WithStrategy(StrategySharded, 4),
		WithBudget(Budget{Epsilon: 1}),
		WithPasses(3), WithBatch(10), WithRadius(1/lambda),
		WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sensitivity <= 0 {
		t.Error("no sensitivity reported")
	}
	if acc := Accuracy(test, &LinearClassifier{W: res.W}); acc < 0.55 {
		t.Errorf("parallel private accuracy %v", acc)
	}
}

// TestFacadeTrainPublishServe walks the deployment story end to end
// through the exported API alone: train a private model, publish it
// into a registry directory, reopen the registry as a serving process
// would, and score through the HTTP service.
func TestFacadeTrainPublishServe(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	train, test := KDDSimSparse(r, 0.005)
	lambda := 0.05
	res, err := TrainCtx(context.Background(), train, NewLogisticLoss(lambda),
		WithBudget(Budget{Epsilon: 2}),
		WithPasses(3), WithBatch(50), WithRadius(1/lambda), WithRand(r))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	reg, err := NewModelRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("kdd", &LinearClassifier{W: res.W}, map[string]string{"epsilon": "2"}); err != nil {
		t.Fatal(err)
	}

	// A fresh registry (the dpserve process) sees the published model.
	reg2, err := NewModelRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := reg2.Live()
	if live == nil || live.Name != "kdd" || live.Meta["epsilon"] != "2" {
		t.Fatalf("reloaded live model %+v", live)
	}

	srv := httptest.NewServer(NewModelServer(reg2, ServeOptions{Workers: 2}).Handler())
	defer srv.Close()

	// Batch-score the sparse test rows over the wire and compare with
	// local scoring.
	n := 64
	if n > test.Len() {
		n = test.Len()
	}
	indptr, idx, val := []int{0}, []int{}, []float64{}
	want := make([]float64, n)
	local := &LinearClassifier{W: res.W}
	for i := 0; i < n; i++ {
		sp, _ := test.AtSparse(i)
		idx, val = append(idx, sp.Idx...), append(val, sp.Val...)
		indptr = append(indptr, len(idx))
		want[i] = local.PredictSparse(sp)
	}
	body, err := json.Marshal(map[string]any{"indptr": indptr, "idx": idx, "val": val})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/predict/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out struct {
		Model  string    `json:"model"`
		Labels []float64 `json:"labels"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Model != "kdd" || len(out.Labels) != n {
		t.Fatalf("batch response model=%q labels=%d", out.Model, len(out.Labels))
	}
	for i, l := range out.Labels {
		if l != want[i] {
			t.Fatalf("row %d: served %v, local %v", i, l, want[i])
		}
	}
}

// writeLIBSVMFixture emits the dataset in LIBSVM format without using
// the internal writer, keeping this test purely about the public API.
func writeLIBSVMFixture(path string, d *Dataset) error {
	var b strings.Builder
	for i := 0; i < d.Len(); i++ {
		x, y := d.At(i)
		fmt.Fprintf(&b, "%g", y)
		for j, v := range x {
			if v != 0 {
				fmt.Fprintf(&b, " %d:%g", j+1, v)
			}
		}
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// The accountant-era primary path end to end, all through the facade:
// NewAccountant → TrainCtx(WithAccountant, WithProgress) → StampMeta →
// registry publish → /modelz carries a parseable ledger; then the
// exhausted accountant fails closed and a cancelled context stops a
// run mid-epoch.
func TestFacadeAccountantTrainPublishModelz(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	train, test := ProteinSim(r, 0.1)
	lambda := 0.05

	acct, err := NewAccountant(Budget{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	epochs := 0
	res, err := TrainCtx(context.Background(), train, NewLogisticLoss(lambda),
		WithAccountant(acct),
		WithPasses(5), WithBatch(50), WithRadius(1/lambda),
		WithProgress(func(epoch int, risk float64) { epochs++ }),
		WithRand(r))
	if err != nil {
		t.Fatal(err)
	}
	if epochs != 5 {
		t.Errorf("progress epochs = %d, want 5", epochs)
	}
	if acc := Accuracy(test, &LinearClassifier{W: res.W}); acc < 0.6 {
		t.Errorf("private accuracy %v", acc)
	}
	if rem := acct.Remaining(); rem.Epsilon != 0 {
		t.Errorf("accountant not drained: %v", rem)
	}

	// The exhausted accountant refuses a second model: fail closed.
	if _, err := TrainCtx(context.Background(), train, NewLogisticLoss(lambda),
		WithAccountant(acct), WithBudget(Budget{Epsilon: 0.1}),
		WithPasses(1), WithBatch(50), WithRadius(1/lambda), WithRand(r),
	); !errors.Is(err, ErrBudgetOverdraw) {
		t.Fatalf("second draw err = %v, want ErrBudgetOverdraw", err)
	}

	// Publish with the stamped ledger and read it back through /modelz.
	meta := map[string]string{"loss": "logistic"}
	if err := acct.StampMeta(meta); err != nil {
		t.Fatal(err)
	}
	reg, err := NewModelRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("protein", &LinearClassifier{W: res.W}, meta); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewModelServer(reg, ServeOptions{}).Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/modelz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mz struct {
		Models []struct {
			Meta map[string]string `json:"meta"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mz); err != nil {
		t.Fatal(err)
	}
	if len(mz.Models) != 1 {
		t.Fatalf("modelz models: %+v", mz.Models)
	}
	ledger, ok, err := LedgerFromMeta(mz.Models[0].Meta)
	if err != nil || !ok {
		t.Fatalf("modelz meta carries no ledger: ok=%v err=%v", ok, err)
	}
	if ledger.Total() != (Budget{Epsilon: 1}) || ledger.Spent() != (Budget{Epsilon: 1}) {
		t.Errorf("ledger totals: %+v", ledger)
	}
	if len(ledger.Entries) != 1 || !strings.HasPrefix(ledger.Entries[0].Label, "train(") {
		t.Errorf("ledger entries: %+v", ledger.Entries)
	}

	// Cancellation through the facade: a pre-cancelled context stops a
	// fresh run before any pass completes.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TrainCtx(ctx, train, NewLogisticLoss(lambda),
		WithBudget(Budget{Epsilon: 1}),
		WithPasses(5), WithBatch(50), WithRadius(1/lambda), WithRand(r),
	); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run err = %v, want context.Canceled", err)
	}
}

// Accountant.Split drives the one-vs-all facade path with the shares
// enforced, through TrainOneVsAllCtx.
func TestFacadeAccountantOneVsAll(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	train, test := MNISTSim(r, 0.02)
	proj := NewProjection(r, train.Dim(), 20)
	p := &Dataset{Name: "p", Classes: train.Classes, Y: train.Y}
	pt := &Dataset{Name: "pt", Classes: test.Classes, Y: test.Y}
	for _, x := range train.X {
		p.X = append(p.X, proj.Apply(x))
	}
	for _, x := range test.X {
		pt.X = append(pt.X, proj.Apply(x))
	}

	acct, err := NewAccountant(Budget{Epsilon: 10})
	if err != nil {
		t.Fatal(err)
	}
	per, err := acct.Split("onevsall", 10)
	if err != nil {
		t.Fatal(err)
	}
	lambda := 0.05
	m, err := TrainOneVsAllCtx(context.Background(), p, 10, func(view Samples, class int) ([]float64, error) {
		res, err := TrainCtx(context.Background(), view, NewLogisticLoss(lambda),
			WithBudget(per[class]),
			WithPasses(3), WithBatch(50), WithRadius(1/lambda), WithRand(r))
		if err != nil {
			return nil, err
		}
		return res.W, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The task is tiny (1.2k rows, ε=1 per class), so just require
	// clearly-better-than-random: the test pins the API mechanics and
	// the enforced split, not the accuracy frontier.
	if acc := Accuracy(pt, m); acc < 0.15 {
		t.Errorf("one-vs-all accuracy %v (random = 0.1)", acc)
	}
	if l := acct.Ledger(); len(l.Entries) != 10 {
		t.Errorf("ledger entries: %d, want 10", len(l.Entries))
	}
}

// PrivateTuneCtx through the facade, accountant attached.
func TestFacadePrivateTuneCtx(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	train, _ := ProteinSim(r, 0.2)
	acct, err := NewAccountant(Budget{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	fit := func(part *Dataset, p TuningParams) (Classifier, error) {
		res, err := TrainCtx(context.Background(), part, NewLogisticLoss(p.Lambda),
			WithBudget(Budget{Epsilon: 0.5}),
			WithPasses(p.K), WithBatch(p.B), WithRadius(1/p.Lambda), WithRand(r))
		if err != nil {
			return nil, err
		}
		return &LinearClassifier{W: res.W}, nil
	}
	res, err := PrivateTuneCtx(context.Background(), train, PaperTuningGrid(), Budget{Epsilon: 1}, acct, fit, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil {
		t.Fatal("nil tuned model")
	}
	if got := acct.Spent(); got.Epsilon != 1 {
		t.Errorf("tuner spend: %v", got)
	}
}

// The out-of-core store through the facade: convert a sparse dataset
// to a store file, train privately from disk under each strategy, and
// pin the released model bit-identical to the in-memory run — the
// representation-independence invariant of DESIGN.md §7.
func TestFacadeOutOfCoreStore(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	train, _ := KDDSimSparse(r, 0.002)
	path := filepath.Join(t.TempDir(), "kdd.bolt")
	if err := WriteStore(path, train, StoreOptions{ChunkRows: 128}); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if rd.Len() != train.Len() || rd.Dim() != train.Dim() {
		t.Fatalf("store shape %dx%d, want %dx%d", rd.Len(), rd.Dim(), train.Len(), train.Dim())
	}

	f := NewLogisticLoss(1e-2)
	for _, tc := range []struct {
		strategy ExecutionStrategy
		workers  int
		passes   int
	}{
		{StrategySequential, 1, 2},
		{StrategySharded, 2, 2},
		{StrategyStreaming, 1, 1},
	} {
		run := func(s Samples) *TrainResult {
			res, err := TrainCtx(context.Background(), s, f,
				WithBudget(Budget{Epsilon: 1}),
				WithPasses(tc.passes), WithBatch(10), WithRadius(100),
				WithStrategy(tc.strategy, tc.workers),
				WithRand(rand.New(rand.NewSource(77))))
			if err != nil {
				t.Fatalf("%v: %v", tc.strategy, err)
			}
			return res
		}
		mem, disk := run(train), run(rd)
		if mem.Sensitivity != disk.Sensitivity {
			t.Fatalf("%v: Δ₂ differs by representation", tc.strategy)
		}
		for i := range mem.W {
			if math.Float64bits(mem.W[i]) != math.Float64bits(disk.W[i]) {
				t.Fatalf("%v: store-backed model diverged at w[%d]", tc.strategy, i)
			}
		}
	}
}

// The online surface through the facade alone: grow a segment
// directory, train continually under one budget, resume from the
// stamped ledger.
func TestFacadeSegmentDirContinual(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	train, _ := KDDSimSparse(r, 0.002)
	dir := filepath.Join(t.TempDir(), "kdd.segdir")
	if _, err := AppendStoreSegment(dir, train, StoreOptions{ChunkRows: 128}); err != nil {
		t.Fatal(err)
	}
	more, _ := KDDSimSparse(rand.New(rand.NewSource(32)), 0.001)
	if _, err := AppendStoreSegment(dir, more, StoreOptions{ChunkRows: 128}); err != nil {
		t.Fatal(err)
	}
	d, err := OpenStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Len() != train.Len()+more.Len() {
		t.Fatalf("union rows %d, want %d", d.Len(), train.Len()+more.Len())
	}

	f := NewLogisticLoss(1e-2)
	ct, err := NewContinualRDP(Budget{Epsilon: 2, Delta: 1e-6}, 2, f,
		WithPasses(1), WithBatch(10), WithRadius(100),
		WithRand(rand.New(rand.NewSource(5))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Retrain(context.Background(), d); err != nil {
		t.Fatal(err)
	}

	// Restart story: ledger → metadata → RestoreAccountant → resume.
	meta := map[string]string{}
	if err := ct.Accountant().StampMeta(meta); err != nil {
		t.Fatal(err)
	}
	l, ok, err := LedgerFromMeta(meta)
	if err != nil || !ok {
		t.Fatalf("ledger round trip: ok=%v err=%v", ok, err)
	}
	acct, err := RestoreAccountant(l)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := NewContinualTrainer(acct, 2, f,
		WithPasses(1), WithBatch(10), WithRadius(100),
		WithRand(rand.New(rand.NewSource(6))))
	if err != nil {
		t.Fatal(err)
	}
	if ct2.Window() != 1 {
		t.Fatalf("resumed at window %d, want 1", ct2.Window())
	}
	if _, err := ct2.Retrain(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	if _, err := ct2.Retrain(context.Background(), d); !errors.Is(err, ErrBudgetOverdraw) {
		t.Fatalf("third window err = %v, want ErrBudgetOverdraw", err)
	}

	if before, after, err := CompactStoreDir(dir, 1<<20); err != nil || after >= before {
		t.Fatalf("compaction: before=%d after=%d err=%v", before, after, err)
	}
}
