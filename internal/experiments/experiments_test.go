package experiments

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"boltondp/internal/data"
	"boltondp/internal/dp"
)

// quickCfg is a tiny configuration every runner must complete under.
func quickCfg(buf *bytes.Buffer) Config {
	return Config{Scale: 0.002, Seed: 7, Out: buf, Quick: true}
}

func TestRegistryCoversDesignDoc(t *testing.T) {
	want := []string{
		"table2", "table3", "table4",
		"fig1", "fig2a", "fig2b", "fig3", "fig4a", "fig4b", "fig4c",
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"ablation-steps", "ablation-averaging", "ablation-noise",
		"ablation-freshperm",
		"scaling", "stream", "sparse", "dist", "accounting", "online",
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("experiment %q missing from Registry", id)
		}
	}
	if len(Registry) != len(want) {
		t.Errorf("Registry has %d entries, want %d", len(Registry), len(want))
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Errorf("IDs() returned %d ids", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Error("IDs() not sorted")
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if err := Run("nope", Config{}); err == nil {
		t.Error("unknown id accepted")
	}
}

// Every registered experiment must run to completion at tiny scale and
// produce non-trivial output. This is the harness's own integration
// test; the heavier shape checks live in the benchmarks.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(id, quickCfg(&buf)); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if buf.Len() < 40 {
				t.Errorf("%s: suspiciously small output %q", id, buf.String())
			}
		})
	}
}

func TestEpsGrid(t *testing.T) {
	if g := epsGrid(true, false); len(g) != 6 || g[0] != 0.1 || g[5] != 4 {
		t.Errorf("multiclass grid %v", g)
	}
	if g := epsGrid(false, false); len(g) != 6 || g[0] != 0.01 || g[5] != 0.4 {
		t.Errorf("binary grid %v", g)
	}
	if g := epsGrid(true, true); len(g) != 3 {
		t.Errorf("quick grid %v", g)
	}
}

func TestDeltaFor(t *testing.T) {
	if d := deltaFor(1000); d != 1e-6 {
		t.Errorf("deltaFor(1000) = %v", d)
	}
	// Degenerate tiny m still yields a valid δ < 1.
	if d := deltaFor(1); d <= 0 || d >= 1 {
		t.Errorf("deltaFor(1) = %v", d)
	}
}

func TestLossFor(t *testing.T) {
	f, r := lossFor(true, 1e-3, false)
	if !f.Params().StronglyConvex() || r != 1000 {
		t.Errorf("strongly convex lossFor: %v radius %v", f.Name(), r)
	}
	f, r = lossFor(false, 1e-3, false)
	if f.Params().StronglyConvex() || r != 0 {
		t.Errorf("convex lossFor: %v radius %v", f.Name(), r)
	}
	f, _ = lossFor(false, 0, true)
	if !strings.Contains(f.Name(), "huber") {
		t.Errorf("huber lossFor: %v", f.Name())
	}
}

func TestTrainBinaryAllAlgorithms(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ds := data.Synthetic(r, data.GenConfig{Name: "t", M: 400, D: 5, Classes: 2, Spread: 0.4})
	f, radius := lossFor(true, 1e-2, false)
	for _, algo := range algoNames {
		w, err := trainBinary(ds, trainSpec{
			algo: algo, budget: dp.Budget{Epsilon: 1, Delta: 1e-6},
			f: f, k: 2, b: 10, radius: radius, rand: r,
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(w) != 5 {
			t.Errorf("%s: model dim %d", algo, len(w))
		}
	}
	if _, err := trainBinary(ds, trainSpec{algo: "nope", rand: r}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestMnistProjectedShapes(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	train, test := mnistProjected(r, 0.01)
	if train.Dim() != 50 || test.Dim() != 50 {
		t.Errorf("projected dims %d/%d, want 50", train.Dim(), test.Dim())
	}
	if train.Classes != 10 {
		t.Errorf("classes %d", train.Classes)
	}
	if train.MaxNorm() > 1+1e-12 {
		t.Errorf("projected max norm %v", train.MaxNorm())
	}
}

func TestRunTunedUnknownTuner(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ds := data.Synthetic(r, data.GenConfig{Name: "t", M: 100, D: 3, Classes: 2, Spread: 0.4})
	_, err := runTuned(ds, ds, scenarios[0], dp.Budget{Epsilon: 1}, "ours", false, "nope", 1, 1, r)
	if err == nil {
		t.Error("unknown tuner accepted")
	}
}

// The headline accuracy claim in miniature: at small ε on the
// well-separated KDD simulation, the bolt-on algorithm should beat
// SCS13 clearly (Figure 8's shape). Averaged over seeds to keep the
// test stable.
func TestOursBeatsSCS13AtSmallEpsilon(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison is not short")
	}
	var oursSum, scsSum float64
	const trials = 5
	for seed := int64(0); seed < trials; seed++ {
		r := rand.New(rand.NewSource(40 + seed))
		train, test := data.KDDSim(r, 0.01)
		f, radius := lossFor(true, 1e-4, false)
		budget := dp.Budget{Epsilon: 0.05}
		spec := trainSpec{budget: budget, f: f, k: 5, b: 50, radius: radius, rand: r}
		spec.algo = "ours"
		a1, err := accuracyFor(train, test, spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.algo = "scs13"
		a2, err := accuracyFor(train, test, spec)
		if err != nil {
			t.Fatal(err)
		}
		oursSum += a1
		scsSum += a2
	}
	if oursSum/trials <= scsSum/trials {
		t.Errorf("ours (%.3f) should beat SCS13 (%.3f) at ε=0.05 on KDD-sim",
			oursSum/trials, scsSum/trials)
	}
}
