package data

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"boltondp/internal/vec"
)

func TestSyntheticBasics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := Synthetic(r, GenConfig{Name: "t", M: 500, D: 10, Classes: 2, Spread: 0.5})
	if d.Len() != 500 || d.Dim() != 10 || d.Classes != 2 {
		t.Fatalf("shape: %d x %d, classes %d", d.Len(), d.Dim(), d.Classes)
	}
	for i := 0; i < d.Len(); i++ {
		x, y := d.At(i)
		if n := vec.Norm(x); n > 1+1e-12 {
			t.Fatalf("row %d has norm %v > 1", i, n)
		}
		if y != 1 && y != -1 {
			t.Fatalf("binary label %v", y)
		}
	}
}

func TestSyntheticMulticlassLabels(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	d := Synthetic(r, GenConfig{Name: "t", M: 1000, D: 5, Classes: 4, Spread: 0.5})
	counts := d.ClassCounts()
	if len(counts) != 4 {
		t.Fatalf("expected 4 classes, got %v", counts)
	}
	for c, n := range counts {
		if c < 0 || c > 3 || c != math.Trunc(c) {
			t.Errorf("bad class label %v", c)
		}
		if n < 100 {
			t.Errorf("class %v has only %d examples (imbalanced generator?)", c, n)
		}
	}
}

func TestSyntheticPanics(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, cfg := range []GenConfig{
		{M: 0, D: 1, Classes: 2},
		{M: 1, D: 0, Classes: 2},
		{M: 1, D: 1, Classes: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Synthetic(%+v) did not panic", cfg)
				}
			}()
			Synthetic(r, cfg)
		}()
	}
}

func TestSplit(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	d := Synthetic(r, GenConfig{Name: "t", M: 1000, D: 3, Classes: 2, Spread: 0.5})
	train, test := d.Split(r, 0.8)
	if train.Len() != 800 || test.Len() != 200 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	if train.Classes != 2 || test.Classes != 2 {
		t.Error("Classes not propagated")
	}
	// Disjoint and exhaustive: total mass preserved.
	if train.Len()+test.Len() != d.Len() {
		t.Error("split lost examples")
	}
}

func TestSplitPanics(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	d := Synthetic(r, GenConfig{Name: "t", M: 10, D: 2, Classes: 2, Spread: 0.5})
	for _, frac := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Split(%v) did not panic", frac)
				}
			}()
			d.Split(r, frac)
		}()
	}
}

func TestPortions(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	d := Synthetic(r, GenConfig{Name: "t", M: 103, D: 2, Classes: 2, Spread: 0.5})
	parts := d.Portions(r, 4)
	if len(parts) != 4 {
		t.Fatalf("got %d portions", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	if total != 103 {
		t.Errorf("portions cover %d of 103 rows", total)
	}
	// First three equal size, last takes the remainder.
	if parts[0].Len() != 25 || parts[3].Len() != 28 {
		t.Errorf("portion sizes: %d,%d,%d,%d", parts[0].Len(), parts[1].Len(), parts[2].Len(), parts[3].Len())
	}
}

func TestSimulatorsMatchTable3Shapes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const scale = 0.01
	mtr, mte := MNISTSim(r, scale)
	if mtr.Dim() != 784 || mtr.Classes != 10 || mte.Classes != 10 {
		t.Errorf("mnist sim: d=%d classes=%d", mtr.Dim(), mtr.Classes)
	}
	if ratio := float64(mtr.Len()) / float64(mtr.Len()+mte.Len()); math.Abs(ratio-6.0/7) > 0.01 {
		t.Errorf("mnist train ratio %v, want ~6/7", ratio)
	}
	ptr, pte := ProteinSim(r, scale)
	if ptr.Dim() != 74 || ptr.Classes != 2 {
		t.Errorf("protein sim: d=%d classes=%d", ptr.Dim(), ptr.Classes)
	}
	if math.Abs(float64(ptr.Len())-float64(pte.Len())) > 1 {
		t.Errorf("protein halves: %d vs %d", ptr.Len(), pte.Len())
	}
	ctr, _ := CovtypeSim(r, scale)
	if ctr.Dim() != 54 {
		t.Errorf("covtype d=%d", ctr.Dim())
	}
	htr, _ := HIGGSSim(r, 0.001)
	if htr.Dim() != 28 {
		t.Errorf("higgs d=%d", htr.Dim())
	}
	ktr, _ := KDDSim(r, scale)
	if ktr.Dim() != 41 {
		t.Errorf("kdd d=%d", ktr.Dim())
	}
	for _, d := range []*Dataset{mtr, ptr, ctr, htr, ktr} {
		if d.MaxNorm() > 1+1e-12 {
			t.Errorf("%s: max norm %v > 1", d.Name, d.MaxNorm())
		}
	}
}

func TestScaleSimDeterministic(t *testing.T) {
	a := ScaleSim(42, 100, 5)
	b := ScaleSim(42, 100, 5)
	for i := range a.X {
		if !vec.Equal(a.X[i], b.X[i], 0) || a.Y[i] != b.Y[i] {
			t.Fatal("ScaleSim is not deterministic")
		}
	}
}

func TestLIBSVMRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rt.libsvm")
	r := rand.New(rand.NewSource(8))
	d := Synthetic(r, GenConfig{Name: "t", M: 50, D: 6, Classes: 2, Spread: 0.5})
	var text strings.Builder
	for i, x := range d.X {
		fmt.Fprintf(&text, "%g", d.Y[i])
		for j, v := range x {
			if v != 0 {
				fmt.Fprintf(&text, " %d:%g", j+1, v)
			}
		}
		text.WriteByte('\n')
	}
	if err := os.WriteFile(path, []byte(text.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLIBSVM(path, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.Dim() != d.Dim() {
		t.Fatalf("round trip shape %dx%d, want %dx%d", got.Len(), got.Dim(), d.Len(), d.Dim())
	}
	for i := range d.X {
		if !vec.Equal(got.X[i], d.X[i], 1e-9) {
			t.Fatalf("row %d: %v != %v", i, got.X[i], d.X[i])
		}
		if got.Y[i] != d.Y[i] {
			t.Fatalf("label %d: %v != %v", i, got.Y[i], d.Y[i])
		}
	}
}

func TestLoadLIBSVMZeroOneLabels(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "zo.libsvm")
	content := "0 1:0.5\n1 2:0.25\n\n# comment\n0 1:0.1 3:0.2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := LoadLIBSVM(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("len = %d", d.Len())
	}
	if d.Dim() != 3 {
		t.Fatalf("dim = %d (inferred from max index)", d.Dim())
	}
	if d.Y[0] != -1 || d.Y[1] != 1 || d.Y[2] != -1 {
		t.Errorf("0/1 labels not remapped: %v", d.Y)
	}
}

func TestLoadLIBSVMErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string]string{
		"bad label":   "x 1:0.5\n",
		"bad feature": "1 nope\n",
		"bad index":   "1 0:0.5\n",
		"bad value":   "1 1:abc\n",
		"empty":       "\n\n",
		// Labels without any feature would produce a dimension-0
		// dataset (found by FuzzLoadLIBSVM).
		"no features": "0\n1\n",
	}
	for name, content := range cases {
		if _, err := LoadLIBSVM(write(name+".libsvm", content), 0); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := LoadLIBSVM(filepath.Join(dir, "missing.libsvm"), 0); err == nil {
		t.Error("missing file: expected error")
	}
}

func TestNormalizeAndMaxNorm(t *testing.T) {
	d := &Dataset{
		Name:    "t",
		X:       [][]float64{{3, 4}, {0.1, 0}},
		Y:       []float64{1, -1},
		Classes: 2,
	}
	if d.MaxNorm() != 5 {
		t.Errorf("MaxNorm = %v", d.MaxNorm())
	}
	d.Normalize()
	if math.Abs(d.MaxNorm()-1) > 1e-12 {
		t.Errorf("after Normalize MaxNorm = %v", d.MaxNorm())
	}
	// Small rows untouched.
	if !vec.Equal(d.X[1], []float64{0.1, 0}, 0) {
		t.Errorf("interior row rescaled: %v", d.X[1])
	}
}

// Property: generated rows always inside the unit ball, labels valid,
// across random generator configurations.
func TestSyntheticInvariantsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		classes := 2 + r.Intn(4)
		d := Synthetic(r, GenConfig{
			Name: "p", M: 1 + r.Intn(100), D: 1 + r.Intn(20),
			Classes: classes, Spread: r.Float64() * 2, Flip: r.Float64() * 0.3,
		})
		for i := 0; i < d.Len(); i++ {
			x, y := d.At(i)
			if vec.Norm(x) > 1+1e-12 {
				return false
			}
			if classes == 2 {
				if y != 1 && y != -1 {
					return false
				}
			} else if y < 0 || y >= float64(classes) || y != math.Trunc(y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
