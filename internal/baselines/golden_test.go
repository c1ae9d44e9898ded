package baselines

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/loss"
)

// updateGolden regenerates the committed BST14 models:
//
//	go test ./internal/baselines -run TestBST14Golden -update-golden
//
// Only do this for a deliberate change of BST14's arithmetic or of its
// draws; a refactor must pass against the file as committed.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/bst14_golden.json")

// bst14Golden is the committed file: the bits of math.Exp over a fixed
// grid (see expProbe), then one recorded model per cell.
type bst14Golden struct {
	ExpProbe string      `json:"exp_probe"`
	Cells    []bst14Cell `json:"cells"`
}

type bst14Cell struct {
	Name       string   `json:"name"`
	W          []string `json:"w"`
	Updates    int      `json:"updates"`
	NoiseDraws int      `json:"noise_draws"`
}

// fusesMultiplyAdd reports whether this build fuses x*y+z into one
// rounding, as the compiler does on arm64, loong64, ppc64, riscv64 and
// s390x (never on amd64). The committed bits are those of a build that
// does not.
//
//go:noinline
func fusesMultiplyAdd(x, y, z float64) bool { return x*y+z != 0 }

// expProbe hashes the bits of math.Exp over the logistic loss's range.
// math.Exp's amd64 assembly takes a fused-multiply-add path on CPUs
// that have one and rounds differently on those that do not, so a
// logistic cell is comparable only where the probe matches the
// committed one.
func expProbe() string {
	h := fnv.New64a()
	var b [8]byte
	for i := -3000; i <= 3000; i++ {
		bits := math.Float64bits(math.Exp(float64(i) / 100))
		for k := range b {
			b[k] = byte(bits >> (8 * k))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestBST14Golden is BST14's bit-identity wall: Algorithm 4 (logistic,
// Huber) and Algorithm 5 (logistic with λ > 0), each at b ∈ {1, 7, 10}
// on the simulated Covertype set, must reproduce the committed W,
// update count and noise-draw count exactly. The with-replacement
// sampling, the noise and the step all feed W, so a change to any of
// them, or to the order the batch gradient is summed in, shows here.
func TestBST14Golden(t *testing.T) {
	if fusesMultiplyAdd(1+0x1p-30, 1-0x1p-30, -1) {
		t.Skip("this build fuses multiply-adds; the committed bits are of one that does not")
	}
	train, _ := data.CovtypeSim(rand.New(rand.NewSource(3)), 0.01)
	got := bst14Golden{ExpProbe: expProbe()}
	for _, f := range []loss.Function{
		loss.NewLogistic(0, 0), loss.NewLogistic(1e-3, 0), loss.NewHuber(0.1, 0, 0),
	} {
		for _, b := range []int{1, 7, 10} {
			res, err := BST14(train, f, Options{
				Budget: dp.Budget{Epsilon: 1, Delta: 1e-5},
				Passes: 2, Batch: b, Radius: 10, Rand: rand.New(rand.NewSource(5)),
			})
			if err != nil {
				t.Fatal(err)
			}
			w := make([]string, len(res.W))
			for j, v := range res.W {
				w[j] = fmt.Sprintf("%016x", math.Float64bits(v))
			}
			got.Cells = append(got.Cells, bst14Cell{
				Name: fmt.Sprintf("%s/b=%d", f.Name(), b), W: w, Updates: res.Updates, NoiseDraws: res.NoiseDraws,
			})
		}
	}
	path := filepath.Join("testdata", "bst14_golden.json")
	if *updateGolden {
		lines := make([]string, len(got.Cells))
		for i, c := range got.Cells {
			b, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			lines[i] = string(b)
		}
		out := fmt.Sprintf("{\"exp_probe\": %q, \"cells\": [\n%s\n]}\n", got.ExpProbe, strings.Join(lines, ",\n"))
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cells)", path, len(got.Cells))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	var want bst14Golden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Cells) != len(got.Cells) {
		t.Fatalf("%s has %d cells, the grid has %d", path, len(want.Cells), len(got.Cells))
	}
	for i, g := range got.Cells {
		w := want.Cells[i]
		if g.Name != w.Name {
			t.Fatalf("cell %d is %q in the grid, %q in %s", i, g.Name, w.Name, path)
		}
		if strings.HasPrefix(g.Name, "logistic") && got.ExpProbe != want.ExpProbe {
			t.Logf("%s: skipped, this CPU's math.Exp rounds differently from the committed one", g.Name)
			continue
		}
		if fmt.Sprint(g.W) != fmt.Sprint(w.W) || g.Updates != w.Updates || g.NoiseDraws != w.NoiseDraws {
			t.Errorf("%s: W, Updates or NoiseDraws differ from the committed cell (updates %d vs %d, draws %d vs %d)",
				g.Name, g.Updates, w.Updates, g.NoiseDraws, w.NoiseDraws)
		}
	}
}
