package sgd

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"boltondp/internal/loss"
)

// updateGolden regenerates the committed output of every Run cell:
//
//	go test ./internal/sgd -run TestRunGolden -update-golden
//
// Only do this for a deliberate change of the update arithmetic or of
// Rand consumption. A refactor of the epoch loop or of a kernel must
// pass against the file as committed — it pins each kernel to its own
// past output, where the sparse-vs-dense walls only compare the two
// kernels to each other at 1e-12.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/run_golden.json")

const runGoldenFile = "run_golden.json"

// goldenCell is one recorded run: the bit patterns of W and WAvg, the
// bookkeeping, and the next draw of Config.Rand after the run (which
// pins permutation consumption, the draws a private caller's noise
// follows). Risks holds the Progress values of the cells that set it.
type goldenCell struct {
	Name    string   `json:"name"`
	W       []string `json:"w"`
	WAvg    []string `json:"wavg,omitempty"`
	Updates int      `json:"updates"`
	Passes  int      `json:"passes"`
	Next    int64    `json:"next"`
	Risks   []string `json:"risks,omitempty"`
}

func floatBits(v []float64) []string {
	if v == nil {
		return nil
	}
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprintf("%016x", math.Float64bits(x))
	}
	return out
}

// fusesMultiplyAdd reports whether this build fuses x*y+z into one
// rounding, as the compiler does on arm64, loong64, ppc64, riscv64 and
// s390x (never on amd64). The committed bits are those of a build that
// does not.
//
//go:noinline
func fusesMultiplyAdd(x, y, z float64) bool { return x*y+z != 0 }

// goldenRuns is the recorded grid: both sources × b ∈ {1, 7, m} (m = 30
// is not divisible by 7, so the final batch merges a remainder) ×
// {last, Average, AverageTail} × {sampled, given Perm, FreshPerm,
// NoPerm} × T0 ∈ {0, 5}, then W0, Progress, GradNoise, the
// three GradPerturb modes, a flat-region loss and KernelWorkers 4 on
// each source. The loss is Huber, which calls no transcendental
// function (math.Exp's amd64 assembly takes a fused path on some CPUs
// and not on others), and the step c/√t makes every T0 count.
func goldenRuns() []struct {
	name string
	s    Samples
	cfg  func() Config
} {
	const m, d, passes = 30, 8, 3
	sp, de := randomSparseSamples(rand.New(rand.NewSource(29)), m, d, 3)
	f := loss.NewHuber(0.1, 1e-2, 0)
	perm := rand.New(rand.NewSource(77)).Perm(m)
	w0 := make([]float64, d)
	for i := range w0 {
		w0[i] = 0.05 * float64(i%3-1)
	}
	base := func(b int) Config {
		return Config{
			Loss: f, Step: InvSqrtT(0.5), Passes: passes, Batch: b,
			Radius: 0.5, Rand: rand.New(rand.NewSource(101)),
		}
	}
	var runs []struct {
		name string
		s    Samples
		cfg  func() Config
	}
	add := func(name string, s Samples, cfg func() Config) {
		runs = append(runs, struct {
			name string
			s    Samples
			cfg  func() Config
		}{name, s, cfg})
	}
	for _, src := range []struct {
		name string
		s    Samples
	}{{"dense", de}, {"sparse", sp}} {
		for _, b := range []int{1, 7, m} {
			for _, avg := range []string{"last", "avg", "tail"} {
				for _, order := range []string{"sampled", "perm", "fresh", "noperm"} {
					for _, t0 := range []int{0, 5} {
						add(fmt.Sprintf("%s/b=%d/%s/%s/t0=%d", src.name, b, avg, order, t0), src.s, func() Config {
							c := base(b)
							c.T0 = t0
							c.Average = avg == "avg"
							c.AverageTail = avg == "tail"
							switch order {
							case "perm":
								c.Perm = perm
							case "fresh":
								c.FreshPerm = true
							case "noperm":
								c.NoPerm = true
							}
							return c
						})
					}
				}
			}
		}
		add(src.name+"/w0", src.s, func() Config {
			c := base(7)
			c.W0, c.Average = w0, true
			return c
		})
		// The name is the committed cell's; the run is 11 passes with
		// Progress set.
		add(src.name+"/tol-progress", src.s, func() Config {
			c := base(7)
			c.Passes, c.Radius = 11, 0
			c.Progress = func(int, float64) {}
			return c
		})
		add(src.name+"/gradnoise", src.s, func() Config {
			c := base(7)
			c.Average = true
			c.GradNoise = func(t int, g []float64) {
				for i := range g {
					g[i] += 1e-3 * float64((t+i)%5-2)
				}
			}
			return c
		})
		add(src.name+"/gradperturb-clip", src.s, func() Config {
			c := base(7)
			c.GradPerturb = &GradPerturb{Clip: 0.05}
			return c
		})
		add(src.name+"/gradperturb-sigma", src.s, func() Config {
			c := base(7)
			c.FreshPerm = true
			c.GradPerturb = &GradPerturb{Clip: 0.05, Sigma: 0.3, Rand: rand.New(rand.NewSource(103))}
			return c
		})
		add(src.name+"/gradperturb-poisson", src.s, func() Config {
			c := base(7)
			c.AverageTail = true
			c.GradPerturb = &GradPerturb{Clip: 0.05, Sigma: 0.3, Rand: rand.New(rand.NewSource(107)), Poisson: true}
			return c
		})
		add(src.name+"/huber-flat", src.s, func() Config {
			c := base(7)
			c.Loss, c.Step, c.Radius, c.FreshPerm = loss.NewHuber(0.1, 0, 0), Constant(0.3), 0, true
			return c
		})
		for _, b := range []int{7, m} {
			add(fmt.Sprintf("%s/kw4/b=%d", src.name, b), src.s, func() Config {
				c := base(b)
				c.KernelWorkers, c.Average, c.FreshPerm = 4, true, true
				return c
			})
		}
	}
	return runs
}

// TestRunGolden is the bit-identity wall of Run: every cell of
// goldenRuns must reproduce the committed W, WAvg, Updates, Passes and
// next Rand draw exactly. It skips on a build that fuses multiply-adds,
// where the same source rounds differently.
func TestRunGolden(t *testing.T) {
	if fusesMultiplyAdd(1+0x1p-30, 1-0x1p-30, -1) {
		t.Skip("this build fuses multiply-adds; the committed bits are of one that does not")
	}
	var got []goldenCell
	for _, run := range goldenRuns() {
		cfg := run.cfg()
		var risks []float64
		if cfg.Progress != nil {
			cfg.Progress = func(_ int, r float64) { risks = append(risks, r) }
		}
		res, err := Run(run.s, cfg)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		got = append(got, goldenCell{
			Name: run.name, W: floatBits(res.W), WAvg: floatBits(res.WAvg),
			Updates: res.Updates, Passes: res.Passes, Next: cfg.Rand.Int63(), Risks: floatBits(risks),
		})
	}
	path := filepath.Join("testdata", runGoldenFile)
	if *updateGolden {
		lines := make([]string, len(got))
		for i, c := range got {
			b, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			lines[i] = string(b)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("[\n"+strings.Join(lines, ",\n")+"\n]\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cells)", path, len(got))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	var want []goldenCell
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d cells, the grid has %d", path, len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name {
			t.Fatalf("cell %d is %q in the grid, %q in %s", i, g.Name, w.Name, path)
		}
		for _, f := range []struct {
			field     string
			got, want any
		}{
			{"W", g.W, w.W}, {"WAvg", g.WAvg, w.WAvg}, {"Updates", g.Updates, w.Updates},
			{"Passes", g.Passes, w.Passes}, {"next Rand draw", g.Next, w.Next}, {"Progress risks", g.Risks, w.Risks},
		} {
			if fmt.Sprint(f.got) != fmt.Sprint(f.want) {
				t.Errorf("%s: %s is %v, committed %v", g.Name, f.field, f.got, f.want)
			}
		}
	}
}
