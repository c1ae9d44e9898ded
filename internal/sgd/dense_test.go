package sgd

import (
	"fmt"
	"math/rand"
	"testing"

	"boltondp/internal/loss"
	"boltondp/internal/vec"
)

// TestDenseBlockMatchesGradAxpy drives one sequential dense update
// against the per-row loop the Fold replaced — loss.Grad, clip,
// vec.Axpy(grad, 1, g), then scale, step and project — for every batch
// size from 1 to 9 (full blocks, tails and both together), with and
// without clipping, under a loss with and without λ and one whose
// Deriv calls math.Exp. The source's At reuses one buffer, so a Fold
// that kept the returned slices fails here.
func TestDenseBlockMatchesGradAxpy(t *testing.T) {
	const m, d, eta, radius = 40, 13, 0.3, 2.0
	r := rand.New(rand.NewSource(21))
	sp, _ := randomSparseSamples(r, m, d, 6)
	perm := rand.New(rand.NewSource(22)).Perm(m)
	w0 := make([]float64, d)
	for j := range w0 {
		w0[j] = r.NormFloat64() * 0.4
	}
	losses := []loss.Function{
		loss.NewLogistic(1e-2, 0),
		loss.NewLogistic(0, 0),
		loss.NewHuber(0.1, 1e-2, 0),
		loss.NewLeastSquares(1e-1, 0),
	}
	for li, f := range losses {
		for _, clip := range []float64{0, 0.05} {
			for b := 1; b <= 9; b++ {
				name := fmt.Sprintf("loss%d/clip=%g/b=%d", li, clip, b)
				cfg := Config{Loss: f, Step: Constant(eta), Radius: radius, W0: w0}
				if clip > 0 {
					cfg.GradPerturb = &GradPerturb{Clip: clip}
				}
				k := newDenseState(sp, &cfg, b, b)
				start := 5
				k.update(perm, start, start+b, 1)

				want, grad, g := vec.Copy(w0), make([]float64, d), make([]float64, d)
				for i := start; i < start+b; i++ {
					x, y := sp.At(perm[i])
					loss.Grad(f, g, want, x, y)
					if clip > 0 {
						clipTo(g, clip)
					}
					vec.Axpy(grad, 1, g)
				}
				vec.Scale(grad, 1/float64(b))
				vec.Axpy(want, -eta, grad)
				vec.ProjectBall(want, radius)
				if !bitsEqual(k.w, want) {
					t.Errorf("%s: block update differs from the per-row loop: max|Δ| = %g", name, maxAbsDiff(k.w, want))
				}
			}
		}
	}
}

// TestDenseUpdateAllocs pins the sequential dense update at 0
// allocations in the steady state: full blocks (b = 16), a tail
// (b = 7) and clip-only gradient perturbation.
func TestDenseUpdateAllocs(t *testing.T) {
	const m, d = 512, 54
	s := separable(rand.New(rand.NewSource(4)), m, d)
	cases := []struct {
		name string
		b    int
		gp   *GradPerturb
	}{
		{"b=16", 16, nil},
		{"b=7", 7, nil},
		{"clip/b=16", 16, &GradPerturb{Clip: 0.5}},
	}
	for _, c := range cases {
		cfg := Config{Loss: loss.NewLogistic(1e-2, 0), Step: Constant(0.05), Radius: 100, GradPerturb: c.gp}
		k := newDenseState(s, &cfg, c.b, c.b)
		start, t0 := 0, 0
		allocs := testing.AllocsPerRun(500, func() {
			t0++
			k.update(nil, start, start+c.b, t0)
			start = (start + c.b) % (m - c.b)
		})
		k.close()
		if allocs > 0 {
			t.Errorf("%s: steady-state dense update allocates: %v allocs/op", c.name, allocs)
		}
	}
}
