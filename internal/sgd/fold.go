package sgd

import (
	"boltondp/internal/loss"
	"boltondp/internal/vec"
)

// Fold sums per-row gradients ∇ℓ(w; (x, y)) = Deriv(⟨w,x⟩, y)·x + λw
// into a batch gradient, blockRows rows at a time: the one row-gradient
// sum of the dense kernel, the Bismarck SGD aggregate and BST14. Each
// feeds it a row at a time (Add) and flushes it at the batch end
// (Flush).
//
// Add copies x (a source may reuse the buffer it returned); every
// blockRows-th row folds the block into grad: four margins from one
// sweep over w (margins4), four Deriv calls and one fused sweep
// (fold4). Flush folds the one to three rows left a row at a time. The
// sum is bit-identical to one loss.Grad per row followed by
// vec.Axpy(grad, 1, g): each margin sums in vec.Dot's order, each
// grad[j] adds the rows in the order they came, and 1·g == g exactly.
//
// The caller must not change w between a row's Add and the fold that
// reads it, so it flushes before every update of w: a held row would
// otherwise take its margin at the new w.
type Fold struct {
	f   loss.Function
	blk [blockRows][]float64 // the held rows: copies of the caller's x
	y   [blockRows]float64
	n   int // rows held, < blockRows between calls

	// clip, when positive, scales each row's gradient down to this l2
	// norm before it is added: GradPerturb's per-example clip, which
	// only the dense kernel sets.
	clip float64
}

// blockRows is how many rows a Fold takes at once: their margins come
// from one sweep over w with independent accumulators, and their
// contributions go into grad in one sweep.
const blockRows = 4

// NewFold returns a Fold for loss f over rows of dimension d.
func NewFold(f loss.Function, d int) *Fold {
	fo := &Fold{f: f}
	fo.carve(make([]float64, blockRows*d), d)
	return fo
}

// carve takes the block rows from buf, which holds blockRows*d floats.
func (fo *Fold) carve(buf []float64, d int) {
	for r := range fo.blk {
		fo.blk[r] = buf[r*d : (r+1)*d : (r+1)*d]
	}
}

// Add adds the gradient of row (x, y) at w to grad, now or at a later
// Add or Flush.
func (fo *Fold) Add(grad, w, x []float64, y float64) {
	copy(fo.blk[fo.n], x)
	fo.y[fo.n] = y
	if fo.n++; fo.n == blockRows {
		fo.fold(grad, w)
	}
}

// Flush adds the gradients of the rows still held to grad.
func (fo *Fold) Flush(grad, w []float64) {
	if fo.n > 0 {
		fo.fold(grad, w)
	}
}

// fold adds the held rows' gradients to grad in order and empties the
// block. Under a clip each gradient c·x + λw is materialized in its
// block row first, as loss.Grad writes it.
func (fo *Fold) fold(grad, w []float64) {
	n, blk := fo.n, &fo.blk
	fo.n = 0
	var c [blockRows]float64
	if n == blockRows {
		c = margins4(w, blk)
	} else {
		for r := 0; r < n; r++ {
			c[r] = vec.Dot(w, blk[r])
		}
	}
	for r := 0; r < n; r++ {
		c[r] = fo.f.Deriv(c[r], fo.y[r])
	}
	lam := fo.f.Reg()
	if fo.clip == 0 {
		if n == blockRows {
			fold4(grad, w, lam, &c, blk)
		} else {
			for r := 0; r < n; r++ {
				foldRow(grad, w, lam, c[r], blk[r])
			}
		}
		return
	}
	for r := 0; r < n; r++ {
		g := blk[r][:len(w)]
		for j, wj := range w {
			g[j] = c[r]*g[j] + lam*wj
		}
		clipTo(g, fo.clip)
		vec.Axpy(grad, 1, g)
	}
}

// margins4 returns ⟨w, x_r⟩ for the four block rows from one sweep
// over w: four independent sums, each in vec.Dot's order.
func margins4(w []float64, x *[blockRows][]float64) (p [blockRows]float64) {
	x0, x1, x2, x3 := x[0][:len(w)], x[1][:len(w)], x[2][:len(w)], x[3][:len(w)]
	var p0, p1, p2, p3 float64
	for j, wj := range w {
		p0 += wj * x0[j]
		p1 += wj * x1[j]
		p2 += wj * x2[j]
		p3 += wj * x3[j]
	}
	return [blockRows]float64{p0, p1, p2, p3}
}

// fold4 adds the four gradients c_r·x_r + λw to grad in one sweep, in
// row order: each term rounds as loss.Grad writes it and each sum as
// vec.Axpy(grad, 1, ·) adds it.
func fold4(grad, w []float64, lam float64, c *[blockRows]float64, x *[blockRows][]float64) {
	grad = grad[:len(w)]
	x0, x1, x2, x3 := x[0][:len(w)], x[1][:len(w)], x[2][:len(w)], x[3][:len(w)]
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	for j, wj := range w {
		g := grad[j] + (c0*x0[j] + lam*wj)
		g += c1*x1[j] + lam*wj
		g += c2*x2[j] + lam*wj
		grad[j] = g + (c3*x3[j] + lam*wj)
	}
}

// foldRow is fold4 for one row.
func foldRow(grad, w []float64, lam, c float64, x []float64) {
	grad, x = grad[:len(w)], x[:len(w)]
	for j, wj := range w {
		grad[j] += c*x[j] + lam*wj
	}
}

// clipTo scales g down to l2 norm c when it exceeds it — the DP-SGD
// per-example clip, which caps each example's contribution to the batch
// sum at c regardless of the loss's own Lipschitz constant.
func clipTo(g []float64, c float64) {
	n := vec.Norm(g)
	if n > c {
		vec.Scale(g, c/n)
	}
}
