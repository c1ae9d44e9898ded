package main

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"strconv"

	"boltondp/internal/data"
	"boltondp/internal/store"
	"boltondp/internal/vec"
)

// The generators below are the benchmark's own, so that a change to a
// simulator in internal/data cannot move a baseline. Each is a pure
// function of its seed.

const (
	kddDim = 122 // KDDCup-99 after one-hot expansion
	kddNNZ = 12  // 8 continuous columns + one hot column per categorical block
)

// kddGen draws KDDSimSparse-shaped rows: 8 always-on continuous columns
// with class-shifted means, then one hot column per categorical block
// whose half is class-correlated (10% cross over), normalised into the
// unit ball. posRate is the label prior; moving it is the label drift
// online_windows ingests.
type kddGen struct {
	r       *rand.Rand
	posRate float64
	idx     [kddNNZ]int
	val     [kddNNZ]float64
}

var kddBlocks = [4][2]int{{8, 40}, {40, 70}, {70, 100}, {100, kddDim}}

func newKDDGen(seed int64, posRate float64) *kddGen {
	return &kddGen{r: rand.New(rand.NewSource(seed)), posRate: posRate}
}

// next returns the generator's buffers: copy what must outlive the call.
func (g *kddGen) next() (idx []int, val []float64, y float64) {
	y = -1
	if g.r.Float64() < g.posRate {
		y = 1
	}
	const continuous = 8
	var sq float64
	for j := 0; j < continuous; j++ {
		g.idx[j] = j
		g.val[j] = 0.3*y + g.r.NormFloat64()*0.25
		sq += g.val[j] * g.val[j]
	}
	for k, blk := range kddBlocks {
		half := (blk[1] - blk[0]) / 2
		off := half + g.r.Intn(blk[1]-blk[0]-half)
		if (y > 0) != (g.r.Float64() < 0.1) {
			off = g.r.Intn(half)
		}
		g.idx[continuous+k] = blk[0] + off
		g.val[continuous+k] = 1
		sq++
	}
	if n := math.Sqrt(sq); n > 1 {
		for j := range g.val {
			g.val[j] /= n
		}
	}
	return g.idx[:], g.val[:], y
}

// writeKDDLibSVM writes rows KDD-shaped rows as LIBSVM text (1-based
// indices, ±1 labels, shortest round-trip floats), synced to disk, and
// returns the byte count.
func writeKDDLibSVM(path string, seed int64, rows int, posRate float64) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	g := newKDDGen(seed, posRate)
	var line []byte
	var total int64
	for i := 0; i < rows; i++ {
		idx, val, y := g.next()
		line = line[:0]
		if y > 0 {
			line = append(line, "+1"...)
		} else {
			line = append(line, "-1"...)
		}
		for j := range idx {
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(idx[j]+1), 10)
			line = append(line, ':')
			line = strconv.AppendFloat(line, val[j], 'g', -1, 64)
		}
		line = append(line, '\n')
		total += int64(len(line))
		if _, err := bw.Write(line); err != nil {
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	// Synced, as the store's own writer does: otherwise the kernel
	// writes these pages back during a later, measured phase.
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return total, f.Close()
}

// kddRows materialises rows KDD-shaped rows in memory.
func kddRows(seed int64, rows int, posRate float64) *data.SparseDataset {
	ds := data.NewSparseDataset("kdd-bench", kddDim)
	g := newKDDGen(seed, posRate)
	for i := 0; i < rows; i++ {
		idx, val, y := g.next()
		appendRow(ds, idx, val, y)
	}
	return ds
}

func appendRow(ds *data.SparseDataset, idx []int, val []float64, y float64) {
	s, err := vec.NewSparse(idx, val)
	if err == nil {
		err = ds.Append(s, y)
	}
	if err != nil {
		panic(err) // the generators emit strictly increasing in-range indices
	}
}

const (
	wideDim = 10000
	wideNNZ = 50
)

// wideGen draws unit-norm rows with wideNNZ non-zeros, one per stratum
// of wideDim/wideNNZ columns. The column drawn in stratum 0 carries the
// label: each of its columns has a hidden sign (drawn from the workload
// seed, shared by train and held-out rows), its value is about 0.7 of
// the row's norm, and 5% of labels are flipped. The signal sits on few
// heavy coordinates so that a model perturbed for pure ε=1 at d=10000
// still scores well above chance: held-out accuracy then falls if the
// noise is ever mis-calibrated, where on diffuse data it would read 0.5
// either way.
type wideGen struct {
	r     *rand.Rand
	signs []float64
	idx   [wideNNZ]int
	val   [wideNNZ]float64
}

const wideStratum = wideDim / wideNNZ

func newWideGen(seed, rowSeed int64) *wideGen {
	tr := rand.New(rand.NewSource(seed))
	signs := make([]float64, wideStratum)
	for i := range signs {
		signs[i] = float64(2*tr.Intn(2) - 1)
	}
	return &wideGen{r: rand.New(rand.NewSource(rowSeed)), signs: signs}
}

func (g *wideGen) next() (idx []int, val []float64, y float64) {
	var sq float64
	for j := range g.idx {
		g.idx[j] = j*wideStratum + g.r.Intn(wideStratum)
		g.val[j] = g.r.NormFloat64()
		if j == 0 {
			g.val[j] = 7
		}
		sq += g.val[j] * g.val[j]
	}
	n := math.Sqrt(sq)
	for j := range g.val {
		g.val[j] /= n
	}
	y = g.signs[g.idx[0]]
	if g.r.Float64() < 0.05 {
		y = -y
	}
	return g.idx[:], g.val[:], y
}

// writeWideStore streams rows wide rows into a single-file store with
// the store's default options.
func writeWideStore(path string, seed int64, rows int) error {
	w, err := store.Create(path, store.Options{})
	if err != nil {
		return err
	}
	w.SetDim(wideDim)
	g := newWideGen(seed, seed+1)
	var s vec.Sparse
	for i := 0; i < rows; i++ {
		var y float64
		s.Idx, s.Val, y = g.next()
		if err := w.Append(&s, y); err != nil {
			w.Abort()
			return err
		}
	}
	return w.Close()
}

// wideRows materialises rows wide rows in memory from their own row seed.
func wideRows(seed, rowSeed int64, rows int) *data.SparseDataset {
	ds := data.NewSparseDataset("wide-bench", wideDim)
	g := newWideGen(seed, rowSeed)
	for i := 0; i < rows; i++ {
		idx, val, y := g.next()
		appendRow(ds, idx, val, y)
	}
	return ds
}
