// Package bismarck is a miniature reproduction of the in-RDBMS
// analytics architecture of Figure 1: a page-laid-out table store with
// a buffer pool (so tables can be larger than memory, as in the
// disk-based scalability experiment of Figure 2(b)), a one-shot shuffle
// standing in for "ORDER BY RANDOM()", a user-defined-aggregate (UDA)
// API with the initialize/transition/terminate contract of PostgreSQL,
// an SGD UDA, and a front-end driver playing the role of Bismarck's
// Python controller (issue one aggregate query per epoch, test
// convergence).
//
// The package preserves the two integration points the paper contrasts:
//
//   - (B) bolt-on output perturbation — the driver perturbs the final
//     model after all epochs; the UDA code is untouched.
//   - (C) white-box per-batch noise — SCS13/BST14 must inject noise
//     inside the transition function, via the SGD aggregate's
//     noiseInject hook.
package bismarck

import (
	"encoding/binary"
	"fmt"
	"math"
)

// PageSize is the fixed page size in bytes (PostgreSQL's default 8KB).
const PageSize = 8192

// rowBytes returns the serialized size of one row: d features plus the
// label, each a float64.
func rowBytes(d int) int { return (d + 1) * 8 }

// rowsPerPage returns how many rows of dimension d fit in one page.
func rowsPerPage(d int) int {
	n := PageSize / rowBytes(d)
	if n < 1 {
		// A row wider than a page spills across pages in real systems;
		// we instead require d ≤ 1022 (8192/8 − 2), plenty for the
		// paper's datasets (largest is MNIST at 784).
		panic(fmt.Sprintf("bismarck: dimension %d does not fit in a %dB page", d, PageSize))
	}
	return n
}

// encodeRow serializes (x, y) into buf at off.
func encodeRow(buf []byte, off int, x []float64, y float64) {
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(y))
}

// decodeRow deserializes a row of dimension d from buf at off into x,
// returning the label.
func decodeRow(buf []byte, off int, x []float64) float64 {
	for i := range x {
		x[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
}
