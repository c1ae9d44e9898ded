package data

import (
	"os"
	"path/filepath"
	"testing"
)

// libsvmSeeds is the seed corpus both LIBSVM fuzz targets start from.
var libsvmSeeds = []string{
	"1 1:0.5 3:0.25\n-1 2:1\n",
	"0 1:1\n1 2:2\n",
	"# comment\n\n1 1:1\n",
	"x 1:1\n",
	"1 0:1\n",
	"1 1:\n",
	"1 :5\n",
	"1 1:1e300 2:-1e300\n",
	"3.5 10:0.1\n",
	// Malformed feature indices: zero, negative, non-numeric, and an
	// index that overflows int. All must error, never panic.
	"1 -2:5\n",
	"1 x:1\n",
	"1 99999999999999999999:1\n",
	// A 13-digit index parses as an int but is past the column cap: the
	// loaders once sized a dense scratch by it and died out of memory.
	"1 9999999991999:-9\n",
	// Out-of-order and duplicate columns (both loaders accept; the
	// sparse loader canonicalizes through vec.SortedCopy).
	"1 5:1 2:1\n",
	"1 2:1 2:3\n",
	"-1 3:0.5 2:0.5 2:0.25\n",
	// Truncated lines: a dangling pair, a bare label, a file cut
	// mid-token, and CRLF endings.
	"1 1:1 2\n",
	"1\n-1 1:1\n",
	"1 1:0.5 3:0.2",
	"1 1:0.5\r\n-1 2:1\r\n",
	// Exotic-but-parseable values the scorer must survive.
	"1 1:NaN 2:Inf\n",
	"1e1 1:+0.5 2:-0\n",
}

// The LIBSVM parsers accept arbitrary user files and must never panic:
// malformed input is an error, not a crash. Both parsers must also
// agree on validity (they implement the same grammar).
func FuzzLoadLIBSVM(f *testing.F) {
	for _, s := range libsvmSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, content string) {
		dir := t.TempDir()
		path := filepath.Join(dir, "f.libsvm")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Skip()
		}
		dense, denseErr := LoadLIBSVM(path, 0)
		sparse, sparseErr := LoadLIBSVMSparse(path, 0)
		if (denseErr == nil) != (sparseErr == nil) {
			t.Fatalf("parsers disagree on validity: dense=%v sparse=%v", denseErr, sparseErr)
		}
		if denseErr != nil {
			return
		}
		if dense.Len() != sparse.Len() {
			t.Fatalf("row counts differ: %d vs %d", dense.Len(), sparse.Len())
		}
		if dense.Len() > 0 && dense.Dim() != sparse.Dim() {
			t.Fatalf("dims differ: %d vs %d", dense.Dim(), sparse.Dim())
		}
	})
}

// Stream generation must hold its invariants for any seed/shape.
func FuzzStreamInvariants(f *testing.F) {
	f.Add(int64(1), 10, 3)
	f.Add(int64(-5), 1, 1)
	f.Add(int64(99), 100, 20)
	f.Fuzz(func(t *testing.T, seed int64, m, d int) {
		if m < 1 || m > 200 || d < 1 || d > 50 {
			t.Skip()
		}
		s := NewStream(seed, m, d, 0.4, 0.05)
		for i := 0; i < m; i++ {
			x, y := s.At(i)
			var n float64
			for _, v := range x {
				n += v * v
			}
			if n > 1+1e-9 {
				t.Fatalf("row %d norm² = %v", i, n)
			}
			if y != 1 && y != -1 {
				t.Fatalf("label %v", y)
			}
		}
	})
}
