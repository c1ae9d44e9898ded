package data

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"boltondp/internal/vec"
)

// scanRow is one fn call, copied out of the borrowed row, bit for bit.
type scanRow struct {
	idx []int
	val []uint64
	y   uint64
}

type scanFunc func(path string, fn func(row *vec.Sparse, y float64) error) error

func collectRows(scan scanFunc, path string) ([]scanRow, error) {
	var rows []scanRow
	err := scan(path, func(row *vec.Sparse, y float64) error {
		r := scanRow{idx: append([]int(nil), row.Idx...), y: math.Float64bits(y)}
		for _, v := range row.Val {
			r.val = append(r.val, math.Float64bits(v))
		}
		if len(row.Idx) != len(row.Val) {
			return fmt.Errorf("row %d: %d indices, %d values", len(rows), len(row.Idx), len(row.Val))
		}
		rows = append(rows, r)
		return nil
	})
	return rows, err
}

func sameRow(a, b scanRow) bool {
	if a.y != b.y || len(a.idx) != len(b.idx) {
		return false
	}
	for k := range a.idx {
		if a.idx[k] != b.idx[k] || a.val[k] != b.val[k] {
			return false
		}
	}
	return true
}

// asciiGrammar reports whether every byte ≥ 0x80 of content sits in a
// '#' comment line — the inputs on which ScanLIBSVM and the oracle must
// agree exactly. Elsewhere the oracle splits on Unicode white space and
// ScanLIBSVM does not.
func asciiGrammar(content string) bool {
	for _, ln := range strings.Split(content, "\n") {
		if strings.HasPrefix(strings.TrimLeft(ln, " \t\v\f\r"), "#") {
			continue
		}
		for i := 0; i < len(ln); i++ {
			if ln[i] >= 0x80 {
				return false
			}
		}
	}
	return true
}

// diffScan runs content through ScanLIBSVM and the oracle. On the ASCII
// grammar: the same rows to the bit, the same number of fn calls before
// an error, the same error string. With a byte ≥ 0x80 outside a comment
// ScanLIBSVM may reject a line the oracle accepted, but never accepts
// what the oracle rejected and never delivers a different row.
func diffScan(t *testing.T, content string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f.libsvm")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	want, wantErr := collectRows(scanLIBSVMOracle, path)
	got, gotErr := collectRows(ScanLIBSVM, path)
	exact := asciiGrammar(content)
	if len(got) > len(want) || (exact || gotErr == nil) && len(got) != len(want) {
		t.Fatalf("fn calls: got %d (err %v), oracle %d (err %v)", len(got), gotErr, len(want), wantErr)
	}
	for i := range got {
		if !sameRow(got[i], want[i]) {
			t.Fatalf("row %d: got %+v, oracle %+v", i, got[i], want[i])
		}
	}
	switch {
	case exact && fmt.Sprint(gotErr) != fmt.Sprint(wantErr):
		t.Fatalf("error: got %v, oracle %v", gotErr, wantErr)
	case wantErr != nil && gotErr == nil:
		t.Fatalf("accepted what the oracle rejected with %v", wantErr)
	}
}

// padLines is n bytes of well-formed lines ending in a newline.
func padLines(n int) string {
	const row = "-1 2:0.5\n"
	s := strings.Repeat(row, n/len(row))
	switch r := n % len(row); r {
	case 0:
	case 1:
		s += "\n"
	default:
		s += "#" + strings.Repeat("x", r-2) + "\n"
	}
	return s
}

func FuzzScanLIBSVMDiff(f *testing.F) {
	for _, s := range libsvmSeeds {
		f.Add(s)
	}
	f.Add("1 +3:1 -2:1\n")
	f.Add("1 1:0x1p-2\n")
	f.Add("1 1:1:2\n")
	f.Add("1 99999999999999999999:1\n")
	f.Add("1 007:1 0000000008:2 00000000009:3\n")
	f.Add("1 1:1\n-1 2:1\n")
	f.Add(" # not a comment here\n1 1:1\n")
	f.Add("# café\n1 1:1 \n")
	f.Add(" \t1 \v3:1\f 2:2 \r\n\x00 1:1\n")
	// Block edges (libsvmBlockBytes = 64 KiB): a line straddling one, a
	// CRLF split across it, a blank/comment run across it, no trailing
	// newline, a line longer than a block, an error past the edge.
	const edge = libsvmBlockBytes
	f.Add(padLines(edge-7) + "1 1:0.25 3:0.125\n-1 1:1\n")
	f.Add(padLines(edge-8) + "1 1:0.5\r\n-1 2:1\r\n")
	f.Add(padLines(edge-3) + "\n\n# c\n \n\n1 1:1\n")
	f.Add(padLines(edge) + "1 1:1")
	f.Add(padLines(edge) + padLines(edge-2) + "1 2:1 2:3")
	f.Add("1" + strings.Repeat(" 5:0.5 3:1", edge/8) + "\n-1 1:1\n")
	f.Add(padLines(edge+100) + "1 1:x\n1 1:1\n")
	f.Fuzz(diffScan)
}

// TestScanLIBSVMDiffGenerated is the differential wall on a file of
// several blocks mixing everything the grammar allows, so that blocks
// parsed out of order must still emit in order.
func TestScanLIBSVMDiffGenerated(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	seps := []string{" ", "  ", "\t", " \v", "\f "}
	var sb strings.Builder
	for sb.Len() < 5*libsvmBlockBytes {
		switch r.Intn(12) {
		case 0:
			sb.WriteString("\n")
			continue
		case 1:
			sb.WriteString("  # comment 1:x\r\n")
			continue
		}
		fmt.Fprintf(&sb, "%v", []any{1, -1, 0, 2.5, "+1", "1e0"}[r.Intn(6)])
		ix := 0
		for k, nnz := 0, r.Intn(40); k < nnz; k++ {
			switch r.Intn(20) {
			case 0: // out of order or a repeat
				ix = 1 + r.Intn(ix+1)
			default:
				ix += 1 + r.Intn(5)
			}
			fmt.Fprintf(&sb, "%s%d:%v", seps[r.Intn(len(seps))], ix, r.NormFloat64())
		}
		sb.WriteString([]string{"\n", "\r\n", " \n"}[r.Intn(3)])
	}
	diffScan(t, sb.String())
}

// TestScanLIBSVMErrorPrefix: wherever the first bad line sits — first,
// a middle or the last block — fn gets exactly the rows of the lines
// before it, and the message names the absolute line.
func TestScanLIBSVMErrorPrefix(t *testing.T) {
	const lines = 12000 // ~30 bytes each: five to six blocks
	dir := t.TempDir()
	for _, bad := range []int{3, lines / 2, lines - 1} {
		var sb strings.Builder
		for i := 1; i <= lines; i++ {
			if i == bad {
				sb.WriteString("1 1:0.5 2:x\n")
				continue
			}
			fmt.Fprintf(&sb, "%d 1:0.5 7:0.25 9:0.125\n", i)
		}
		if sb.Len() < 4*libsvmBlockBytes {
			t.Fatalf("file is %d bytes, want at least four blocks", sb.Len())
		}
		path := filepath.Join(dir, fmt.Sprintf("bad%d.libsvm", bad))
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		next := 1
		err := ScanLIBSVM(path, func(row *vec.Sparse, y float64) error {
			if y != float64(next) || len(row.Idx) != 3 || row.Idx[2] != 8 || row.Val[2] != 0.125 {
				t.Fatalf("bad line %d: call %d got y=%v row=%+v", bad, next, y, row)
			}
			next++
			return nil
		})
		want := fmt.Sprintf("data: %s:%d: bad value %q", path, bad, "2:x")
		if err == nil || err.Error() != want {
			t.Fatalf("bad line %d: err = %v, want %s", bad, err, want)
		}
		if next != bad {
			t.Fatalf("bad line %d: fn saw %d rows, want %d", bad, next-1, bad-1)
		}
	}
}

// waitGoroutines waits for the goroutine count to come back to base: a
// goroutine that has signalled its WaitGroup may still be on its way out.
func waitGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() != base; i++ {
		if i == 2000 {
			t.Fatalf("%s: %d goroutines, started with %d", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScanLIBSVMNoLeak: however a scan ends, its goroutines end with it.
func TestScanLIBSVMNoLeak(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.libsvm")
	bad := filepath.Join(dir, "bad.libsvm")
	half := padLines(3 * libsvmBlockBytes)
	if err := os.WriteFile(good, []byte(half+half), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(half+"1 0:1\n"+half), 0o644); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	nop := func(*vec.Sparse, float64) error { return nil }

	if err := ScanLIBSVM(good, nop); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, "normal EOF", base)

	if err := ScanLIBSVM(bad, nop); err == nil || !strings.Contains(err.Error(), "bad index") {
		t.Fatalf("err = %v, want a bad index", err)
	}
	waitGoroutines(t, "parse error", base)

	stop := errors.New("enough")
	n := 0
	err := ScanLIBSVM(good, func(*vec.Sparse, float64) error {
		if n++; n == 1000 {
			return stop
		}
		return nil
	})
	if err != stop || n != 1000 {
		t.Fatalf("err = %v after %d calls, want fn's own error at call 1000", err, n)
	}
	waitGoroutines(t, "fn error", base)
}

// TestScanLIBSVMAllocs: on rows that arrive sorted the scanner's
// allocations are its blocks, not its rows — 4× the rows, same count.
func TestScanLIBSVMAllocs(t *testing.T) {
	dir := t.TempDir()
	allocs := func(rows int) float64 {
		var sb strings.Builder
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&sb, "%d 1:0.5 3:0.25 10:%v\n", 2*(i%2)-1, 1/float64(i+1))
		}
		path := filepath.Join(dir, fmt.Sprintf("rows%d.libsvm", rows))
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			n := 0
			if err := ScanLIBSVM(path, func(*vec.Sparse, float64) error { n++; return nil }); err != nil || n != rows {
				t.Fatalf("%d rows, err %v; want %d", n, err, rows)
			}
		})
	}
	small, large := allocs(10000), allocs(40000)
	if large > small+50 || small > 400 {
		t.Fatalf("allocations grow with the file: %v for 10k rows, %v for 40k", small, large)
	}
}

// TestScanLIBSVMLongLine: a line at the 16 MiB limit is an error that
// names the file and the line, after the rows before it.
func TestScanLIBSVMLongLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "long.libsvm")
	long := "# " + strings.Repeat("x", libsvmMaxLine-2)
	for _, tc := range []struct {
		content string
		rows    int
		err     string
	}{
		{"1 1:1\n-1 2:1\n" + long + "\n1 1:1\n", 2, fmt.Sprintf("data: %s:3: line longer than 16 MiB", path)},
		{"1 1:1\n" + long, 1, fmt.Sprintf("data: %s:2: line longer than 16 MiB", path)},
		{"1 1:1\n" + long[:libsvmMaxLine-1] + "\n-1 2:1\n", 2, "<nil>"},
	} {
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		rows, err := collectRows(ScanLIBSVM, path)
		if fmt.Sprint(err) != tc.err || len(rows) != tc.rows {
			t.Fatalf("%d rows, err %v; want %d rows, err %s", len(rows), err, tc.rows, tc.err)
		}
		// The oracle draws the limit at the same byte.
		if _, oerr := collectRows(scanLIBSVMOracle, path); (oerr == nil) != (err == nil) {
			t.Fatalf("oracle err %v, scanner err %v", oerr, err)
		}
	}
}

// TestLIBSVMColumnCap: a column index past the cap is an error naming
// the file and the line, from the scanner and from both loaders, which
// would otherwise size a dense scratch by it (a 13-digit index asked
// for 80 TB and killed the process). An index at the cap is a row.
func TestLIBSVMColumnCap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wide.libsvm")
	write := func(content string) {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(fmt.Sprintf("1 1:1\n-1 %d:0.5\n", libsvmMaxColumns))
	rows, err := collectRows(ScanLIBSVM, path)
	if err != nil || len(rows) != 2 || rows[1].idx[0] != libsvmMaxColumns-1 {
		t.Fatalf("index at the cap: %d rows, err %v", len(rows), err)
	}
	// Four rows at the cap hold four values: loading them must not cost
	// a dense row of 2²⁵ floats (256 MB) before any dense access asks.
	write(strings.Repeat(fmt.Sprintf("1 %d:1\n-1 %d:0.5\n", libsvmMaxColumns, libsvmMaxColumns), 2))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sd, err := LoadLIBSVMSparse(path, 0)
	runtime.ReadMemStats(&after)
	if err != nil || sd.Len() != 4 || sd.Dim() != libsvmMaxColumns {
		t.Fatalf("four rows at the cap: err %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<20 {
		t.Fatalf("LoadLIBSVMSparse of four rows at the cap allocated %d MB, want < 16", got>>20)
	}
	for _, line := range []string{fmt.Sprintf("1 %d:1", libsvmMaxColumns+1), "1 9999999991999:-9"} {
		write("1 1:1\n" + line + "\n")
		rows, err := collectRows(ScanLIBSVM, path)
		if want := fmt.Sprintf("data: %s:2: ", path); err == nil || !strings.HasPrefix(err.Error(), want) || len(rows) != 1 {
			t.Fatalf("%q: %d rows, err %v; want 1 row and an error starting %q", line, len(rows), err, want)
		}
		if _, err := LoadLIBSVM(path, 0); err == nil || !strings.Contains(err.Error(), path+":2: ") {
			t.Fatalf("%q: LoadLIBSVM err %v", line, err)
		}
		if _, err := LoadLIBSVMSparse(path, 0); err == nil || !strings.Contains(err.Error(), path+":2: ") {
			t.Fatalf("%q: LoadLIBSVMSparse err %v", line, err)
		}
	}
}
