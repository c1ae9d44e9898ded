package data

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"boltondp/internal/vec"
)

// scanLIBSVMOracle is ScanLIBSVM's body as it stood before the
// block-parallel pipeline, kept as the reference the differential tests
// compare against: one goroutine, one line at a time, strings.Fields +
// strconv + vec.SortedCopy on every row. Its one later change is the
// column cap (libsvmMaxColumns), which both sides check in the same
// place.
func scanLIBSVMOracle(path string, fn func(row *vec.Sparse, y float64) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("data: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	lineNo := 0
	var idx []int
	var val []float64
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		y, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return fmt.Errorf("data: %s:%d: bad label %q", path, lineNo, fields[0])
		}
		idx = idx[:0]
		val = val[:0]
		for _, kv := range fields[1:] {
			colon := strings.IndexByte(kv, ':')
			if colon < 0 {
				return fmt.Errorf("data: %s:%d: bad feature %q", path, lineNo, kv)
			}
			ix, err := strconv.Atoi(kv[:colon])
			if err != nil || ix < 1 {
				return fmt.Errorf("data: %s:%d: bad index %q", path, lineNo, kv)
			}
			if ix > libsvmMaxColumns {
				return fmt.Errorf("data: %s:%d: index %q past the %d-column cap", path, lineNo, kv, libsvmMaxColumns)
			}
			v, err := strconv.ParseFloat(kv[colon+1:], 64)
			if err != nil {
				return fmt.Errorf("data: %s:%d: bad value %q", path, lineNo, kv)
			}
			idx = append(idx, ix-1)
			val = append(val, v)
		}
		row, err := vec.SortedCopy(idx, val)
		if err != nil {
			return fmt.Errorf("data: %s:%d: %w", path, lineNo, err)
		}
		if err := fn(row, y); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("data: %w", err)
	}
	return nil
}
