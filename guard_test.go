package boltondp

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoDeprecatedAPI keeps the module at one way to do each thing: a
// superseded entry point is deleted in the change that supersedes it,
// never kept as a "// Deprecated:" compatibility wrapper. benchmark/ is
// exempt — its sources are frozen between benchmark changes.
func TestNoDeprecatedAPI(t *testing.T) {
	marker := []byte("// " + "Deprecated:")
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range bytes.Split(src, []byte("\n")) {
			if bytes.Contains(line, marker) {
				t.Errorf("%s:%d: deprecated wrapper; delete it and move its callers", path, i+1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
