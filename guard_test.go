package boltondp

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
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

// TestNoClockGates keeps tier-1 deterministic: no test outside
// benchmark/ gates on a duration it measured. A call to time.Since,
// time.Until or testing.Benchmark in a _test.go file is such a gate (a
// shared two-vCPU runner moves a clock 10–35% in a busy minute), and
// speed belongs in the benchmark harness's rows instead. Deadline
// polling through time.Now().Add stays legal: it bounds a wait, it
// times nothing.
func TestNoClockGates(t *testing.T) {
	banned := map[string]map[string]bool{
		"time":    {"Since": true, "Until": true},
		"testing": {"Benchmark": true},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgOf := map[string]string{} // file-local import name → banned import path
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || banned[p] == nil {
				continue
			}
			name := p
			if imp.Name != nil {
				name = imp.Name.Name
			}
			pkgOf[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && banned[pkgOf[x.Name]][sel.Sel.Name] {
				t.Errorf("%s: %s.%s compares a clock in a test; make the gate exact or a benchmark harness row",
					fset.Position(call.Pos()), x.Name, sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// uncalledAllowed names the methods the standard library calls through
// an interface, so no identifier in the module need name them.
var uncalledAllowed = map[string]string{
	"Error":  "the error interface: fmt, log and errors call it",
	"String": "fmt.Stringer: fmt calls it",
	"Unwrap": "errors.Is and errors.As call it on a wrapping error",
}

// TestNoUncalledCode keeps internal/ at the code something runs. A
// non-test func or method declared under internal/ counts as called
// when its name appears as an identifier other than its own
// declaration, either in a non-test file anywhere in the module
// (benchmark/, cmd/, examples/ and the facade included) or in a
// _test.go file of another directory: a helper that tests of several
// packages share cannot live in a _test.go file. Its own package's
// tests do not count. The match is by name, so a collision makes the
// guard lenient, never flaky.
func TestNoUncalledCode(t *testing.T) {
	type decl struct {
		pos  token.Position
		name string
		dir  string
	}
	var decls []decl
	declIdent := map[*ast.Ident]bool{}
	calledOutsideTests := map[string]bool{}
	testDirsNaming := map[string]map[string]bool{} // name → dirs of _test.go files naming it
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, test := filepath.Dir(path), strings.HasSuffix(path, "_test.go")
		if !test && strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, dd := range f.Decls {
				if fd, ok := dd.(*ast.FuncDecl); ok && fd.Name.Name != "init" {
					declIdent[fd.Name] = true
					decls = append(decls, decl{fset.Position(fd.Name.Pos()), fd.Name.Name, dir})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || declIdent[id] {
				return true
			}
			if !test {
				calledOutsideTests[id.Name] = true
				return true
			}
			if testDirsNaming[id.Name] == nil {
				testDirsNaming[id.Name] = map[string]bool{}
			}
			testDirsNaming[id.Name][dir] = true
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decls {
		dirs := testDirsNaming[d.name]
		if calledOutsideTests[d.name] || uncalledAllowed[d.name] != "" || len(dirs) > 1 || len(dirs) == 1 && !dirs[d.dir] {
			continue
		}
		t.Errorf("%s: %s is called only by its own package's tests, or by nothing; delete it", d.pos, d.name)
	}
}
