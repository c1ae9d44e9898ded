package boltondp

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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

// goFile is one parsed .go file of the module.
type goFile struct {
	path, dir string
	test      bool
	f         *ast.File
}

// parseModule parses every .go file of the module outside testdata/
// and dot-directories, benchmark/ included: the walk the guards below
// share.
func parseModule(t *testing.T) (*token.FileSet, []goFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
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
		files = append(files, goFile{path, filepath.Dir(path), strings.HasSuffix(path, "_test.go"), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// internalSource reports whether g is a non-test file under internal/.
func (g goFile) internalSource() bool {
	return !g.test && strings.HasPrefix(filepath.ToSlash(g.path), "internal/")
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
	fset, files := parseModule(t)
	var decls []decl
	declIdent := map[*ast.Ident]bool{}
	for _, g := range files {
		if !g.internalSource() {
			continue
		}
		for _, dd := range g.f.Decls {
			if fd, ok := dd.(*ast.FuncDecl); ok && fd.Name.Name != "init" {
				declIdent[fd.Name] = true
				decls = append(decls, decl{fset.Position(fd.Name.Pos()), fd.Name.Name, g.dir})
			}
		}
	}
	calledOutsideTests := map[string]bool{}
	testDirsNaming := map[string]map[string]bool{} // name → dirs of _test.go files naming it
	for _, g := range files {
		ast.Inspect(g.f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || declIdent[id] {
				return true
			}
			if !g.test {
				calledOutsideTests[id.Name] = true
				return true
			}
			if testDirsNaming[id.Name] == nil {
				testDirsNaming[id.Name] = map[string]bool{}
			}
			testDirsNaming[id.Name][g.dir] = true
			return true
		})
	}
	for _, d := range decls {
		dirs := testDirsNaming[d.name]
		if calledOutsideTests[d.name] || uncalledAllowed[d.name] != "" || len(dirs) > 1 || len(dirs) == 1 && !dirs[d.dir] {
			continue
		}
		t.Errorf("%s: %s is called only by its own package's tests, or by nothing; delete it", d.pos, d.name)
	}
}

// TestNoNeedlessExport keeps internal/'s exported top-level names
// (funcs, types, consts and vars; methods are out of scope) at the ones
// something outside their package needs. A name is needed when an
// identifier of that name appears in a file of another directory —
// benchmark/, cmd/, examples/, the facade and other packages' tests
// count — or when the API of its own package shows it: the signature
// of a needed func, the type of a needed const or var, or, for a
// needed type, its definition (exported fields only) and its exported
// methods' signatures. The match is by name, so a collision makes the
// guard lenient, never flaky.
func TestNoNeedlessExport(t *testing.T) {
	type key struct{ dir, name string }
	type decl struct {
		pos token.Position
		key
		api []ast.Node // the parts of the declaration its package's API shows
	}
	fset, files := parseModule(t)
	decls := map[key]*decl{}
	var order []*decl
	methods := map[key][]ast.Node{} // receiver type → its exported methods' signatures
	declIdent := map[*ast.Ident]bool{}
	add := func(dir string, id *ast.Ident, api []ast.Node) {
		declIdent[id] = true
		if id.IsExported() {
			d := &decl{fset.Position(id.Pos()), key{dir, id.Name}, api}
			decls[d.key] = d
			order = append(order, d)
		}
	}
	for _, g := range files {
		if !g.internalSource() {
			continue
		}
		for _, dd := range g.f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				if dd.Recv == nil {
					add(g.dir, dd.Name, []ast.Node{dd.Type})
					continue
				}
				declIdent[dd.Name] = true
				if dd.Name.IsExported() {
					recv := key{g.dir, receiverName(dd.Recv.List[0].Type)}
					methods[recv] = append(methods[recv], dd.Type)
				}
			case *ast.GenDecl:
				for _, s := range dd.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(g.dir, s.Name, typeAPI(s))
					case *ast.ValueSpec:
						var api []ast.Node
						if s.Type != nil {
							api = append(api, s.Type)
						}
						for _, id := range s.Names {
							add(g.dir, id, api)
						}
					}
				}
			}
		}
	}
	dirsNaming := map[string]map[string]bool{} // name → dirs of files naming it
	for _, g := range files {
		ast.Inspect(g.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdent[id] {
				if dirsNaming[id.Name] == nil {
					dirsNaming[id.Name] = map[string]bool{}
				}
				dirsNaming[id.Name][g.dir] = true
			}
			return true
		})
	}
	needed := map[*decl]bool{}
	var queue []*decl
	need := func(d *decl) {
		if d != nil && !needed[d] {
			needed[d] = true
			queue = append(queue, d)
		}
	}
	for _, d := range order {
		if dirs := dirsNaming[d.name]; len(dirs) > 1 || len(dirs) == 1 && !dirs[d.dir] {
			need(d)
		}
	}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		for _, n := range slices.Concat(d.api, methods[d.key]) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					return false // another package's name
				case *ast.Ident:
					need(decls[key{d.dir, n.Name}])
				}
				return true
			})
		}
	}
	for _, d := range order {
		if !needed[d] {
			t.Errorf("%s: %s.%s is named by no other directory and by no exported API of its package; unexport it",
				d.pos, filepath.Base(d.dir), d.name)
		}
	}
}

// receiverName is the type name of a method receiver: T in (T), (*T),
// (T[P]) and (*T[P]).
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// typeAPI is what a type declaration shows to importers: its type
// parameters and, for a struct, its exported and embedded fields' types;
// for any other type, its whole definition.
func typeAPI(s *ast.TypeSpec) []ast.Node {
	var api []ast.Node
	if s.TypeParams != nil {
		api = append(api, s.TypeParams)
	}
	st, ok := s.Type.(*ast.StructType)
	if !ok {
		return append(api, s.Type)
	}
	for _, f := range st.Fields.List {
		shown := len(f.Names) == 0
		for _, id := range f.Names {
			shown = shown || id.IsExported()
		}
		if shown {
			api = append(api, f.Type)
		}
	}
	return api
}

// unsetAllowed names the exported fields TestNoUnsetField lets stand
// unset, each with the reason.
var unsetAllowed = map[string]string{
	"serve.Config.Float64Batch": "goes with the f32 scoring tier, which a benchmark row still scores through (ROADMAP: delete the f32 tier)",
}

// TestNoUnsetField keeps internal/'s exported struct fields at the
// options something sets. An exported field of an exported struct
// declared under internal/ counts as set when a non-test file of the
// module (benchmark/, cmd/, examples/ and the facade included) gives
// it a value: a key of a composite literal of that struct type (a
// literal without keys sets every field), or, matched by field name
// alone, the left side of an assignment, the operand of ++ or --, or
// the operand of &. A field only tests set is an option no caller
// has; delete it with the code only it reached.
func TestNoUnsetField(t *testing.T) {
	type typeKey struct{ dir, name string }
	type field struct {
		pos   token.Position
		owner typeKey
		name  string
	}
	fset, files := parseModule(t)
	var fields []field
	fieldsOf := map[typeKey][]string{}
	for _, g := range files {
		if !g.internalSource() {
			continue
		}
		for _, dd := range g.f.Decls {
			gd, ok := dd.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				owner := typeKey{g.dir, ts.Name.Name}
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						fieldsOf[owner] = append(fieldsOf[owner], id.Name)
						if id.IsExported() {
							fields = append(fields, field{fset.Position(id.Pos()), owner, id.Name})
						}
					}
				}
			}
		}
	}
	type fieldKey struct {
		typeKey
		field string
	}
	setIn := map[fieldKey]bool{} // by a keyed or positional composite literal
	setByName := map[string]bool{}
	for _, g := range files {
		if g.test {
			continue
		}
		imports := map[string]string{} // file-local import name → module directory
		for _, imp := range g.f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			rel, ok := strings.CutPrefix(p, "boltondp/")
			if !ok {
				continue
			}
			name := filepath.Base(rel)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = filepath.FromSlash(rel)
		}
		// named resolves a literal's type expression to a declared type.
		named := func(e ast.Expr) (typeKey, bool) {
			if s, ok := e.(*ast.StarExpr); ok {
				e = s.X
			}
			switch e := e.(type) {
			case *ast.Ident:
				return typeKey{g.dir, e.Name}, true
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
					return typeKey{imports[x.Name], e.Sel.Name}, true
				}
			}
			return typeKey{}, false
		}
		elided := map[*ast.CompositeLit]ast.Expr{} // a literal inside []T{…} or map[K]T{…} without its type
		ast.Inspect(g.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				typ := n.Type
				if typ == nil {
					typ = elided[n]
				}
				var elem, mapKey ast.Expr
				switch tt := typ.(type) {
				case *ast.ArrayType:
					elem = tt.Elt
				case *ast.MapType:
					elem, mapKey = tt.Value, tt.Key
				}
				owner, isNamed := named(typ)
				for _, e := range n.Elts {
					kv, keyed := e.(*ast.KeyValueExpr)
					if keyed {
						if k, ok := kv.Key.(*ast.CompositeLit); ok && k.Type == nil && mapKey != nil {
							elided[k] = mapKey
						}
						if id, ok := kv.Key.(*ast.Ident); ok && isNamed {
							setIn[fieldKey{owner, id.Name}] = true
						}
						e = kv.Value
					} else if isNamed {
						for _, f := range fieldsOf[owner] {
							setIn[fieldKey{owner, f}] = true
						}
					}
					if c, ok := e.(*ast.CompositeLit); ok && c.Type == nil && elem != nil {
						elided[c] = elem
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if s, ok := l.(*ast.SelectorExpr); ok {
						setByName[s.Sel.Name] = true
					}
				}
			case *ast.IncDecStmt:
				if s, ok := n.X.(*ast.SelectorExpr); ok {
					setByName[s.Sel.Name] = true
				}
			case *ast.UnaryExpr:
				if s, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					setByName[s.Sel.Name] = true
				}
			}
			return true
		})
	}
	for _, f := range fields {
		full := filepath.Base(f.owner.dir) + "." + f.owner.name + "." + f.name
		if setIn[fieldKey{f.owner, f.name}] || setByName[f.name] || unsetAllowed[full] != "" {
			continue
		}
		t.Errorf("%s: %s is set by no non-test file; delete the option and the code only it reaches", f.pos, full)
	}
}
