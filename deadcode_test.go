package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported internal/ identifiers that no
// non-test code uses, each with why it stays.
// A key is "pkg.Name" for a function or type and "pkg.Type.Method" for a
// method; a bare "pkg" allows a whole package.
var testOnlyAllowed = map[string]string{
	"gen.DenseFollowConfig":         "generator fixture that tests in three packages share",
	"similarity.Store.ProfileMass":  "one-line accessor that pins the incrementally maintained profile mass in tests",
	"similarity.Store.Popularity":   "one-line accessor that pins the incrementally maintained popularity in tests",
	"similarity.Store.Retweeters":   "one-line accessor that pins the incrementally maintained posting lists in tests",
	"propagation.NewRefIncremental": "reference kernel that tests in propagation and simgraph compare against",
	"propagation.NewRefState":       "reference kernel state that tests in propagation and simgraph compare against",
	"linalg":                        "test-only oracle: propagation's tests solve Ap = b with it (PAPER.md §5.2)",
}

// TestNoTestOnlyExports keeps product code that only tests run out of the
// product tree. It lists every exported top-level function, method and
// type declared in a non-test file under internal/ whose name no
// non-test Go file in the repository mentions outside its declaration
// (bench/ counts as a caller), and fails on any such name that
// testOnlyAllowed does not list, and on any allowlist entry that no
// longer matches one. The check is by name: a name mentioned in any role
// (a call, a type, a field, an interface method) counts as used.
// Methods of unexported types are skipped.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ key, file string }
	var decls []decl
	mentions := map[string]bool{} // names used outside their declarations
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		if pkg, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/"); ok && !strings.Contains(pkg, "/") {
			for _, key := range exportedDecls(f, pkg, declared) {
				decls = append(decls, decl{key, path})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				mentions[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}

	matched := map[string]bool{}
	var unused []string
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if mentions[name] {
			continue
		}
		pkg, _, _ := strings.Cut(d.key, ".")
		switch {
		case testOnlyAllowed[d.key] != "":
			matched[d.key] = true
		case testOnlyAllowed[pkg] != "":
			matched[pkg] = true
		default:
			unused = append(unused, d.key+" ("+d.file+")")
		}
	}
	for _, u := range unused {
		t.Errorf("exported %s is mentioned by no non-test code: use it, unexport it, move it into a test, or allowlist it with a reason", u)
	}
	for key := range testOnlyAllowed {
		if !matched[key] {
			t.Errorf("allowlist entry %q matches no test-only export: drop it", key)
		}
	}
}

// exportedDecls returns the keys of f's exported top-level functions,
// methods and types, and marks each declaring identifier in declared.
func exportedDecls(f *ast.File, pkg string, declared map[*ast.Ident]bool) []string {
	var keys []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			key := pkg + "." + d.Name.Name
			if d.Recv != nil {
				recv := recvType(d.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue // a method of an unexported type is no API
				}
				key = pkg + "." + recv + "." + d.Name.Name
			}
			declared[d.Name] = true
			keys = append(keys, key)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.IsExported() {
					declared[ts.Name] = true
					keys = append(keys, pkg+"."+ts.Name.Name)
				}
			}
		}
	}
	return keys
}

// recvType names a method receiver's type: T for T and *T.
func recvType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
