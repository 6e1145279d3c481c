package kernels

import (
	"bytes"
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	pathpkg "path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/surface.golden from the package source")

// TestSurface pins what the package exports: one sorted line per exported
// const, var, type, func and method, rendered from the source with go/doc.
// A change to the public surface must change testdata/surface.golden on
// purpose; go test -run TestSurface -update rewrites it. The surface names
// only what a user can import: no line may name an internal package,
// except the declaration of a public alias (type X = pkg.Y). The renderer is
// raft's (raft/surface_test.go): a test file cannot be shared.
func TestSurface(t *testing.T) {
	lines, internal := surface(t)
	for _, l := range lines {
		if pkg := namesInternal(l, internal); pkg != "" {
			t.Errorf("surface line names internal package %s: %s", pkg, l)
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "surface.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exported surface differs from %s (rerun with -update if the change is meant):\n%s",
			golden, lineDiff(string(want), got))
	}
}

// surface renders the exported declarations of the package's non-test
// files (parsed without comments, so no doc text reaches the lines) and
// lists the names those files import internal packages under.
func surface(t *testing.T) (lines, internal []string) {
	t.Helper()
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !strings.Contains(path, "/internal/") {
				continue
			}
			name := pathpkg.Base(path)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			internal = append(internal, name)
		}
	}
	pkg, err := doc.NewFromFiles(fset, files, "raftlib")
	if err != nil {
		t.Fatal(err)
	}
	str := func(node any) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, node); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			for _, s := range v.Decl.Specs {
				vs := s.(*ast.ValueSpec)
				for _, n := range vs.Names {
					if !n.IsExported() {
						continue
					}
					line := v.Decl.Tok.String() + " " + n.Name
					if vs.Type != nil {
						line += " " + str(vs.Type)
					}
					lines = append(lines, line)
				}
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			f.Decl.Body = nil
			lines = append(lines, str(f.Decl))
		}
	}
	values(pkg.Consts)
	values(pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		for _, s := range typ.Decl.Specs {
			ts := s.(*ast.TypeSpec)
			// go/doc has dropped the unexported fields and methods.
			switch u := ts.Type.(type) {
			case *ast.StructType:
				u.Incomplete = false
			case *ast.InterfaceType:
				u.Incomplete = false
			}
			lines = append(lines, "type "+str(ts))
		}
		values(typ.Consts)
		values(typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	sort.Strings(lines)
	return lines, internal
}

var aliasDecl = regexp.MustCompile(`^type \w+ = \w+\.\w+$`)

// namesInternal returns the internal package a surface line names as a
// qualifier, "" when none does or the line declares an alias.
func namesInternal(line string, internal []string) string {
	if aliasDecl.MatchString(line) {
		return ""
	}
	for _, pkg := range internal {
		if regexp.MustCompile(`\b` + pkg + `\.`).MatchString(line) {
			return pkg
		}
	}
	return ""
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
