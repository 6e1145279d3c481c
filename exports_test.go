package raftlib

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryExportHasACaller keeps the module free of exports nothing
// calls: an exported top-level func or type in raft/, kernels/ or
// internal/ must have its name used in some non-test .go file of the
// module (commands, examples and bench/ included) other than at its
// declaration. An export kept without a caller on purpose is listed, with
// the reason, in the "Kept" table of DESIGN.md §11, which is this test's
// allowlist.
func TestEveryExportHasACaller(t *testing.T) {
	type export struct {
		pkg, name string
		pos       token.Position
	}
	var exports []export
	uses := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		decl := map[*ast.Ident]bool{}
		if top := strings.SplitN(filepath.ToSlash(path), "/", 2)[0]; top == "raft" || top == "kernels" || top == "internal" {
			pkg := filepath.Base(filepath.Dir(path))
			add := func(id *ast.Ident) {
				if id.IsExported() {
					decl[id] = true
					exports = append(exports, export{pkg, id.Name, fset.Position(id.Pos())})
				}
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							add(ts.Name)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decl[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	kept := keptOnPurpose(t)
	for _, e := range exports {
		if uses[e.name] == 0 && !kept[e.pkg+"."+e.name] && !kept[e.pkg] {
			t.Errorf("%s: %s.%s has no caller; delete it, or list it with the reason in DESIGN.md §11's Kept table",
				e.pos, e.pkg, e.name)
		}
	}
}

// keptOnPurpose reads the first column of the "Kept" table in DESIGN.md
// §11: each `pkg.Name` (a bare `Name` takes the package of the name
// before it in the cell) and each `internal/pkg`, which keeps a whole
// package.
func keptOnPurpose(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(b), "\n## 11.")
	if !ok {
		t.Fatal("DESIGN.md has no section 11")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	_, table, ok := strings.Cut(sec, "\n| Kept |")
	if !ok {
		t.Fatal("DESIGN.md §11 has no Kept table")
	}
	code := regexp.MustCompile("`([^`]+)`")
	kept := map[string]bool{}
	for _, row := range strings.Split(table, "\n")[2:] {
		if !strings.HasPrefix(row, "|") {
			break
		}
		cell := strings.Split(row, "|")[1]
		pkg := ""
		for _, m := range code.FindAllStringSubmatch(cell, -1) {
			name := m[1]
			if p, ok := strings.CutPrefix(name, "internal/"); ok {
				kept[p] = true
				continue
			}
			if p, rest, ok := strings.Cut(name, "."); ok {
				pkg, name = p, rest
			}
			kept[pkg+"."+name] = true
		}
	}
	if len(kept) == 0 {
		t.Fatal("DESIGN.md §11's Kept table lists nothing")
	}
	return kept
}
