package moara

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// TestNoUnreadFields type-checks the module's non-test code and fails on
// any unexported, non-embedded struct field that non-test code never
// reads: state that is written and never consulted is dead code that
// still costs a store on every path that fills it. A read is a field
// selection other than the left side of an assignment or ++/--.
func TestNoUnreadFields(t *testing.T) {
	// -deps lists every package after its imports, so each of the
	// module's packages is checked once, against the module packages
	// already checked; the standard library is checked from source.
	out, err := exec.Command("go", "list", "-deps", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fset := token.NewFileSet()
	imp := moduleImporter{std: importer.ForCompiler(fset, "source", nil), mod: map[string]*types.Package{}}
	fields := map[*types.Var]token.Position{}
	read := map[*types.Var]bool{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p struct {
			Dir, ImportPath string
			GoFiles         []string
			Standard        bool
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		imp.mod[p.ImportPath] = pkg
		for id, obj := range info.Defs {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !v.Exported() && !v.Anonymous() && v.Name() != "_" {
				fields[v] = fset.Position(id.Pos())
			}
		}
		written := map[*ast.SelectorExpr]bool{}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							written[sel] = true
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(s.X).(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				}
				return true
			})
		}
		for expr, sel := range info.Selections {
			if sel.Kind() == types.FieldVal && !written[expr] {
				read[sel.Obj().(*types.Var).Origin()] = true
			}
		}
	}

	var unread []string
	for v, pos := range fields {
		if !read[v] {
			unread = append(unread, pos.String()+": "+v.Name())
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("field never read outside tests: %s", u)
	}
}

// moduleImporter resolves the module's own packages to the ones the
// test already checked, and everything else through std.
type moduleImporter struct {
	std types.Importer
	mod map[string]*types.Package
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.mod[path]; ok {
		return pkg, nil
	}
	return m.std.Import(path)
}
