package moara

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// checkedPkg is one non-test package, parsed and type-checked.
type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	bench bool // in the bench module, not this one
}

// checkedCode is the non-test code of this module and of bench/, which
// calls into it. The guards below share one listing and type-check pass.
type checkedCode struct {
	fset *token.FileSet
	pkgs []checkedPkg
}

var loadCode = sync.OnceValues(func() (*checkedCode, error) {
	fset := token.NewFileSet()
	imp := moduleImporter{std: importer.ForCompiler(fset, "source", nil), mod: map[string]*types.Package{}}
	code := &checkedCode{fset: fset}
	// -deps lists every package after its imports, so each package is
	// checked once, against the module packages already checked; the
	// standard library is checked from source. The bench listing repeats
	// this module's packages, which are skipped.
	for _, dir := range []string{".", "bench"} {
		cmd := exec.Command("go", "list", "-deps", "-json", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var p struct {
				Dir, ImportPath string
				GoFiles         []string
				Standard        bool
			}
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, fmt.Errorf("go list output: %v", err)
			}
			if p.Standard || imp.mod[p.ImportPath] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
				if err != nil {
					return nil, err
				}
				files = append(files, f)
			}
			info := &types.Info{
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Types:      map[ast.Expr]types.TypeAndValue{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			conf := types.Config{Importer: imp}
			pkg, err := conf.Check(p.ImportPath, fset, files, info)
			if err != nil {
				return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
			}
			imp.mod[p.ImportPath] = pkg
			code.pkgs = append(code.pkgs, checkedPkg{pkg, files, info, dir == "bench"})
		}
	}
	return code, nil
})

func checked(t *testing.T) *checkedCode {
	code, err := loadCode()
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// TestNoUnreadFields type-checks the module's non-test code and fails on
// any unexported, non-embedded struct field that non-test code never
// reads: state that is written and never consulted is dead code that
// still costs a store on every path that fills it. A read is a field
// selection other than the left side of an assignment or ++/--.
func TestNoUnreadFields(t *testing.T) {
	code := checked(t)
	fields := map[*types.Var]token.Position{}
	read := map[*types.Var]bool{}
	for _, p := range code.pkgs {
		if p.bench {
			continue
		}
		for id, obj := range p.info.Defs {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !v.Exported() && !v.Anonymous() && v.Name() != "_" {
				fields[v] = code.fset.Position(id.Pos())
			}
		}
		written := map[*ast.SelectorExpr]bool{}
		for _, f := range p.files {
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
		for expr, sel := range p.info.Selections {
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

// testOnlyFuncs are functions with no caller outside tests that stay in
// non-test files, because tests in other packages need them and a
// _test.go file serves only its own package. Each entry must still exist
// and still have no production caller.
var testOnlyFuncs = map[string]string{
	"attr.(*Store).SetInt":           "baseline, cluster, core and transport tests write integer attributes",
	"cluster.(*Cluster).ExecuteText": "cluster, experiments and transport tests run query text from one node",
	"core.GobTypes":                  "transport tests check that every tag-0 type crosses the wire",
	"ids.FromUint64":                 "aggregate, core, pastry, simnet and transport tests build IDs from small numbers",
	"ids.MustHex":                    "pastry tests write IDs digit by digit",
	"ids.Random":                     "pastry tests draw random IDs",
	"pastry.(*Oracle).Owner":         "cluster and core tests find a key's root",
	"simnet.(*Network).RemoveNode":   "a core test takes a node off the network",
	"simnet.(*Counter).ByNode":       "cluster shard tests and the seeded transcripts read per-node sends",
	"simnet.(*Counter).RecvByNode":   "cluster failure and shard tests and the seeded transcripts read per-node deliveries",
}

// TestNoUncalledFuncs fails on any function or method declared in a
// non-test file that non-test code of this module or of bench/ never
// names, other than the testOnlyFuncs: code only tests call is shipped
// and maintained for nothing. A function naming itself does not count.
// Package moara is the public API and is not checked; nor are main,
// init, String and Error (fmt calls the last two), methods that
// implement an interface the checked code can see, and exported methods
// of the types moara re-exports by alias.
func TestNoUncalledFuncs(t *testing.T) {
	code := checked(t)
	const api = "github.com/moara/moara"

	// Every interface the checked code declares, imports or writes out,
	// by method name.
	ifaces := map[string][]*types.Interface{}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					if it, ok := n.Underlying().(*types.Interface); ok {
						addIface(it)
					}
				}
			}
		}
		for _, dep := range pkg.Imports() {
			walk(dep)
		}
	}
	reexported := map[*types.TypeName]bool{}
	for _, p := range code.pkgs {
		walk(p.pkg)
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				addIface(it)
			}
		}
		if p.pkg.Path() == api {
			for _, name := range p.pkg.Scope().Names() {
				if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
					if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
						reexported[n.Obj()] = true
					}
				}
			}
		}
	}
	exempt := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return fn.Name() == "main" || fn.Name() == "init"
		}
		if fn.Name() == "String" || fn.Name() == "Error" {
			return true
		}
		named, _ := deref(recv.Type()).(*types.Named)
		if named == nil {
			return false
		}
		if fn.Exported() && reexported[named.Obj()] {
			return true
		}
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	decls := map[*types.Func]*ast.FuncDecl{}
	for _, p := range code.pkgs {
		if p.bench || p.pkg.Path() == api {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name != "_" {
					if fn := p.info.Defs[fd.Name].(*types.Func); !exempt(fn) {
						decls[fn] = fd
					}
				}
			}
		}
	}
	called := map[*types.Func]bool{}
	for _, p := range code.pkgs {
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				if fd := decls[fn]; fd != nil && (id.Pos() < fd.Pos() || id.Pos() >= fd.End()) {
					called[fn] = true
				}
			}
		}
	}

	gone := maps.Clone(testOnlyFuncs)
	var uncalled []string
	for fn, fd := range decls {
		name := funcName(fn)
		_, listed := testOnlyFuncs[name]
		switch {
		case called[fn] && listed:
			t.Errorf("%s has a caller outside tests now; take it off testOnlyFuncs", name)
		case !called[fn] && !listed:
			uncalled = append(uncalled, code.fset.Position(fd.Pos()).String()+": "+name)
		}
		delete(gone, name)
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("function never called outside tests: %s", u)
	}
	for name := range gone {
		t.Errorf("testOnlyFuncs lists %s, which is gone or no longer checked", name)
	}
}

// unsetSettings are settings that no non-test code sets and that stay
// settings, each with its reason. An entry that gains a setter, or
// disappears, fails TestNoUnsetSettings.
var unsetSettings = map[string]string{
	"core.Config.StateTTL":        "tests turn on idle-state expiry; it stays a setting until expiry gets a default",
	"service.Options.Rate":        "switches on per-tenant admission control, a documented behaviour tests exercise",
	"service.Options.MaxInflight": "switches on the in-flight cap, a documented behaviour tests exercise",
	"service.Options.Buffer":      "switches on asynchronous fan-out, a documented behaviour tests exercise",
	"simnet.Options.Drop":         "the loss-injection seam that core and simnet tests use",
}

// TestNoUnsetSettings fails on any exported field of an exported struct
// type named …Options or …Config in this module that non-test code of
// the module or of bench/ never sets, other than the unsetSettings: a
// setting that nothing sets is a constant that costs a default fill, a
// doc line and a configuration nobody runs. A composite-literal key is a
// set, and so is the left side of an assignment or an address taken,
// for every field along the chain (o.Node.X sets Node and X). A set
// inside an if or case whose condition reads the same field is a
// default fill and does not count.
func TestNoUnsetSettings(t *testing.T) {
	code := checked(t)
	settings := map[*types.Var]string{}
	for _, p := range code.pkgs {
		if p.bench {
			continue
		}
		for _, name := range p.pkg.Scope().Names() {
			tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() ||
				!strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						settings[f] = p.pkg.Name() + "." + name + "." + f.Name()
					}
				}
			}
		}
	}

	set := map[*types.Var]bool{}
	for _, p := range code.pkgs {
		// reads reports whether cond selects field f.
		reads := func(cond ast.Node, f *types.Var) bool {
			found := false
			ast.Inspect(cond, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if v, ok := p.info.Uses[sel.Sel].(*types.Var); ok && v.Origin() == f {
						found = true
					}
				}
				return !found
			})
			return found
		}
		var stack []ast.Node
		write := func(f *types.Var) {
			f = f.Origin()
			for i := len(stack) - 1; i >= 0; i-- {
				switch s := stack[i].(type) {
				case *ast.IfStmt:
					if reads(s.Cond, f) {
						return
					}
				case *ast.CaseClause:
					for _, e := range s.List {
						if reads(e, f) {
							return
						}
					}
				case *ast.SwitchStmt:
					if s.Tag != nil && reads(s.Tag, f) {
						return
					}
				}
			}
			set[f] = true
		}
		// chain writes every field selected along lhs.
		chain := func(lhs ast.Expr) {
			for {
				switch e := ast.Unparen(lhs).(type) {
				case *ast.StarExpr:
					lhs = e.X
				case *ast.SelectorExpr:
					sel := p.info.Selections[e]
					if sel == nil || sel.Kind() != types.FieldVal {
						return
					}
					write(sel.Obj().(*types.Var))
					lhs = e.X
				default:
					return
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						chain(lhs)
					}
				case *ast.UnaryExpr:
					if s.Op == token.AND {
						chain(s.X)
					}
				case *ast.KeyValueExpr:
					if id, ok := s.Key.(*ast.Ident); ok {
						if f, ok := p.info.Uses[id].(*types.Var); ok && f.IsField() {
							write(f)
						}
					}
				}
				return true
			})
		}
	}

	gone := maps.Clone(unsetSettings)
	var unset []string
	for f, name := range settings {
		_, listed := unsetSettings[name]
		switch {
		case set[f] && listed:
			t.Errorf("%s has a setter outside tests now; take it off unsetSettings", name)
		case !set[f] && !listed:
			unset = append(unset, code.fset.Position(f.Pos()).String()+": "+name)
		}
		delete(gone, name)
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("setting never set outside tests: %s", u)
	}
	for name := range gone {
		t.Errorf("unsetSettings lists %s, which is gone or no longer checked", name)
	}
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// funcName renders fn as pkg.F, pkg.T.M or pkg.(*T).M.
func funcName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		tn := deref(recv.Type()).(*types.Named).Obj().Name()
		if _, ptr := recv.Type().(*types.Pointer); ptr {
			tn = "(*" + tn + ")"
		}
		name += tn + "."
	}
	return name + fn.Name()
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
