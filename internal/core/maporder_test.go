package core_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// orderedMaps are the fields of core's maps that hold per-node tables:
// Node.groups, Node.execs, frontend.pending and frontend.subs.
var orderedMaps = map[string]bool{"groups": true, "subs": true, "execs": true, "pending": true}

// sendsInOrder reports whether a call to name emits a message or arms a
// timer — directly, or through the reconcile and finish paths.
func sendsInOrder(name string) bool {
	switch name {
	case "send", "Route", "Arm", "pushInstalls", "finishExec", "onStateChange":
		return true
	}
	return strings.HasPrefix(name, "arm")
}

// bareImporter stands in for every imported package with an empty one:
// the checker needs the types of core's own fields, not of its imports.
type bareImporter struct{}

func (bareImporter) Import(p string) (*types.Package, error) {
	return types.NewPackage(p, path.Base(p)), nil
}

// rangeTypes type-checks files as far as core's own declarations allow
// and records the type of every expression it could resolve.
func rangeTypes(fset *token.FileSet, files []*ast.File) *types.Info {
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: bareImporter{}, Error: func(error) {}}
	_, _ = conf.Check("core", fset, files, info)
	return info
}

// mapOrderSends lists every range over one of orderedMaps whose body
// sends or arms a timer, unless the range carries an
// "// unordered: <reason>" comment on its line or the line above. A
// field of one of those names that info resolves to a type other than a
// map (a sorted slice) is not a map range; one it cannot resolve counts
// as a map.
func mapOrderSends(fset *token.FileSet, f *ast.File, info *types.Info) []string {
	escaped := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "// unordered: ") {
				escaped[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		sel, ok := rs.X.(*ast.SelectorExpr)
		line := fset.Position(rs.Pos()).Line
		if !ok || !orderedMaps[sel.Sel.Name] || escaped[line] || escaped[line-1] {
			return true
		}
		if tv, known := info.Types[rs.X]; known && tv.Type != nil {
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap && tv.Type != types.Typ[types.Invalid] {
				return true
			}
		}
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name string
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				name = fn.Name
			case *ast.SelectorExpr:
				name = fn.Sel.Name
			}
			if sendsInOrder(name) {
				out = append(out, fset.Position(call.Pos()).String()+": "+name+" inside a range over "+sel.Sel.Name)
			}
			return true
		})
		return true
	})
	return out
}

// TestNoSendInMapOrder: on the simulator every send draws its latency
// from its sender's stream, and timers armed for one instant fire in arm
// order, so a send or an arm issued from inside a Go map range makes one
// seed give different runs. Core walks a sorted copy (or a sorted slice
// such as childTable) instead; a range that provably cannot reorder
// anything says why in an "// unordered: <reason>" comment.
func TestNoSendInMapOrder(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatal("no source files checked")
	}
	info := rangeTypes(fset, files)
	for _, f := range files {
		for _, v := range mapOrderSends(fset, f, info) {
			t.Error(v)
		}
	}
	// The resolver itself: Node.groups is a map, a group's subs a slice.
	resolved := map[string]string{}
	for e, tv := range info.Types {
		if sel, ok := e.(*ast.SelectorExpr); ok && (sel.Sel.Name == "groups" || sel.Sel.Name == "subs") {
			resolved[types.ExprString(e)] = tv.Type.String()
		}
	}
	if got := resolved["n.groups"]; !strings.HasPrefix(got, "map[") {
		t.Fatalf("n.groups resolved to %q, want a map type", got)
	}
	if got := resolved["ps.subs"]; !strings.HasPrefix(got, "[]") {
		t.Fatalf("ps.subs resolved to %q, want a slice type", got)
	}

	// The guard itself: it flags a send in a map range and honours the
	// escape comment.
	const src = `package p
func (n *Node) a() {
	for _, sub := range n.groups {
		n.pushInstalls(sub, false)
	}
	for _, fq := range n.fe.pending {
		if fq != nil {
			n.env.Arm(0, nil, nil)
		}
	}
	// unordered: every entry is cancelled, none sends
	for _, sub := range n.subs {
		n.send(sub.parent, nil)
	}
	for _, sub := range n.liveSubs() {
		n.armEpoch(sub)
	}
}`
	f, err := parser.ParseFile(fset, "guard.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if got := mapOrderSends(fset, f, rangeTypes(fset, []*ast.File{f})); len(got) != 2 {
		t.Fatalf("guard flagged %q, want the pushInstalls and Arm calls only", got)
	}
}
