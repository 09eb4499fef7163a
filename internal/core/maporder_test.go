package core_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// orderedMaps are the fields of core's maps that hold per-node tables:
// Node.subs, Node.preds, Node.execs, frontend.pending and frontend.subs.
var orderedMaps = map[string]bool{"subs": true, "preds": true, "execs": true, "pending": true}

// sendsInOrder reports whether a call to name emits a message or arms a
// timer — directly, or through the reconcile and finish paths.
func sendsInOrder(name string) bool {
	switch name {
	case "send", "Route", "After", "pushInstalls", "finishExec", "onStateChange":
		return true
	}
	return strings.HasPrefix(name, "arm")
}

// mapOrderSends lists every range over one of orderedMaps whose body
// sends or arms a timer, unless the range carries an
// "// unordered: <reason>" comment on its line or the line above.
func mapOrderSends(fset *token.FileSet, f *ast.File) []string {
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
	checked := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, v := range mapOrderSends(fset, f) {
			t.Error(v)
		}
	}
	if checked == 0 {
		t.Fatal("no source files checked")
	}

	// The guard itself: it flags a send in a map range and honours the
	// escape comment.
	const src = `package p
func (n *Node) a() {
	for _, sub := range n.subs {
		n.pushInstalls(sub, nil, false)
	}
	for _, fq := range n.fe.pending {
		if fq != nil {
			n.env.After(0, nil)
		}
	}
	// unordered: every entry is cancelled, none sends
	for _, sub := range n.subs {
		n.send(sub.parent, nil)
	}
	for _, sub := range n.subsOf("") {
		n.armEpoch(sub)
	}
}`
	f, err := parser.ParseFile(fset, "guard.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if got := mapOrderSends(fset, f); len(got) != 2 {
		t.Fatalf("guard flagged %q, want the pushInstalls and After calls only", got)
	}
}
