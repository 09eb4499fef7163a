// Package predicate implements Moara's group predicates (§3.1, §6):
// simple (attribute op value) terms composed with and/or, evaluation
// against an attribute store, conversion to conjunctive normal form for
// cover extraction, negation push-down (the paper's implicit "not"
// support via the operator set), and the semantic relation algebra of
// Figs. 7-8 (equivalence, inclusion, disjointness, complement) used by
// the query optimizer.
package predicate

import (
	"fmt"
	"sort"
	"strings"

	"github.com/moara/moara/internal/value"
)

// Op is a comparison operator.
type Op uint8

// The comparison operators of the paper's query model.
const (
	OpInvalid Op = iota
	OpLT
	OpGT
	OpLE
	OpGE
	OpEQ
	OpNE
)

// String renders the operator in query-language syntax.
func (o Op) String() string {
	switch o {
	case OpLT:
		return "<"
	case OpGT:
		return ">"
	case OpLE:
		return "<="
	case OpGE:
		return ">="
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	default:
		return "?"
	}
}

// ParseOp parses an operator token.
func ParseOp(s string) (Op, error) {
	switch s {
	case "<":
		return OpLT, nil
	case ">":
		return OpGT, nil
	case "<=":
		return OpLE, nil
	case ">=":
		return OpGE, nil
	case "=", "==":
		return OpEQ, nil
	case "!=", "<>":
		return OpNE, nil
	default:
		return OpInvalid, fmt.Errorf("predicate: unknown operator %q", s)
	}
}

// Negate returns the complementary operator (over a totally ordered
// domain): not(<) is >=, not(=) is !=, and so on.
func (o Op) Negate() Op {
	switch o {
	case OpLT:
		return OpGE
	case OpGT:
		return OpLE
	case OpLE:
		return OpGT
	case OpGE:
		return OpLT
	case OpEQ:
		return OpNE
	case OpNE:
		return OpEQ
	default:
		return OpInvalid
	}
}

// Getter resolves attribute names to local values; missing attributes
// return an invalid Value.
type Getter interface {
	Get(name string) value.Value
}

// GetterFunc adapts a function to Getter.
type GetterFunc func(name string) value.Value

// Get resolves an attribute.
func (f GetterFunc) Get(name string) value.Value { return f(name) }

// Expr is a group predicate: a Simple term or an and/or composition.
type Expr interface {
	// Eval reports whether the predicate holds for the node whose
	// attributes g resolves. Missing or incomparable attributes never
	// satisfy a term, and neither does NaN, stored or as the threshold.
	// Ints compare exactly with ints, and with floats as float64; ±Inf
	// order as the extremes.
	Eval(g Getter) bool
	// Canon renders a canonical form used as the tree/state key; it is
	// stable across parses of equivalent text.
	Canon() string
	fmt.Stringer
}

// Simple is one (attribute op value) term. It names a group; the group's
// aggregation tree is keyed by hash(Attr).
type Simple struct {
	Attr string
	Op   Op
	Val  value.Value
}

// Eval reports whether the node's attribute satisfies the term.
func (s Simple) Eval(g Getter) bool {
	v := g.Get(s.Attr)
	if !v.IsValid() || isNaN(v) || isNaN(s.Val) {
		return false
	}
	c, err := value.Compare(v, s.Val)
	if err != nil {
		return false
	}
	switch s.Op {
	case OpLT:
		return c < 0
	case OpGT:
		return c > 0
	case OpLE:
		return c <= 0
	case OpGE:
		return c >= 0
	case OpEQ:
		return c == 0
	case OpNE:
		return c != 0
	default:
		return false
	}
}

// isNaN reports a float NaN, which value.Compare would call equal to
// every number.
func isNaN(v value.Value) bool {
	f, ok := v.AsFloat()
	return ok && f != f
}

// String renders the term, a group's canonical name, in one allocation.
func (s Simple) String() string {
	var buf [64]byte
	b := append(append(append(append(buf[:0], s.Attr...), ' '), s.Op.String()...), ' ')
	return string(s.Val.Append(b))
}

// Canon renders the canonical term form.
func (s Simple) Canon() string { return s.String() }

// And is a conjunction of sub-predicates.
type And struct {
	Terms []Expr
}

// Eval reports whether every term holds.
func (a And) Eval(g Getter) bool {
	for _, t := range a.Terms {
		if !t.Eval(g) {
			return false
		}
	}
	return true
}

// String renders the conjunction.
func (a And) String() string { return joinTerms(a.Terms, " and ") }

// Canon renders a canonical, term-sorted form.
func (a And) Canon() string { return canonTerms(a.Terms, " and ") }

// Or is a disjunction of sub-predicates.
type Or struct {
	Terms []Expr
}

// Eval reports whether any term holds.
func (o Or) Eval(g Getter) bool {
	for _, t := range o.Terms {
		if t.Eval(g) {
			return true
		}
	}
	return false
}

// String renders the disjunction.
func (o Or) String() string { return joinTerms(o.Terms, " or ") }

// Canon renders a canonical, term-sorted form.
func (o Or) Canon() string { return canonTerms(o.Terms, " or ") }

func joinTerms(terms []Expr, sep string) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		s := t.String()
		if _, ok := t.(Simple); !ok {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

func canonTerms(terms []Expr, sep string) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		s := t.Canon()
		if _, ok := t.(Simple); !ok {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	sort.Strings(parts)
	return strings.Join(parts, sep)
}

// Negate returns the logical complement of e with negation pushed down
// to the operators (De Morgan), which is how Moara supports "not"
// without a Not node.
func Negate(e Expr) Expr {
	switch t := e.(type) {
	case Simple:
		return Simple{Attr: t.Attr, Op: t.Op.Negate(), Val: t.Val}
	case And:
		out := make([]Expr, len(t.Terms))
		for i, sub := range t.Terms {
			out[i] = Negate(sub)
		}
		return Or{Terms: out}
	case Or:
		out := make([]Expr, len(t.Terms))
		for i, sub := range t.Terms {
			out[i] = Negate(sub)
		}
		return And{Terms: out}
	default:
		panic(fmt.Sprintf("predicate: negate unknown expr %T", e))
	}
}

// Simples returns every simple term in e, left to right, duplicates
// included.
func Simples(e Expr) []Simple {
	var out []Simple
	var walk func(Expr)
	walk = func(x Expr) {
		switch t := x.(type) {
		case Simple:
			out = append(out, t)
		case And:
			for _, s := range t.Terms {
				walk(s)
			}
		case Or:
			for _, s := range t.Terms {
				walk(s)
			}
		}
	}
	walk(e)
	return out
}

// Attrs returns the distinct group attributes referenced by e, sorted.
func Attrs(e Expr) []string {
	seen := make(map[string]bool)
	for _, s := range Simples(e) {
		seen[s.Attr] = true
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
