package predicate

import "github.com/moara/moara/internal/value"

// Normalize rewrites e into a canonical structural form so that
// syntactically different but equivalent predicates compare equal by
// Canon(). It is the predicate half of the query-service normalization
// that keys the result cache and the subsumption registry:
//
//   - nested conjunctions/disjunctions are flattened (a and (b and c)
//     becomes a and b and c), so association does not matter;
//   - duplicate terms are dropped (a and a becomes a), so repetition
//     does not matter (commutation is already handled by Canon's term
//     sort);
//   - single-term and/or wrappers unwrap to the term itself;
//   - redundant numeric bounds on the same attribute fold away: within
//     an And the tightest lower and upper bound wins (x > 3 and x > 5
//     becomes x > 5), within an Or the loosest (x > 3 or x > 5 becomes
//     x > 3).
//
// Normalize is conservative: it only rewrites when the result is
// provably equivalent for every attribute assignment, including the
// missing-attribute case (a missing or incomparable attribute satisfies
// no term). It never turns a non-empty predicate into nil.
func Normalize(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch t := e.(type) {
	case Simple:
		return t
	case And:
		terms := foldBounds(flatten(t.Terms, true), true)
		if len(terms) == 1 {
			return terms[0]
		}
		return And{Terms: terms}
	case Or:
		terms := foldBounds(flatten(t.Terms, false), false)
		if len(terms) == 1 {
			return terms[0]
		}
		return Or{Terms: terms}
	default:
		return e
	}
}

// flatten normalizes each term, splices same-kind children inline, and
// drops duplicates by canonical form (insertion order kept — Canon
// sorts for rendering, so order is cosmetic).
func flatten(terms []Expr, conj bool) []Expr {
	out := make([]Expr, 0, len(terms))
	seen := make(map[string]bool, len(terms))
	var add func(Expr)
	add = func(e Expr) {
		e = Normalize(e)
		switch t := e.(type) {
		case And:
			if conj {
				for _, s := range t.Terms {
					add(s)
				}
				return
			}
		case Or:
			if !conj {
				for _, s := range t.Terms {
					add(s)
				}
				return
			}
		}
		c := e.Canon()
		if seen[c] {
			return
		}
		seen[c] = true
		out = append(out, e)
	}
	for _, t := range terms {
		add(t)
	}
	return out
}

// foldBounds removes numeric range terms made redundant by a tighter
// (And) or looser (Or) bound on the same attribute. Only terms whose
// values are mutually comparable numbers fold; mixed-type or
// non-numeric bounds are left alone (comparisons against an
// incomparable stored value never hold, so cross-type folding would
// not be equivalence-preserving).
func foldBounds(terms []Expr, conj bool) []Expr {
	type bound struct {
		idx int
		s   Simple
	}
	lower := make(map[string]bound) // > and >=
	upper := make(map[string]bound) // < and <=
	drop := make(map[int]bool)
	for i, t := range terms {
		s, ok := t.(Simple)
		if !ok || !isNumeric(s.Val) {
			continue
		}
		var side map[string]bound
		switch s.Op {
		case OpGT, OpGE:
			side = lower
		case OpLT, OpLE:
			side = upper
		default:
			continue
		}
		prev, held := side[s.Attr]
		if !held {
			side[s.Attr] = bound{i, s}
			continue
		}
		keepNew, comparable := strongerBound(s, prev.s, conj)
		if !comparable {
			continue
		}
		if keepNew {
			drop[prev.idx] = true
			side[s.Attr] = bound{i, s}
		} else {
			drop[i] = true
		}
	}
	if len(drop) == 0 {
		return terms
	}
	out := terms[:0]
	for i, t := range terms {
		if !drop[i] {
			out = append(out, t)
		}
	}
	return out
}

// strongerBound reports whether a should replace b: under conjunction
// the tighter bound survives, under disjunction the looser one. Both
// terms point the same direction on the same attribute. The second
// result is false when the two values are not comparable (mixed types).
func strongerBound(a, b Simple, conj bool) (keepA, comparable bool) {
	c, err := value.Compare(a.Val, b.Val)
	if err != nil {
		return false, false
	}
	if c == 0 {
		// Same threshold: strict implies non-strict, so under And the
		// strict operator (> over >=, < over <=) wins; under Or the
		// non-strict one does.
		aStrict := a.Op == OpGT || a.Op == OpLT
		return aStrict == conj, true
	}
	var aTighter bool
	switch a.Op {
	case OpGT, OpGE:
		aTighter = c > 0 // higher lower-bound is tighter
	default:
		aTighter = c < 0 // lower upper-bound is tighter
	}
	return aTighter == conj, true
}

func isNumeric(v value.Value) bool {
	switch v.Kind() {
	case value.KindInt, value.KindFloat:
		return true
	default:
		return false
	}
}

// CanonOf renders the canonical string of a normalized predicate; nil
// renders as the empty string (the all-nodes group).
func CanonOf(e Expr) string {
	if e == nil {
		return ""
	}
	return Normalize(e).Canon()
}
