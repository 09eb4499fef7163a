package predicate

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
//   - a simple term that another simple term of the same junction makes
//     redundant folds away, decided by Redundant, that is by the
//     Relation the planner reduces covers with: within an And the
//     narrower term stays (x > 3 and x > 5 becomes x > 5, x = 5 and
//     x >= 5 becomes x = 5, up = true and up != false becomes
//     up = true), within an Or the wider one (x > 3 or x > 5 becomes
//     x > 3, os = linux or os != bsd becomes os != "bsd"). A junction
//     holding a term and its complement is left as written.
//
// Normalize is conservative: it only rewrites when the result is
// provably equivalent for every attribute assignment, including the
// missing-attribute, NaN and ±Inf cases; Int thresholds of magnitude
// 2^53 or more never fold. It never turns a non-empty predicate into
// nil.
func Normalize(e Expr) Expr {
	switch t := e.(type) {
	case And:
		return fold(flatten(t.Terms, true), true)
	case Or:
		return fold(flatten(t.Terms, false), false)
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

// fold drops the simple terms Redundant marks in one junction and
// unwraps a single survivor; composite terms stay in place.
func fold(terms []Expr, and bool) Expr {
	simples := make([]Simple, 0, len(terms))
	for _, t := range terms {
		if s, ok := t.(Simple); ok {
			simples = append(simples, s)
		}
	}
	if drop, _ := Redundant(simples, and); drop != nil {
		out, k := terms[:0], 0
		for _, t := range terms {
			if _, ok := t.(Simple); ok {
				k++
				if drop[k-1] {
					continue
				}
			}
			out = append(out, t)
		}
		terms = out
	}
	if len(terms) == 1 {
		return terms[0]
	}
	if and {
		return And{Terms: terms}
	}
	return Or{Terms: terms}
}
