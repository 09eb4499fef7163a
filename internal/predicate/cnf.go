package predicate

import (
	"fmt"
	"sort"
	"strings"
)

// Clause is a disjunction of simple terms — one OR-term of a CNF
// expression, and therefore one structural cover candidate (§6.3).
type Clause []Simple

// Canon renders the clause canonically (terms sorted).
func (c Clause) Canon() string {
	parts := make([]string, len(c))
	for i, s := range c {
		parts[i] = s.Canon()
	}
	sort.Strings(parts)
	return strings.Join(parts, " or ")
}

// CNF is a conjunction of clauses. Every clause is a structural cover of
// the original predicate: querying all groups in any single clause
// reaches every node that satisfies the whole predicate (proof sketch in
// §6.3 of the paper).
type CNF []Clause

// DefaultMaxClauses caps CNF growth during distribution. Beyond the cap
// ToCNF fails and the planner falls back to querying every referenced
// group (still complete, just less optimized).
const DefaultMaxClauses = 128

// ErrCNFTooLarge reports that distribution exceeded the clause budget.
var ErrCNFTooLarge = fmt.Errorf("predicate: CNF expansion exceeds clause budget")

// ToCNF converts e to conjunctive normal form by distributing or over
// and. maxClauses <= 0 selects DefaultMaxClauses.
func ToCNF(e Expr, maxClauses int) (CNF, error) {
	if maxClauses <= 0 {
		maxClauses = DefaultMaxClauses
	}
	f, err := toCNF(e, maxClauses)
	if err != nil {
		return nil, err
	}
	return dedupe(f), nil
}

func toCNF(e Expr, budget int) (CNF, error) {
	switch t := e.(type) {
	case Simple:
		return CNF{Clause{t}}, nil
	case And:
		var out CNF
		for _, sub := range t.Terms {
			f, err := toCNF(sub, budget)
			if err != nil {
				return nil, err
			}
			out = append(out, f...)
			if len(out) > budget {
				return nil, ErrCNFTooLarge
			}
		}
		return out, nil
	case Or:
		// (F1 and F2 ...) or (G1 and G2 ...) distributes to the cross
		// product of clauses.
		out := CNF{nil} // identity for the cross product: one empty clause
		for _, sub := range t.Terms {
			f, err := toCNF(sub, budget)
			if err != nil {
				return nil, err
			}
			next := make(CNF, 0, len(out)*len(f))
			for _, a := range out {
				for _, b := range f {
					merged := make(Clause, 0, len(a)+len(b))
					merged = append(merged, a...)
					merged = append(merged, b...)
					next = append(next, merged)
				}
			}
			if len(next) > budget {
				return nil, ErrCNFTooLarge
			}
			out = next
		}
		return out, nil
	default:
		return nil, fmt.Errorf("predicate: CNF of unknown expr %T", e)
	}
}

// dedupe removes duplicate terms within clauses and duplicate clauses,
// and drops clauses that are supersets of other clauses (a smaller
// clause is always the cheaper cover of the two).
func dedupe(f CNF) CNF {
	cleaned := make(CNF, 0, len(f))
	seen := make(map[string]bool, len(f))
	for _, c := range f {
		termSeen := make(map[string]bool, len(c))
		uniq := make(Clause, 0, len(c))
		for _, s := range c {
			k := s.Canon()
			if !termSeen[k] {
				termSeen[k] = true
				uniq = append(uniq, s)
			}
		}
		key := uniq.Canon()
		if !seen[key] {
			seen[key] = true
			cleaned = append(cleaned, uniq)
		}
	}
	// Subsumption: drop clause X if some clause Y ⊂ X (as term sets).
	var out CNF
	for i, c := range cleaned {
		subsumed := false
		cset := termSet(c)
		for j, d := range cleaned {
			if i == j {
				continue
			}
			if len(d) < len(c) || (len(d) == len(c) && j < i && d.Canon() == c.Canon()) {
				if isSubset(termSet(d), cset) {
					subsumed = true
					break
				}
			}
		}
		if !subsumed {
			out = append(out, c)
		}
	}
	return out
}

func termSet(c Clause) map[string]bool {
	m := make(map[string]bool, len(c))
	for _, s := range c {
		m[s.Canon()] = true
	}
	return m
}

func isSubset(a, b map[string]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
