package core

import (
	"sort"

	"github.com/moara/moara/internal/predicate"
)

// execKey names one in-flight aggregation: a node in several trees of
// one cover runs one per tree (the ledger records which trees a query
// arrived through, and that the node contributed only once).
type execKey struct {
	qid   QueryID
	group string
}

// queryPlan is the outcome of §6's composite-query planning: the
// candidate covers (one per CNF clause, plus semantic reductions) and
// the evaluation predicate every reached node applies locally.
type queryPlan struct {
	// evalCanon is the full predicate in canonical text form; empty
	// for plain simple or global queries (the group predicate itself
	// is the evaluation predicate then).
	evalCanon string
	// covers lists candidate group sets; querying all groups of any
	// single cover yields a complete answer.
	covers [][]groupSpec
	// empty marks a provably empty result (disjoint intersection),
	// resolved with zero network traffic.
	empty bool
	// fellBack notes that CNF expansion was abandoned and the plan
	// queries every mentioned group.
	fellBack bool
	// groupBy is the request's group-by attribute, carried to every
	// sub-query so the keyed merge happens in-tree. It does not affect
	// cover selection: the same trees answer grouped and scalar forms.
	groupBy string
}

// buildPlan derives the covers for a query over pred aggregating
// attrName. A nil pred selects the global pseudo-group. maxClauses caps
// CNF expansion (0 is predicate.DefaultMaxClauses); a larger composite
// predicate falls back to querying every group it mentions (still
// complete).
func buildPlan(attrName string, pred predicate.Expr, maxClauses int) queryPlan {
	if pred == nil {
		return queryPlan{covers: [][]groupSpec{{globalGroup(attrName)}}}
	}
	if s, ok := pred.(predicate.Simple); ok {
		return queryPlan{covers: [][]groupSpec{{simpleGroup(s)}}}
	}
	evalCanon := pred.Canon()
	cnf, err := predicate.ToCNF(pred, maxClauses)
	if err != nil {
		// Fallback: the union of every mentioned group is always a
		// cover (any satisfying node satisfies at least one positive
		// term).
		return queryPlan{
			evalCanon: evalCanon,
			covers:    [][]groupSpec{distinctGroups(pred)},
			fellBack:  true,
		}
	}

	// Within-clause (OR) reduction: subsumed and duplicate terms go, and
	// a term beside its complement makes the clause universal (Fig. 7
	// row 1 for "or").
	clauses := make([][]predicate.Simple, len(cnf))
	universal := make([]bool, len(cnf))
	for i, cl := range cnf {
		drop, complement := predicate.Redundant(cl, false)
		universal[i] = complement
		if complement {
			continue
		}
		clauses[i] = make([]predicate.Simple, 0, len(cl))
		for k, s := range cl {
			if drop == nil || !drop[k] {
				clauses[i] = append(clauses[i], s)
			}
		}
	}

	// Cross-clause semantic reduction (Fig. 7): the result is contained
	// in every singleton clause's group, so terms of other clauses that
	// are disjoint from (or complementary to) it contribute nothing.
	emptyResult := false
	for pass := 0; pass < 2 && !emptyResult; pass++ {
		for i, ci := range clauses {
			if universal[i] || len(ci) != 1 {
				continue
			}
			u := ci[0]
			for j := range clauses {
				if i == j || universal[j] {
					continue
				}
				kept := clauses[j][:0]
				for _, t := range clauses[j] {
					rel := predicate.Relation(t, u)
					if rel == predicate.RelDisjoint || rel == predicate.RelComplement {
						continue
					}
					kept = append(kept, t)
				}
				clauses[j] = kept
				if len(kept) == 0 {
					emptyResult = true
				}
			}
		}
	}
	if emptyResult {
		return queryPlan{evalCanon: evalCanon, empty: true}
	}

	plan := queryPlan{evalCanon: evalCanon}
	seen := make(map[string]bool, len(clauses))
	for i, cl := range clauses {
		var cover []groupSpec
		if universal[i] {
			cover = []groupSpec{globalGroup(attrName)}
		} else {
			cover = make([]groupSpec, 0, len(cl))
			for _, s := range cl {
				cover = append(cover, simpleGroup(s))
			}
		}
		key := coverKey(cover)
		if !seen[key] {
			seen[key] = true
			plan.covers = append(plan.covers, cover)
		}
	}
	return plan
}

// distinctGroups lists every distinct simple term of pred as a group.
func distinctGroups(pred predicate.Expr) []groupSpec {
	seen := make(map[string]bool)
	var out []groupSpec
	for _, s := range predicate.Simples(pred) {
		k := s.Canon()
		if !seen[k] {
			seen[k] = true
			out = append(out, simpleGroup(s))
		}
	}
	return out
}

func coverKey(cover []groupSpec) string {
	keys := make([]string, len(cover))
	for i, g := range cover {
		keys[i] = g.canon
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + "|"
	}
	return out
}

// distinctGroupsOfPlan lists every group appearing in any cover.
func (p queryPlan) distinctGroupsOfPlan() []groupSpec {
	seen := make(map[string]bool)
	var out []groupSpec
	for _, cover := range p.covers {
		for _, g := range cover {
			if !seen[g.canon] {
				seen[g.canon] = true
				out = append(out, g)
			}
		}
	}
	return out
}

// singleTrivialCover reports whether planning produced exactly one
// cover with one group (no probing needed).
func (p queryPlan) singleTrivialCover() bool {
	return len(p.covers) == 1 && len(p.covers[0]) == 1
}
