package predicate

import (
	"math"
)

// Rel classifies the set relation between two simple predicates over the
// same attribute, following Fig. 8 of the paper. The relation is used by
// the query optimizer to shrink covers (Fig. 7) and to detect implicit
// "not" pairs.
type Rel uint8

// The relations of Fig. 8.
const (
	// RelUnknown means the relation could not be inferred; the
	// optimizer must be conservative.
	RelUnknown Rel = iota
	// RelEqual: the groups are identical.
	RelEqual
	// RelSubset: A is a strict subset of B.
	RelSubset
	// RelSuperset: A is a strict superset of B.
	RelSuperset
	// RelDisjoint: the groups cannot share a node.
	RelDisjoint
	// RelOverlap: the groups properly intersect.
	RelOverlap
	// RelComplement: B is exactly "not A" (disjoint and covering).
	RelComplement
)

// String names the relation.
func (r Rel) String() string {
	switch r {
	case RelEqual:
		return "equal"
	case RelSubset:
		return "subset"
	case RelSuperset:
		return "superset"
	case RelDisjoint:
		return "disjoint"
	case RelOverlap:
		return "overlap"
	case RelComplement:
		return "complement"
	default:
		return "unknown"
	}
}

// Relation infers the set relation of a relative to b over every value
// Simple.Eval sees. It returns RelUnknown for different attributes or
// undecidable operator/type combinations. Numeric predicates use
// interval algebra over the extended reals, where ±Inf are ordinary
// extremes; a NaN threshold, or an Int threshold of magnitude 2^53 or
// more (float64 rounds it, Eval compares ints exactly), is unknown.
// Boolean predicates use exact two-point-domain analysis; string
// equality predicates use point/co-point analysis. A value of another
// kind, a NaN or a missing attribute satisfies neither term, so it
// never separates two sets.
func Relation(a, b Simple) Rel {
	if a.Attr != b.Attr {
		return RelUnknown
	}
	if av, ok := a.Val.AsBool(); ok {
		bv, ok2 := b.Val.AsBool()
		if !ok2 {
			return RelUnknown
		}
		return boolRelation(a.Op, av, b.Op, bv)
	}
	if a.Val.IsNumeric() && b.Val.IsNumeric() {
		ia, ok1 := numericSet(a)
		ib, ok2 := numericSet(b)
		if !ok1 || !ok2 {
			return RelUnknown
		}
		return setRelation(ia, ib)
	}
	if _, ok := a.Val.AsString(); ok {
		if _, ok2 := b.Val.AsString(); ok2 {
			return stringRelation(a, b)
		}
	}
	return RelUnknown
}

// Redundant marks the terms of a junction (a conjunction when and is
// set, else a disjunction) that another term makes redundant, deciding
// by Relation. Terms are walked in order and each goes at its first
// redundancy: under or a term inside a strictly larger one, under and
// a term around a strictly smaller one, and of two equal terms the
// later. The kept terms evaluate exactly like the junction on every
// value. drop is nil when nothing goes. A term beside its complement
// returns (nil, true): the disjunction holds for every value of its
// domain, the conjunction for none.
func Redundant(terms []Simple, and bool) (drop []bool, complement bool) {
	if len(terms) < 2 {
		return nil, false
	}
	redundant := RelSubset
	if and {
		redundant = RelSuperset
	}
	for i, a := range terms {
		for j, b := range terms {
			if i == j {
				continue
			}
			rel := Relation(a, b)
			if rel == RelComplement {
				return nil, true
			}
			if rel == redundant || (rel == RelEqual && j < i) {
				if drop == nil {
					drop = make([]bool, len(terms))
				}
				drop[i] = true
				break
			}
		}
	}
	return drop, false
}

// boolRelation decides relations over the two-point domain {false,true}.
func boolRelation(aop Op, av bool, bop Op, bv bool) Rel {
	// Normalize to "the set of booleans satisfying the predicate".
	setOf := func(op Op, v bool) (hasF, hasT, ok bool) {
		switch op {
		case OpEQ:
			return v == false, v == true, true
		case OpNE:
			return v != false, v != true, true
		default:
			return false, false, false
		}
	}
	af, at, ok1 := setOf(aop, av)
	bf, bt, ok2 := setOf(bop, bv)
	if !ok1 || !ok2 {
		return RelUnknown
	}
	switch {
	case af == bf && at == bt:
		return RelEqual
	case (af || at) && (bf || bt) && !(af && bf) && !(at && bt):
		// Non-empty, disjoint; over a two-point domain disjoint
		// singletons are complements.
		return RelComplement
	default:
		return RelOverlap
	}
}

// stringRelation handles = / != over strings (ordered string predicates
// are left unknown, conservatively).
func stringRelation(a, b Simple) Rel {
	as, _ := a.Val.AsString()
	bs, _ := b.Val.AsString()
	switch {
	case a.Op == OpEQ && b.Op == OpEQ:
		if as == bs {
			return RelEqual
		}
		return RelDisjoint
	case a.Op == OpEQ && b.Op == OpNE:
		if as == bs {
			return RelComplement
		}
		return RelSubset // {as} ⊂ everything-but-bs
	case a.Op == OpNE && b.Op == OpEQ:
		if as == bs {
			return RelComplement
		}
		return RelSuperset
	case a.Op == OpNE && b.Op == OpNE:
		if as == bs {
			return RelEqual
		}
		return RelOverlap
	default:
		return RelUnknown
	}
}

// ---------------------------------------------------------------------
// Interval algebra over the extended reals for numeric predicates.

// interval is [lo,hi] with independently open endpoints; lo/hi may be
// ±Inf, which are points of the domain like any other.
type interval struct {
	lo, hi         float64
	loOpen, hiOpen bool
}

func (iv interval) empty() bool {
	if iv.lo > iv.hi {
		return true
	}
	if iv.lo == iv.hi && (iv.loOpen || iv.hiOpen) {
		return true
	}
	return false
}

// intervalSet is a union of disjoint, sorted intervals (at most 2 for
// any simple predicate; at most 4 after one intersection).
type intervalSet []interval

// numericSet builds the satisfying set of a numeric simple predicate,
// empty intervals dropped. Below 2^53 an Int threshold converts exactly,
// and Eval then orders every stored number as its float64 image does.
func numericSet(s Simple) (intervalSet, bool) {
	v, ok := s.Val.AsFloat()
	if !ok || math.IsNaN(v) {
		return nil, false
	}
	if i, isInt := s.Val.AsInt(); isInt && (i >= 1<<53 || i <= -1<<53) {
		return nil, false
	}
	inf := math.Inf(1)
	var set intervalSet
	switch s.Op {
	case OpLT:
		set = intervalSet{{lo: -inf, hi: v, hiOpen: true}}
	case OpLE:
		set = intervalSet{{lo: -inf, hi: v}}
	case OpGT:
		set = intervalSet{{lo: v, hi: inf, loOpen: true}}
	case OpGE:
		set = intervalSet{{lo: v, hi: inf}}
	case OpEQ:
		set = intervalSet{{lo: v, hi: v}}
	case OpNE:
		set = intervalSet{{lo: -inf, hi: v, hiOpen: true}, {lo: v, hi: inf, loOpen: true}}
	default:
		return nil, false
	}
	out := set[:0]
	for _, iv := range set {
		if !iv.empty() {
			out = append(out, iv)
		}
	}
	return out, true
}

// intersect computes the pairwise intersection of two interval sets.
func intersect(a, b intervalSet) intervalSet {
	var out intervalSet
	for _, x := range a {
		for _, y := range b {
			lo, loOpen := x.lo, x.loOpen
			if y.lo > lo || (y.lo == lo && y.loOpen) {
				lo, loOpen = y.lo, y.loOpen
			}
			hi, hiOpen := x.hi, x.hiOpen
			if y.hi < hi || (y.hi == hi && y.hiOpen) {
				hi, hiOpen = y.hi, y.hiOpen
			}
			iv := interval{lo: lo, hi: hi, loOpen: loOpen, hiOpen: hiOpen}
			if !iv.empty() {
				out = append(out, iv)
			}
		}
	}
	return out
}

// equalSets reports whether two interval sets describe the same set of
// reals. Inputs must be normalized (disjoint, sorted), which numericSet
// and intersect produce.
func equalSets(a, b intervalSet) bool {
	a, b = normalize(a), normalize(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// normalize sorts and merges adjacent/overlapping intervals.
func normalize(s intervalSet) intervalSet {
	if len(s) <= 1 {
		return s
	}
	out := make(intervalSet, len(s))
	copy(out, s)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	merged := out[:1]
	for _, iv := range out[1:] {
		last := &merged[len(merged)-1]
		// Merge when iv starts inside or exactly adjacent (closed
		// meeting point) to last.
		if iv.lo < last.hi || (iv.lo == last.hi && (!iv.loOpen || !last.hiOpen)) {
			if iv.hi > last.hi || (iv.hi == last.hi && !iv.hiOpen) {
				last.hi, last.hiOpen = iv.hi, iv.hiOpen
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

func less(a, b interval) bool {
	if a.lo != b.lo {
		return a.lo < b.lo
	}
	return !a.loOpen && b.loOpen
}

// isUniverse reports whether the set covers all extended reals.
func isUniverse(s intervalSet) bool {
	s = normalize(s)
	return len(s) == 1 && math.IsInf(s[0].lo, -1) && math.IsInf(s[0].hi, 1) &&
		!s[0].loOpen && !s[0].hiOpen
}

// union concatenates and normalizes.
func union(a, b intervalSet) intervalSet {
	out := make(intervalSet, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return normalize(out)
}

// setRelation classifies interval sets a vs b.
func setRelation(a, b intervalSet) Rel {
	inter := intersect(a, b)
	interEmpty := len(normalize(inter)) == 0
	switch {
	case equalSets(a, b):
		return RelEqual
	case interEmpty && isUniverse(union(a, b)):
		return RelComplement
	case interEmpty:
		return RelDisjoint
	case equalSets(inter, a):
		return RelSubset
	case equalSets(inter, b):
		return RelSuperset
	default:
		return RelOverlap
	}
}
