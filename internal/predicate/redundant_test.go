package predicate

import (
	"math/rand"
	"testing"

	"github.com/moara/moara/internal/value"
)

// edgeLiterals are the thresholds the soundness sweeps draw from: finite
// ints and floats, ints at 2^53 and 2^53+1, the float both round to,
// NaN, ±Inf, strings and bools.
var edgeLiterals = []string{
	"0", "3", "4.5", "5", "7", "9007199254740992", "9007199254740993",
	"9007199254740992.0", "nan", "inf", "-inf", "linux", "bsd", "true", "false",
}

func edgeValues(toks []string) []value.Value {
	out := make([]value.Value, len(toks))
	for i, tok := range toks {
		v, err := value.Parse(tok)
		if err != nil {
			panic(err)
		}
		out[i] = v
	}
	return out
}

// edgeStored is what a node may hold: every literal, values between the
// thresholds, and (the invalid Value) a missing attribute.
var edgeStored = append(edgeValues(append([]string{
	"-1", "4", "6", "9007199254740991", "9007199254740994", "abc"}, edgeLiterals...)), value.Value{})

var allOps = []Op{OpLT, OpGT, OpLE, OpGE, OpEQ, OpNE}

// randomJunction draws 2-4 terms over x and a junction kind.
func randomJunction(rng *rand.Rand, lits []value.Value) (terms []Simple, and bool) {
	terms = make([]Simple, 2+rng.Intn(3))
	for i := range terms {
		terms[i] = Simple{Attr: "x", Op: allOps[rng.Intn(len(allOps))], Val: lits[rng.Intn(len(lits))]}
	}
	return terms, rng.Intn(2) == 0
}

func junction(terms []Simple, and bool) Expr {
	es := make([]Expr, len(terms))
	for i, s := range terms {
		es[i] = s
	}
	return join(es, and)
}

func join(es []Expr, and bool) Expr {
	if and {
		return And{Terms: es}
	}
	return Or{Terms: es}
}

// TestRedundantSound checks Redundant against Eval on every edge value:
// unless it reports a complement, the kept terms of a junction hold
// exactly where the junction does (so every value satisfying an
// or-junction satisfies a kept term), and a conjunction with a
// complement pair holds nowhere.
func TestRedundantSound(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	lits := edgeValues(edgeLiterals)
	bad := 0
	for trial := 0; trial < 20000; trial++ {
		terms, and := randomJunction(rng, lits)
		drop, complement := Redundant(terms, and)
		var kept []Simple
		for i, s := range terms {
			if drop == nil || !drop[i] {
				kept = append(kept, s)
			}
		}
		whole, rest := junction(terms, and), junction(kept, and)
		for _, v := range edgeStored {
			g := mapGetter{"x": v}
			want, got := whole.Eval(g), rest.Eval(g)
			if complement {
				// Every node covers a disjunction with a complement
				// pair; a conjunction with one holds nowhere.
				got = want && !and
			}
			if got != want {
				if bad < 5 {
					t.Errorf("%v: kept %v (complement %v); x = %v: junction %v, kept %v", whole, kept, complement, v, want, got)
				}
				bad++
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d junction/value pairs changed answer", bad)
	}
}

// TestNormalizeSoundOnEdgeValues checks that Normalize keeps the answer
// of random junctions, some with a nested junction of the other kind,
// on every edge value, and that it is idempotent.
func TestNormalizeSoundOnEdgeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	lits := edgeValues(edgeLiterals)
	bad := 0
	for trial := 0; trial < 20000; trial++ {
		terms, and := randomJunction(rng, lits)
		e := junction(terms, and)
		if rng.Intn(4) == 0 {
			inner, _ := randomJunction(rng, lits)
			e = join([]Expr{junction(inner, !and), e}, and)
		}
		n := Normalize(e)
		if again := Normalize(n); again.Canon() != n.Canon() {
			t.Fatalf("%v: Normalize not idempotent: %v then %v", e, n, again)
		}
		for _, v := range edgeStored {
			g := mapGetter{"x": v}
			if e.Eval(g) != n.Eval(g) {
				if bad < 5 {
					t.Errorf("%v normalized to %v; x = %v: %v became %v", e, n, v, e.Eval(g), n.Eval(g))
				}
				bad++
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d predicate/value pairs changed answer", bad)
	}
}

// FuzzNormalize checks that Normalize of any parsable predicate
// evaluates like the predicate on the edge values, its attributes
// drawn independently, and that it is idempotent.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{
		"x > 9007199254740993 or x > 9007199254740992",
		"x > 9007199254740992.0 or x > 9007199254740993",
		"x >= 3 or x < inf",
		"x = 3 or x < 5",
		"x = nan and x >= 5",
		"x != -inf and x <= 4.5",
		"x = 5 and x >= 5",
		"os = linux or os != bsd",
		"up = true and up != false",
		"(x > 3 or y = bsd) and x > 7 and (y != linux or x < 0)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		e, err := ParseExpr(text)
		if err != nil {
			return
		}
		n := Normalize(e)
		if again := Normalize(n); again.Canon() != n.Canon() {
			t.Fatalf("%v: Normalize not idempotent: %v then %v", e, n, again)
		}
		attrs := Attrs(e)
		for shift := range edgeStored {
			g := GetterFunc(func(name string) value.Value {
				for i, a := range attrs {
					if a == name {
						return edgeStored[(shift+7*i)%len(edgeStored)]
					}
				}
				return value.Value{}
			})
			if e.Eval(g) != n.Eval(g) {
				t.Fatalf("%v normalized to %v: assignment %d answers %v, then %v", e, n, shift, e.Eval(g), n.Eval(g))
			}
		}
	})
}
