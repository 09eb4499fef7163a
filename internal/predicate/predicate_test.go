package predicate

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/moara/moara/internal/value"
)

// mapGetter adapts a map to the Getter interface.
type mapGetter map[string]value.Value

func (m mapGetter) Get(name string) value.Value { return m[name] }

func TestSimpleEval(t *testing.T) {
	g := mapGetter{
		"cpu":  value.Float(55),
		"os":   value.Str("linux"),
		"up":   value.Bool(true),
		"jobs": value.Int(3),
	}
	tests := []struct {
		expr string
		want bool
	}{
		{"cpu < 60", true},
		{"cpu < 55", false},
		{"cpu <= 55", true},
		{"cpu > 50", true},
		{"cpu >= 56", false},
		{"cpu = 55", true},
		{"cpu != 55", false},
		{"os = linux", true},
		{"os != windows", true},
		{"up = true", true},
		{"up != true", false},
		{"jobs >= 3", true},
		{"missing = 1", false},
		{"missing != 1", false}, // absent attributes never satisfy
		{"os < 1", false},       // incomparable never satisfies
	}
	for _, tc := range tests {
		e := MustParse(tc.expr)
		if got := e.Eval(g); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestParseComposite(t *testing.T) {
	g := mapGetter{"a": value.Int(1), "b": value.Int(2), "c": value.Int(3)}
	tests := []struct {
		expr string
		want bool
	}{
		{"a = 1 and b = 2", true},
		{"a = 1 and b = 3", false},
		{"a = 2 or b = 2", true},
		{"(a = 2 or b = 2) and c = 3", true},
		{"a = 1 and (b = 9 or c = 3)", true},
		{"not a = 2", true},
		{"not (a = 1 and b = 2)", false},
		{"not (a = 2) and not (b = 9)", true},
	}
	for _, tc := range tests {
		e, err := ParseExpr(tc.expr)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.expr, err)
		}
		if got := e.Eval(g); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "a", "a =", "= 5", "a = 1 and", "a = 1 or or b = 2",
		"(a = 1", "a ~ 1", "a = 1 extra stuff",
	}
	for _, s := range bad {
		if _, err := ParseExpr(s); err == nil {
			t.Errorf("ParseExpr(%q) should fail", s)
		}
	}
}

func TestCanonRoundTrip(t *testing.T) {
	exprs := []string{
		"cpu < 50",
		"a = 1 and b = 2",
		"(a = 1 or b = 2) and c != 3",
		"os = linux or os = freebsd",
	}
	for _, s := range exprs {
		e := MustParse(s)
		re, err := ParseExpr(e.Canon())
		if err != nil {
			t.Fatalf("reparse canon of %q (%q): %v", s, e.Canon(), err)
		}
		if re.Canon() != e.Canon() {
			t.Errorf("canon not stable: %q vs %q", e.Canon(), re.Canon())
		}
	}
}

func TestNegateLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		e := randomExpr(rng, 3)
		ne := Negate(e)
		g := randomGetter(rng)
		if e.Eval(g) == ne.Eval(g) {
			// Negation must flip the outcome... except when an
			// attribute is absent or incomparable: then both the
			// predicate and its negation are false by design.
			if !hasAbsentOrIncomparable(e, g) {
				t.Fatalf("Negate(%s) did not flip on %v", e, g)
			}
		}
	}
}

// Expr rebuilds the clause as a predicate expression.
func (c Clause) Expr() Expr {
	if len(c) == 1 {
		return c[0]
	}
	terms := make([]Expr, len(c))
	for i, s := range c {
		terms[i] = s
	}
	return Or{Terms: terms}
}

// Expr rebuilds the CNF as a predicate expression, the oracle of
// TestCNFEquivalence.
func (f CNF) Expr() Expr {
	if len(f) == 1 {
		return f[0].Expr()
	}
	terms := make([]Expr, len(f))
	for i, c := range f {
		terms[i] = c.Expr()
	}
	return And{Terms: terms}
}

// TestCNFEquivalence model-checks ToCNF: the CNF must evaluate exactly
// like the original expression on random attribute assignments.
func TestCNFEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		e := randomExpr(rng, 4)
		cnf, err := ToCNF(e, 0)
		if err != nil {
			continue // budget exceeded is allowed, just not wrong
		}
		back := cnf.Expr()
		for i := 0; i < 20; i++ {
			g := randomGetter(rng)
			if e.Eval(g) != back.Eval(g) {
				t.Fatalf("CNF mismatch:\n orig: %s\n cnf:  %s\n env:  %v", e, back, g)
			}
		}
	}
}

// TestCNFClausesAreCovers verifies §6.3's cover property: any node
// satisfying the predicate satisfies at least one term of every clause.
func TestCNFClausesAreCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		e := randomExpr(rng, 4)
		cnf, err := ToCNF(e, 0)
		if err != nil {
			continue
		}
		for i := 0; i < 30; i++ {
			g := randomGetter(rng)
			if !e.Eval(g) {
				continue
			}
			for _, clause := range cnf {
				inCover := false
				for _, term := range clause {
					if term.Eval(g) {
						inCover = true
						break
					}
				}
				if !inCover {
					t.Fatalf("satisfying env %v not covered by clause %v of %s", g, clause, e)
				}
			}
		}
	}
}

func TestCNFBudget(t *testing.T) {
	// (a1 or b1) and (a2 or b2) ... distributes exponentially when
	// or-of-ands; build or-of-ands to force blowup.
	var terms []Expr
	for i := 0; i < 12; i++ {
		terms = append(terms, And{Terms: []Expr{
			Simple{Attr: attrName(i * 2), Op: OpEQ, Val: value.Int(1)},
			Simple{Attr: attrName(i*2 + 1), Op: OpEQ, Val: value.Int(1)},
		}})
	}
	_, err := ToCNF(Or{Terms: terms}, 64)
	if err == nil {
		t.Fatal("expected CNF budget error")
	}
}

func TestSimplesAndAttrs(t *testing.T) {
	e := MustParse("a = 1 and (b = 2 or a = 3)")
	if got := len(Simples(e)); got != 3 {
		t.Fatalf("Simples = %d terms", got)
	}
	attrs := Attrs(e)
	if len(attrs) != 2 || attrs[0] != "a" || attrs[1] != "b" {
		t.Fatalf("Attrs = %v", attrs)
	}
}

// ---------------------------------------------------------------------
// Random expression machinery shared by the property tests.

var testAttrs = []string{"p", "q", "r"}

func attrName(i int) string {
	return testAttrs[i%len(testAttrs)]
}

func randomSimple(rng *rand.Rand) Simple {
	ops := []Op{OpLT, OpGT, OpLE, OpGE, OpEQ, OpNE}
	return Simple{
		Attr: testAttrs[rng.Intn(len(testAttrs))],
		Op:   ops[rng.Intn(len(ops))],
		Val:  value.Int(int64(rng.Intn(5))),
	}
}

func randomExpr(rng *rand.Rand, depth int) Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		return randomSimple(rng)
	}
	n := rng.Intn(2) + 2
	terms := make([]Expr, n)
	for i := range terms {
		terms[i] = randomExpr(rng, depth-1)
	}
	if rng.Intn(2) == 0 {
		return And{Terms: terms}
	}
	return Or{Terms: terms}
}

func randomGetter(rng *rand.Rand) mapGetter {
	g := mapGetter{}
	for _, a := range testAttrs {
		switch rng.Intn(4) {
		case 0:
			// absent
		default:
			g[a] = value.Int(int64(rng.Intn(5)))
		}
	}
	return g
}

func hasAbsentOrIncomparable(e Expr, g mapGetter) bool {
	for _, s := range Simples(e) {
		v := g.Get(s.Attr)
		if !v.IsValid() {
			return true
		}
		if _, err := value.Compare(v, s.Val); err != nil {
			return true
		}
	}
	return false
}

func TestCanonQuickStable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 3)
		re, err := ParseExpr(e.Canon())
		if err != nil {
			return false
		}
		return re.Canon() == e.Canon()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSimpleCanonAllocBudget: a term's canonical text — the key of every
// group the planner and the nodes look up — is the fmt rendering of
// attribute, operator and value, built in one allocation for a bool or
// string operand of ordinary length.
func TestSimpleCanonAllocBudget(t *testing.T) {
	long := strings.Repeat("attribute_", 8)
	for _, s := range []Simple{
		{Attr: "apache", Op: OpEQ, Val: value.Bool(true)},
		{Attr: "os", Op: OpNE, Val: value.Str("linux")},
		{Attr: "slice", Op: OpEQ, Val: value.Str(`cs "101"\ü`)},
		{Attr: "cpu_util", Op: OpGE, Val: value.Float(0.5)},
		{Attr: "cpu_util", Op: OpLT, Val: value.Float(math.Inf(-1))},
		{Attr: "jobs", Op: OpGT, Val: value.Int(-123456789)},
		{Attr: long, Op: OpLE, Val: value.Str(long)},
		{Attr: "x", Op: OpInvalid},
	} {
		want := fmt.Sprintf("%s %s %s", s.Attr, s.Op, s.Val)
		if got := s.Canon(); got != want {
			t.Errorf("Canon() = %q, want %q", got, want)
		}
	}
	for _, s := range []Simple{
		{Attr: "apache", Op: OpEQ, Val: value.Bool(true)},
		{Attr: "os", Op: OpNE, Val: value.Str("linux")},
	} {
		if avg := testing.AllocsPerRun(100, func() { _ = s.Canon() }); avg > 1 {
			t.Errorf("%s: Canon allocates %.1f objects, want at most 1", s, avg)
		}
	}
}
