package predicate

import (
	"testing"

	"github.com/moara/moara/internal/value"
)

// canon parses and normalizes, returning the canonical rendering.
func canon(t *testing.T, text string) string {
	t.Helper()
	e, err := ParseExpr(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return Normalize(e).Canon()
}

func TestNormalizeEquivalentForms(t *testing.T) {
	cases := []struct {
		name string
		a, b string
	}{
		{"commuted and", "a = 1 and b = 2", "b = 2 and a = 1"},
		{"commuted or", "a = 1 or b = 2", "b = 2 or a = 1"},
		{"nested and flattens", "a = 1 and (b = 2 and c = 3)", "a = 1 and b = 2 and c = 3"},
		{"nested or flattens", "a = 1 or (b = 2 or c = 3)", "a = 1 or b = 2 or c = 3"},
		{"duplicate term drops", "a = 1 and a = 1", "a = 1"},
		{"duplicate or term drops", "a = 1 or a = 1 or b = 2", "a = 1 or b = 2"},
		{"and tighter lower bound wins", "x > 3 and x > 5", "x > 5"},
		{"and tighter upper bound wins", "x < 9 and x < 4", "x < 4"},
		{"or looser lower bound wins", "x > 3 or x > 5", "x > 3"},
		{"or looser upper bound wins", "x < 9 or x < 4", "x < 9"},
		{"equal threshold and keeps strict", "x > 5 and x >= 5", "x > 5"},
		{"equal threshold or keeps non-strict", "x > 5 or x >= 5", "x >= 5"},
		{"bounds fold with other terms", "svc = true and x > 1 and x > 2", "svc = true and x > 2"},
		{"int and float thresholds compare", "x > 2 and x > 2.5", "x > 2.5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if ca, cb := canon(t, tc.a), canon(t, tc.b); ca != cb {
				t.Fatalf("Canon(%q) = %q, Canon(%q) = %q; want equal", tc.a, ca, tc.b, cb)
			}
		})
	}
}

func TestNormalizeDistinctFormsStayDistinct(t *testing.T) {
	cases := []struct {
		name string
		a, b string
	}{
		{"different ops", "x > 5", "x >= 5"},
		{"and vs or", "a = 1 and b = 2", "a = 1 or b = 2"},
		{"opposite directions do not fold", "x > 3 and x < 5", "x > 3"},
		// A string bound is not comparable to a numeric one, so neither
		// term may be dropped.
		{"mixed types keep both", "x > 2 and x > abc", "x > 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if ca, cb := canon(t, tc.a), canon(t, tc.b); ca == cb {
				t.Fatalf("Canon(%q) == Canon(%q) == %q; want distinct", tc.a, tc.b, ca)
			}
		})
	}
}

// TestNormalizePreservesEvaluation proves normalization is semantic
// identity: the normalized predicate evaluates exactly like the
// original over a sweep of attribute assignments, including missing
// attributes.
func TestNormalizePreservesEvaluation(t *testing.T) {
	exprs := []string{
		"a = 1 and (b = 2 and c = 3)",
		"x > 3 and x > 5",
		"x > 3 or x > 5",
		"x > 5 and x >= 5",
		"x > 5 or x >= 5",
		"x > 2 and x < 8 and svc = true",
		"a = 1 or (b = 2 or a = 1)",
		"x > 2 and x > abc",
	}
	assignments := []map[string]value.Value{
		{},
		{"x": value.Int(4)},
		{"x": value.Int(5)},
		{"x": value.Int(6)},
		{"x": value.Float(5.0)},
		{"x": value.Str("abc")},
		{"a": value.Int(1), "b": value.Int(2), "c": value.Int(3)},
		{"a": value.Int(1), "b": value.Int(9)},
		{"x": value.Int(7), "svc": value.Bool(true)},
		{"x": value.Int(7), "svc": value.Bool(false)},
	}
	for _, text := range exprs {
		e, err := ParseExpr(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		n := Normalize(e)
		for i, vals := range assignments {
			g := GetterFunc(func(name string) value.Value { return vals[name] })
			if e.Eval(g) != n.Eval(g) {
				t.Fatalf("%q: assignment %d: Eval(orig)=%v, Eval(normalized)=%v",
					text, i, e.Eval(g), n.Eval(g))
			}
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	for _, text := range []string{
		"a = 1 and (b = 2 and c = 3)", "x > 3 and x > 5", "a = 1 or a = 1",
	} {
		e, err := ParseExpr(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		once := Normalize(e)
		twice := Normalize(once)
		if once.Canon() != twice.Canon() {
			t.Fatalf("%q: Normalize not idempotent: %q vs %q", text, once.Canon(), twice.Canon())
		}
	}
}

func TestNormalizeNil(t *testing.T) {
	if Normalize(nil) != nil {
		t.Fatal("Normalize(nil) != nil")
	}
}
