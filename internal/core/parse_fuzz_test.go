package core

import (
	"testing"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/predicate"
)

// FuzzParseRequestText fuzzes the front-end query language end to end
// (parseRequestText over one predicate.Parser token stream, calling
// aggregate.ParseSpecArg and Parser.Expr), seeded with the grammar
// examples from README "Query language" plus known-tricky shapes. The
// parser must never panic, and accepted requests must satisfy the
// Request invariants the planner relies on.
func FuzzParseRequestText(f *testing.F) {
	seeds := []string{
		// The grammar examples in README "Query language".
		"count(*) where service_x = true",
		"select max(cpu_usage) where service_x = true and apache = true",
		"avg(mem_util) group by slice where apache = true",
		"count(*) where apache = true group by os",
		"top3(load) where (service_x = true) and (apache = true)",
		"avg(load) where group = db every 2s",
		"avg(mem_util) group by slice every 500ms",
		// Sketch aggregates and their argument lists.
		"dcount(os) every 2s",
		"quantile(load, 0.99) group by slice",
		"p99(load) where apache = true",
		"p99.9(load)",
		"topkeys(os, 4) group by site",
		"topkeys5(os)",
		"union(slice)",
		"collect(load) every 1s",
		"quantile(x)",
		"quantile(x, 2)",
		"quantile(x,,)",
		"topkeys(x, 0)",
		"sum(x, 3)",
		// Clause keywords as attribute names and literals.
		"sum(every) where every = every",
		"count(*) where group = group",
		"min(x) where slice = 'group by'",
		"enum(x) where s = \"every 5s\"",
		// Degenerate and hostile shapes.
		"select",
		"count()",
		"count(*) where",
		"count(*) every",
		"count(*) every 5s every 5s",
		"count(*) group by",
		"top(x)",
		"top999999999999999999999(x)",
		"avg(mem_util) every -5s",
		"avg(mem_util) every 5",
		"count(*) every 1ns",
		"count(*) every 999us",
		"count(*) every 1ms",
		"std(x) where ((a = 1) and (b = 2)) or not (c < 3)",
		"count(*) where a = \xff\xfe",
		"avg(x) group by é",
		// Forms the one-stream reader rejects: an attribute that is not
		// one word, a keyword glued to the next word, a clause inside
		// the predicate.
		"avg(mem util)",
		"avg(!)",
		"count(*) wherex = 1",
		"avg(x) where a = 1 every 2s and b = 2",
		"avg(x) where a = 1 group by os and b = 2",
		// Any lexer space separates clause words.
		"avg(x) where a = 1\revery 2s",
		"avg(x) where a = 1\vgroup by os",
		"select\favg(x)\fevery\f2s",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		req, err := parseRequestText(s)
		if err != nil {
			return
		}
		// The attribute crosses the wire as a name every node looks up,
		// so it must be exactly one word of the query language.
		p := predicate.NewParser(req.Attr)
		if w, ok := p.Word(); !ok || w != req.Attr || p.Done() != nil {
			t.Fatalf("accepted %q with attribute %q that is not one word", s, req.Attr)
		}
		if req.Spec.Kind == aggregate.KindInvalid {
			t.Fatalf("accepted %q with invalid spec", s)
		}
		if req.Period != 0 && req.Period < minPeriod {
			t.Fatalf("accepted %q with period %v below the %v floor", s, req.Period, minPeriod)
		}
		if req.GroupBy != "" && !validGroupKey(req.GroupBy) {
			t.Fatalf("accepted %q with bad group key %q", s, req.GroupBy)
		}
		if req.Pred != nil {
			// The canonical form is what travels on the wire (QueryMsg
			// Group/Eval); nodes must be able to re-parse it.
			canon := req.Pred.Canon()
			if _, perr := predicate.ParseExpr(canon); perr != nil {
				t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, s, perr)
			}
		}
	})
}
