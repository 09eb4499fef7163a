package core

import (
	"testing"
	"time"

	"github.com/moara/moara/internal/aggregate"
)

func TestParseRequestForms(t *testing.T) {
	tests := []struct {
		in       string
		wantAttr string
		wantKind aggregate.Kind
		wantK    int
		wantPred bool
		wantBy   string
	}{
		{"avg(mem_util)", "mem_util", aggregate.KindAvg, 0, false, ""},
		{"select avg(mem_util)", "mem_util", aggregate.KindAvg, 0, false, ""},
		{"count(*) where apache = true", "*", aggregate.KindCount, 0, true, ""},
		{"SELECT MAX(cpu) WHERE x = 1 and y = 2", "cpu", aggregate.KindMax, 0, true, ""},
		{"top3(load) where slice = s1", "load", aggregate.KindTopK, 3, true, ""},
		{"sum( a ) where b < 2.5", "a", aggregate.KindSum, 0, true, ""},
		{"enum(hostname) where dc = east", "hostname", aggregate.KindEnum, 0, true, ""},
		{"avg(mem_util) group by slice", "mem_util", aggregate.KindAvg, 0, false, "slice"},
		{"avg(mem_util) group by slice where apache = true", "mem_util", aggregate.KindAvg, 0, true, "slice"},
		{"avg(mem_util) where apache = true group by slice", "mem_util", aggregate.KindAvg, 0, true, "slice"},
		{"count(*) GROUP BY os", "*", aggregate.KindCount, 0, false, "os"},
		{"select count(*) group by dc.rack where (a = 1) and (b = 2)", "*", aggregate.KindCount, 0, true, "dc.rack"},
		// "group" as a plain attribute name or inside a quoted literal
		// must not be mistaken for a clause.
		{"count(*) where group = true", "*", aggregate.KindCount, 0, true, ""},
		{`count(*) where note = "x group by rack y"`, "*", aggregate.KindCount, 0, true, ""},
	}
	for _, tc := range tests {
		req, err := parseRequestText(tc.in)
		if err != nil {
			t.Errorf("parse %q: %v", tc.in, err)
			continue
		}
		if req.Attr != tc.wantAttr {
			t.Errorf("%q: attr = %q, want %q", tc.in, req.Attr, tc.wantAttr)
		}
		if req.Spec.Kind != tc.wantKind || req.Spec.K != tc.wantK {
			t.Errorf("%q: spec = %v", tc.in, req.Spec)
		}
		if (req.Pred != nil) != tc.wantPred {
			t.Errorf("%q: pred present = %v, want %v", tc.in, req.Pred != nil, tc.wantPred)
		}
		if req.GroupBy != tc.wantBy {
			t.Errorf("%q: group by = %q, want %q", tc.in, req.GroupBy, tc.wantBy)
		}
	}
}

func TestParseRequestSketchForms(t *testing.T) {
	tests := []struct {
		in       string
		wantAttr string
		wantKind aggregate.Kind
		wantK    int
		wantQ    float64
		wantPred bool
		wantBy   string
	}{
		{"dcount(os)", "os", aggregate.KindDCount, 0, 0, false, ""},
		{"countdistinct(os)", "os", aggregate.KindDCount, 0, 0, false, ""},
		{"DCOUNT(os) where apache = true", "os", aggregate.KindDCount, 0, 0, true, ""},
		{"quantile(load, 0.99)", "load", aggregate.KindQuantile, 0, 0.99, false, ""},
		{"quantile(load,0.5) group by slice", "load", aggregate.KindQuantile, 0, 0.5, false, "slice"},
		{"percentile(load, 0.95)", "load", aggregate.KindQuantile, 0, 0.95, false, ""},
		{"p99(load)", "load", aggregate.KindQuantile, 0, 0.99, false, ""},
		{"p99.9(load) where apache = true", "load", aggregate.KindQuantile, 0, 0.999, true, ""},
		{"P50(load)", "load", aggregate.KindQuantile, 0, 0.5, false, ""},
		{"topkeys(os)", "os", aggregate.KindTopKeys, aggregate.DefaultTopKeys, 0, false, ""},
		{"topkeys(os, 4) group by site", "os", aggregate.KindTopKeys, 4, 0, false, "site"},
		{"topkeys5(os)", "os", aggregate.KindTopKeys, 5, 0, false, ""},
		{"union(slice)", "slice", aggregate.KindUnion, 0, 0, false, ""},
		{"collect(load) where apache = true", "load", aggregate.KindCollect, 0, 0, true, ""},
	}
	for _, tc := range tests {
		req, err := parseRequestText(tc.in)
		if err != nil {
			t.Errorf("parse %q: %v", tc.in, err)
			continue
		}
		if req.Attr != tc.wantAttr {
			t.Errorf("%q: attr = %q, want %q", tc.in, req.Attr, tc.wantAttr)
		}
		if req.Spec.Kind != tc.wantKind || req.Spec.K != tc.wantK || req.Spec.Q != tc.wantQ {
			t.Errorf("%q: spec = %+v", tc.in, req.Spec)
		}
		if (req.Pred != nil) != tc.wantPred {
			t.Errorf("%q: pred present = %v, want %v", tc.in, req.Pred != nil, tc.wantPred)
		}
		if req.GroupBy != tc.wantBy {
			t.Errorf("%q: group by = %q, want %q", tc.in, req.GroupBy, tc.wantBy)
		}
	}
}

func TestParseRequestEveryForms(t *testing.T) {
	tests := []struct {
		in         string
		wantPeriod time.Duration
		wantBy     string
		wantPred   bool
	}{
		{"avg(load) every 2s", 2 * time.Second, "", false},
		{"avg(load) where group = db every 2s", 2 * time.Second, "", true},
		{"avg(load) every 2s where group = db", 2 * time.Second, "", true},
		{"count(*) every 500ms", 500 * time.Millisecond, "", false},
		{"avg(x) every 1m30s where a = true", 90 * time.Second, "", true},
		{"avg(mem_util) group by slice every 2s", 2 * time.Second, "slice", false},
		{"avg(mem_util) every 2s group by slice where a = true", 2 * time.Second, "slice", true},
		{"avg(mem_util) where a = true group by slice every 250ms", 250 * time.Millisecond, "slice", true},
		{"count(*) EVERY 3s", 3 * time.Second, "", false},
		// "every" as an attribute name, literal value (including in
		// trailing position), group-by key, or inside a quoted string
		// must not be mistaken for a clause.
		{"count(*) where every = true", 0, "", true},
		{"count(*) where slice = every", 0, "", true},
		{"sum(x) where a = true and slice = every", 0, "", true},
		{"avg(x) group by every", 0, "every", false},
		{`count(*) where note = "tick every 2s"`, 0, "", true},
		// One-shot queries stay period-free.
		{"avg(mem_util) where a = true", 0, "", true},
		// Every byte the lexer reads as a space separates clause words.
		{"avg(x) where a = 1\revery 2s", 2 * time.Second, "", true},
		{"avg(x) where a = 1\vgroup by os every 2s", 2 * time.Second, "os", true},
		{"select\favg(x)\fgroup\fby\fos\fevery\f2s", 2 * time.Second, "os", false},
	}
	for _, tc := range tests {
		req, err := parseRequestText(tc.in)
		if err != nil {
			t.Errorf("parse %q: %v", tc.in, err)
			continue
		}
		if req.Period != tc.wantPeriod {
			t.Errorf("%q: period = %v, want %v", tc.in, req.Period, tc.wantPeriod)
		}
		if req.GroupBy != tc.wantBy {
			t.Errorf("%q: group by = %q, want %q", tc.in, req.GroupBy, tc.wantBy)
		}
		if (req.Pred != nil) != tc.wantPred {
			t.Errorf("%q: pred present = %v, want %v", tc.in, req.Pred != nil, tc.wantPred)
		}
	}
}

func TestParseRequestEveryErrors(t *testing.T) {
	bad := []string{
		"avg(x) every",
		"avg(x) every 2x",
		"avg(x) every 2",
		"avg(x) every 0s",
		"avg(x) every -5s",
		"count(*) every 1ns",
		"count(*) every 999us",
		"avg(x) every 500us",
		"avg(x) every 2s every 3s",
		"avg(x) every 1s every 1s where a = true",
		"avg(x) every 2s trailing garbage",
		"avg(x) group by every 2s",
		"avg(x) where every 2s",
		"avg(x) every 2s group by",
		"avg(x) every 2s where",
	}
	for _, in := range bad {
		if _, err := parseRequestText(in); err == nil {
			t.Errorf("parse %q should fail", in)
		}
	}
}

func TestParseRequestErrors(t *testing.T) {
	bad := []string{
		"",
		"avg",
		"avg(",
		"avg()",
		"bogus(x)",
		"avg(x) whence y = 1",
		"avg(x) where",
		"avg(x) where y ~ 1",
		"selectavg(x)",
		"avg(x) group",
		"avg(x) group slice",
		"avg(x) group by",
		"avg(x) group by *",
		"avg(x) group by (slice)",
		"avg(x) group by slice extra",
		"avg(x) group by slice group by os",
		"avg(x) where y = 1 group by",
		"avg(x) trailing garbage",
		// Sketch argument-list errors.
		"quantile(x)",            // quantile requires a q argument
		"quantile(x, 2)",         // q outside (0,1)
		"quantile(x, 0)",         // q outside (0,1)
		"quantile(x, nan)",       // non-numeric q
		"quantile(x,)",           // empty argument
		"quantile(x,,)",          // argument itself contains a comma
		"quantile(x, 0.5, 3)",    // too many arguments
		"p0(x)",                  // pNN must be in (0,100)
		"p100(x)",                // pNN must be in (0,100)
		"p99.99999999(x)",        // rank rounds to 1
		"p0.00001(x)",            // rank rounds to 0
		"quantile(x, 0.9999999)", // q rounds to 1
		"quantile(x, 0.0000001)", // q rounds to 0
		"topkeys(x, 0)",          // k must be positive
		"topkeys(x, -2)",         // k must be positive
		"topkeys(x, three)",      // non-numeric k
		"topkeys0(x)",            // suffix form k must be positive
		"sum(x, 3)",              // exact aggregates take no argument
		"dcount(os, 4)",          // dcount takes no argument
		"union(slice, 9)",        // union takes no argument
		"top3(load, 4)",          // prefix forms take no argument
		// The attribute is one word, a keyword is a whole word, and no
		// clause sits inside the predicate.
		"count(*) wherex = 1",
		"avg(mem util)",
		"avg(!)",
		"avg(x) where a = 1 every 2s and b = 2",
		"avg(x) where a = 1 group by os and b = 2",
	}
	for _, in := range bad {
		if _, err := parseRequestText(in); err == nil {
			t.Errorf("parse %q should fail", in)
		}
	}
}

func TestParseRequestSelectPrefixIsWordBounded(t *testing.T) {
	// "selector(x)" must not be treated as "select or(x)".
	if _, err := parseRequestText("selector(x)"); err == nil {
		t.Error("selector(x) should fail to parse")
	}
}
