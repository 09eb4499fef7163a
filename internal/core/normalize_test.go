package core

import (
	"testing"
	"time"
)

// TestCanonicalKeyEquivalentRequests proves the service's cache /
// subsumption key collapses syntactic variants of the same query and
// separates genuinely different ones.
func TestCanonicalKeyEquivalentRequests(t *testing.T) {
	same := [][2]string{
		{"avg(cpu) where a = 1 and b = 2", "avg(cpu) where b = 2 and a = 1"},
		{"avg(cpu) where a = 1 and (b = 2 and c = 3)", "avg(cpu) where a = 1 and b = 2 and c = 3"},
		{"sum(x) where load > 3 and load > 5", "sum(x) where load > 5"},
		{"count(*) every 2s", "count(*) every 2000ms"},
		{"avg(cpu) group by slice every 1s", "avg( cpu ) group by slice every 1s"},
	}
	for _, pair := range same {
		ra, err := ParseRequest(pair[0])
		if err != nil {
			t.Fatalf("parse %q: %v", pair[0], err)
		}
		rb, err := ParseRequest(pair[1])
		if err != nil {
			t.Fatalf("parse %q: %v", pair[1], err)
		}
		if ka, kb := CanonicalKey(ra), CanonicalKey(rb); ka != kb {
			t.Errorf("keys differ:\n  %q -> %q\n  %q -> %q", pair[0], ka, pair[1], kb)
		}
	}
	distinct := [][2]string{
		{"avg(cpu)", "sum(cpu)"},
		{"avg(cpu)", "avg(mem)"},
		{"avg(cpu)", "avg(cpu) group by slice"},
		{"avg(cpu)", "avg(cpu) where a = 1"},
		{"avg(cpu) every 1s", "avg(cpu) every 2s"},
		{"avg(cpu)", "avg(cpu) every 1s"}, // one-shot vs standing
	}
	for _, pair := range distinct {
		ra, err := ParseRequest(pair[0])
		if err != nil {
			t.Fatalf("parse %q: %v", pair[0], err)
		}
		rb, err := ParseRequest(pair[1])
		if err != nil {
			t.Fatalf("parse %q: %v", pair[1], err)
		}
		if ka, kb := CanonicalKey(ra), CanonicalKey(rb); ka == kb {
			t.Errorf("keys collide: %q and %q both -> %q", pair[0], pair[1], ka)
		}
	}
}

// TestFormatRequestRoundTrip proves the text the service renders for a
// text-only backend re-parses to the same canonical key — installing
// the rendered form is installing the normalized request.
func TestFormatRequestRoundTrip(t *testing.T) {
	texts := []string{
		"avg(cpu)",
		"count(*)",
		"sum(load) where apache = true",
		"max(cpu) where a = 1 and b > 2.5 group by slice",
		"avg(mem) group by dc every 3s",
		"count(*) where os = linux or os = freebsd every 500ms",
		"top3(cpu) group by slice",
		"avg(x) every 500us",
	}
	for _, text := range texts {
		req, err := ParseRequest(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		nreq := NormalizeRequest(req)
		rendered := FormatRequest(nreq)
		back, err := ParseRequest(rendered)
		if err != nil {
			t.Fatalf("re-parse %q (rendered from %q): %v", rendered, text, err)
		}
		if CanonicalKey(back) != CanonicalKey(req) {
			t.Errorf("round trip changed key:\n  orig     %q -> %q\n  rendered %q -> %q",
				text, CanonicalKey(req), rendered, CanonicalKey(back))
		}
		if back.Period != req.Period {
			t.Errorf("%q: period %v -> %v through render", text, req.Period, back.Period)
		}
	}
}

func TestNormalizeRequestTrimsNames(t *testing.T) {
	a := Request{Attr: " cpu ", GroupBy: " slice ", Period: time.Second}
	b := Request{Attr: "cpu", GroupBy: "slice", Period: time.Second}
	if CanonicalKey(a) != CanonicalKey(b) {
		t.Fatalf("trimmed keys differ: %q vs %q", CanonicalKey(a), CanonicalKey(b))
	}
}
