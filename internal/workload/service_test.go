package workload

import (
	"testing"
	"time"

	"github.com/moara/moara/internal/core"
)

// TestServiceQueriesShape proves the generated workload is exactly what
// the multiservice experiment assumes: q texts, every one parseable and
// standing, spanning exactly forms distinct canonical keys, with each
// variant normalizing to its form's key.
func TestServiceQueriesShape(t *testing.T) {
	const (
		q       = 200
		forms   = 32
		nSlices = 16
	)
	period := 200 * time.Millisecond
	texts := ServiceQueries(q, forms, nSlices, period)
	if len(texts) != q {
		t.Fatalf("got %d texts, want %d", len(texts), q)
	}
	// The first forms texts are each form's canonical variant.
	canonical := ServiceQueries(forms, forms, nSlices, period)
	if len(canonical) != forms {
		t.Fatalf("got %d forms, want %d", len(canonical), forms)
	}
	formKeys := make([]string, forms)
	seen := make(map[string]int)
	for f, text := range canonical {
		req, err := core.ParseRequest(text)
		if err != nil {
			t.Fatalf("form %d %q: %v", f, text, err)
		}
		key := core.CanonicalKey(req)
		if prev, dup := seen[key]; dup {
			t.Fatalf("forms %d and %d share key %q", prev, f, key)
		}
		seen[key] = f
		formKeys[f] = key
	}
	for i, text := range texts {
		req, err := core.ParseRequest(text)
		if err != nil {
			t.Fatalf("query %d %q: %v", i, text, err)
		}
		if req.Period != period {
			t.Fatalf("query %d %q: period %v, want %v", i, text, req.Period, period)
		}
		if key := core.CanonicalKey(req); key != formKeys[i%forms] {
			t.Fatalf("query %d %q normalizes to %q, want form %d key %q",
				i, text, key, i%forms, formKeys[i%forms])
		}
	}
}

func TestServiceQueriesFormCap(t *testing.T) {
	// forms beyond the distinct (spec, slice) space are clamped, never
	// silently duplicated.
	texts := ServiceQueries(10, 100, 2, time.Second) // cap = 8 forms
	keys := make(map[string]bool)
	for _, text := range texts {
		req, err := core.ParseRequest(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		keys[core.CanonicalKey(req)] = true
	}
	if len(keys) != 8 {
		t.Fatalf("distinct keys = %d, want 8", len(keys))
	}
}
