package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestMultiServiceShape asserts the acceptance headline at a reduced
// scale (N=200, Q=500 over 16 forms): the service run's wire bill stays
// within 1.25x of installing the 16 distinct forms directly, every
// subsumed subscriber's stream is byte-identical to the direct run's,
// and repeated cached one-shots cost one execution.
func TestMultiServiceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	tab := RunMultiService(MultiServiceOptions{N: 200, Q: 500, Forms: 16, Slices: 8, Epochs: 6,
		Period: 200 * time.Millisecond, Seed: 1})
	for _, row := range tab.Rows {
		t.Log(row)
	}
	var direct, svc float64
	for _, row := range tab.Rows {
		switch {
		case row[0] == "direct (one per form)":
			direct = parseF(t, row[3])
		case strings.HasPrefix(row[0], "service x"):
			svc = parseF(t, row[3])
			if row[2] != "16" {
				t.Errorf("service installed %s streams, want 16", row[2])
			}
			if row[5] != "true" {
				t.Errorf("subsumed streams not byte-identical: %v", row)
			}
		}
	}
	if direct == 0 || svc == 0 {
		t.Fatalf("missing series in %v", tab.Rows)
	}
	if svc > 1.25*direct {
		t.Errorf("service run cost %.0f wire msgs, want <= 1.25x direct (%.0f)", svc, direct)
	}
	if !strings.Contains(tab.Note, "streams identical=true") {
		t.Errorf("stream equivalence failed: %s", tab.Note)
	}
	if !strings.Contains(tab.Note, "cache hits=99/99") {
		t.Errorf("cache hits missing from note: %s", tab.Note)
	}
}
