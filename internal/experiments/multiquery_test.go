package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestMultiQueryShape asserts the issue's acceptance headline at its
// target scale (N=300, quick profile): 8 concurrent standing queries
// cost at most 1.25x the wire messages/epoch of 1 standing query
// (instead of ~8x unbatched), logical accounting still sees the ~8x,
// and the coalesced run's per-sample values are identical to the
// uncoalesced run's.
func TestMultiQueryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	tab := RunMultiQuery(MultiQueryOptions{N: 300, Slices: 16, Qs: []int{1, 2, 4, 8}, Epochs: 24,
		Period: 200 * time.Millisecond, Seed: 1})
	wire := map[string]float64{}
	logical := map[string]float64{}
	for _, row := range tab.Rows {
		wire[row[0]] = parseF(t, row[3])
		logical[row[0]] = parseF(t, row[4])
		t.Log(row)
	}
	w1, w8 := wire["standing x1"], wire["standing x8"]
	wOff := wire["standing x8 (coalesce off)"]
	if w1 == 0 || w8 == 0 || wOff == 0 {
		t.Fatalf("missing standing series in %v", tab.Rows)
	}
	if w8 > 1.25*w1 {
		t.Errorf("8 standing queries cost %.1f wire msgs/epoch, want <= 1.25x of 1 query (%.1f)", w8, w1)
	}
	if wOff < 6*w1 {
		t.Errorf("uncoalesced 8-query run should cost ~8x (%.1f vs %.1f)", wOff, w1)
	}
	// Coalescing is a wire-level optimization only: logical accounting
	// still sees every per-subscription report.
	if l1, l8 := logical["standing x1"], logical["standing x8"]; l8 < 7*l1 {
		t.Errorf("logical msgs should scale ~8x with Q: %.1f vs %.1f", l8, l1)
	}
	if !strings.Contains(tab.Note, "per-sample values identical across coalesced/uncoalesced: true") {
		t.Errorf("per-sample equivalence failed: %s", tab.Note)
	}
	// The Nagle-style window lets concurrent one-shot bursts share
	// envelopes too: well under the naive Qx wire cost.
	if b, w := wire["one-shot x8 (concurrent burst)"], wire["one-shot x8 (window=25ms)"]; w > b/2 {
		t.Errorf("windowed one-shot burst should coalesce: %.1f vs unwindowed %.1f", w, b)
	}
}
