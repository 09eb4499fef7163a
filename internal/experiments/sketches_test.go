package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestSketchesShape asserts the bounded-state headline at a scaled-down
// size: across a 100x cardinality sweep the exact enum state grows
// linearly while every sketch state stays flat (an HLL never outgrows
// its dense register file and header, orders of magnitude under enum),
// and the standing dcount/p99 streams land within their error bounds
// against the live-population oracle.
func TestSketchesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	tab := RunSketches(SketchesOptions{N: 300, Cardinalities: []int{100, 1000, 10000}, Epochs: 6,
		Period: 200 * time.Millisecond, Seed: 1})
	type cell struct{ bytes, err float64 }
	bySeries := map[string]map[string]cell{} // series -> distinct_or_n -> cell
	for _, row := range tab.Rows {
		t.Log(row)
		m := bySeries[row[0]]
		if m == nil {
			m = map[string]cell{}
			bySeries[row[0]] = m
		}
		c := cell{bytes: -1, err: -1}
		if row[2] != "-" {
			c.bytes = parseF(t, row[2])
		}
		if e := strings.TrimSuffix(row[5], "%"); e != row[5] {
			c.err = parseF(t, e)
		}
		m[row[1]] = c
	}
	enum, hll := bySeries["enum (exact)"], bySeries["dcount (hll)"]
	quant := bySeries["p99 (quantile summary)"]
	if enum["10000"].bytes < 50*enum["100"].bytes {
		t.Errorf("enum state did not grow linearly: %v bytes at 100, %v at 10000",
			enum["100"].bytes, enum["10000"].bytes)
	}
	// A dense HLL is its 2^11 one-byte registers plus a few varints.
	for card, c := range hll {
		if c.bytes > 1<<11+8 {
			t.Errorf("HLL state grew past its bound: %v bytes at %s distinct", c.bytes, card)
		}
	}
	if hll["10000"].bytes*20 > enum["10000"].bytes {
		t.Errorf("HLL state %v bytes not well under enum %v at 10k distinct",
			hll["10000"].bytes, enum["10000"].bytes)
	}
	// 3 sigma for 2^11 registers is ~6.9%; the rank bound for the
	// quantile summary at these sizes is well under 2%.
	for card, c := range hll {
		if c.err > 6.9 {
			t.Errorf("dcount error %.1f%% at %s distinct exceeds the 3-sigma bound", c.err, card)
		}
	}
	for card, c := range quant {
		if c.err > 2.0 {
			t.Errorf("p99 rank error %.1f%% at %s values exceeds the summary bound", c.err, card)
		}
	}
	if c := bySeries["standing dcount(host)"]["300"]; c.err < 0 || c.err > 6.9 {
		t.Errorf("standing dcount error %.1f%% out of bounds", c.err)
	}
	if c := bySeries["standing p99(load)"]["300"]; c.err < 0 || c.err > 2.0 {
		t.Errorf("standing p99 rank error %.1f%% out of bounds", c.err)
	}
}
