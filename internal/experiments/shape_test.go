package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// TestFig11aShape asserts §5's headline: with the separate query plane
// (threshold>1) the query cost is flat in system size; without it
// (threshold=1) the cost keeps growing.
func TestFig11aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	// Steady-state (warmed) costs isolate the §5 claim from cold-start
	// broadcast amortization.
	sizes := []int{256, 1024, 4096}
	var t1, t2 []float64
	for _, n := range sizes {
		qc1, _ := sqpCosts(n, 8, 1, 60, 5, 3)
		qc2, _ := sqpCosts(n, 8, 2, 60, 5, 3)
		t1 = append(t1, qc1)
		t2 = append(t2, qc2)
		t.Logf("N=%d: threshold1=%.1f threshold2=%.1f", n, qc1, qc2)
	}
	growth1 := t1[len(t1)-1] / t1[0]
	growth2 := t2[len(t2)-1] / t2[0]
	if growth1 < 1.3 {
		t.Errorf("threshold=1 cost should grow with N (x%.2f)", growth1)
	}
	// With the SQP the plane approaches its O(m) plateau: growth must
	// be clearly slower than without it, and bounded.
	if growth2 >= growth1-0.1 {
		t.Errorf("threshold=2 growth (x%.2f) should trail threshold=1 (x%.2f)", growth2, growth1)
	}
	if t2[len(t2)-1] >= t1[len(t1)-1] {
		t.Errorf("SQP should beat threshold=1 at large N: %v vs %v", t2[len(t2)-1], t1[len(t1)-1])
	}
	// §5's bound: the warmed query plane holds at most ~2m nodes, so a
	// query costs at most ~2 messages per plane node plus the root hop.
	if t2[len(t2)-1] > 4*8+10 {
		t.Errorf("threshold=2 steady cost %v exceeds O(m) bound for m=8", t2[len(t2)-1])
	}
}

// TestFig12aShape asserts the Emulab claims: Moara latency and message
// cost scale with group size and beat the SDIMS global tree on small
// groups by a large factor (paper: up to 4x latency, 10x bandwidth).
func TestFig12aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	tab := RunFig12a(Fig12aOptions{N: 300, GroupSizes: []int{32, 128}, Queries: 30, Seed: 5})
	byLabel := map[string][]float64{}
	for _, row := range tab.Rows {
		byLabel[row[0]] = []float64{parseF(t, row[1]), parseF(t, row[2])}
		t.Log(row)
	}
	small, large, sdims := byLabel["group32"], byLabel["group128"], byLabel["SDIMS"]
	if small[0] >= large[0] {
		t.Errorf("latency should grow with group size: %v vs %v", small[0], large[0])
	}
	if small[1] >= large[1] {
		t.Errorf("messages should grow with group size: %v vs %v", small[1], large[1])
	}
	if sdims[1] < 4*small[1] {
		t.Errorf("SDIMS bandwidth %v should dwarf group32 %v", sdims[1], small[1])
	}
	if sdims[0] < 1.3*small[0] {
		t.Errorf("SDIMS latency %v should clearly exceed group32 %v", sdims[0], small[0])
	}
}

// TestFig13bShape asserts §7.2's composite-query claims: intersection
// latency (excluding probes) is flat in the number of groups, union
// latency grows, and intersections choose exactly one group.
func TestFig13bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	tab := RunFig13b(Fig13bOptions{
		N: 200, GroupSize: 30, MaxGroups: 4, Queries: 25, ComplexTi: 3, Seed: 7,
	})
	for _, row := range tab.Rows {
		t.Log(row)
	}
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	// union latency grows with n.
	if u0, uN := parseF(t, first[2]), parseF(t, last[2]); uN < u0 {
		t.Errorf("union latency should not shrink: %v -> %v", u0, uN)
	}
	// intersection-without-probes stays roughly flat (within 2x).
	if i0, iN := parseF(t, first[4]), parseF(t, last[4]); iN > 2*i0+5 {
		t.Errorf("intersection noSP latency should stay flat: %v -> %v", i0, iN)
	}
	// every query completes well under a second on the LAN model
	// (paper: all composite queries < 500ms).
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			if v := parseF(t, cell); v > 1000 {
				t.Errorf("composite query latency %vms too high (row %v)", v, row)
			}
		}
	}
}

// TestFig14Shape asserts Fig. 14's shape on the wide-area model: each
// group's latency CDF is non-decreasing, and a query over every node
// pays for more stragglers than one over a quarter of them, at the
// median and at the 90th percentile.
func TestFig14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	tab := RunFig14(Fig14Options{N: 100, GroupSizes: []int{25, 100}, Queries: 40, Seed: 1})
	rows := map[string][]float64{}
	prev := []float64{0, 0}
	for _, row := range tab.Rows {
		t.Log(row)
		cur := []float64{parseF(t, row[1]), parseF(t, row[2])}
		for i := range cur {
			if cur[i] < prev[i] {
				t.Errorf("%s column falls from %v to %v at %s", tab.Columns[i+1], prev[i], cur[i], row[0])
			}
		}
		rows[row[0]], prev = cur, cur
	}
	for _, p := range []string{"50%", "90%"} {
		if small, all := rows[p][0], rows[p][1]; all <= small {
			t.Errorf("%s latency: all nodes %v ms, want above the 25-node group's %v ms", p, all, small)
		}
	}
}

// TestFig15Crossover asserts the tortoise-and-hare shape: the central
// aggregator's early replies beat Moara, but its tail (waiting for
// straggler nodes) is far worse than Moara's bounded completion.
func TestFig15Crossover(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	// A 25%-of-system group: the regime where Moara's plane clearly
	// avoids out-of-group stragglers (the paper's headline contrast).
	tab := RunFig15(Fig15Options{N: 120, GroupSizes: []int{30}, Queries: 12, Seed: 1})
	rows := map[string][]string{}
	for _, row := range tab.Rows {
		rows[row[0]] = row
		t.Log(row)
	}
	// Columns: pctile, moara30, central30.
	p25 := rows["25%"]
	p100 := rows["100%"]
	if parseF(t, p25[2]) >= parseF(t, p25[1]) {
		t.Errorf("central early replies (%v) should beat Moara completion (%v)", p25[2], p25[1])
	}
	if parseF(t, p100[2]) <= parseF(t, p100[1]) {
		t.Errorf("central tail (%v) should be worse than Moara (%v)", p100[2], p100[1])
	}
}

// TestFig16Tracks asserts that per-query latency tracks the bottleneck
// link RTT of the tree (the paper's offline analysis conclusion).
func TestFig16Tracks(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	tab := RunFig16(Fig16Options{N: 100, Queries: 20, Seed: 11})
	above := 0
	for _, row := range tab.Rows {
		lat, bott := parseF(t, row[1]), parseF(t, row[2])
		if bott <= 0 {
			// Every query crosses at least one tree edge, so a zero
			// bottleneck means the tap saw no query traffic at all.
			t.Fatalf("query %s: bottleneck %v ms, want > 0", row[0], bott)
		}
		if lat >= 0.8*bott {
			above++
		}
	}
	// Completion can never beat the bottleneck round trip by much; the
	// bulk of queries must sit at or above it.
	if above < len(tab.Rows)*3/4 {
		t.Errorf("latency below bottleneck too often: %d/%d at/above", above, len(tab.Rows))
	}
}

// TestFig2Generators sanity-checks the synthetic trace shapes.
func TestFig2Generators(t *testing.T) {
	a := RunFig2a(Fig2aOptions{Slices: 400, MaxNodes: 450, Seed: 1})
	if !strings.Contains(a.Note, "% of slices under 10") {
		t.Fatalf("fig2a note missing distribution stat: %s", a.Note)
	}
	pct, err := parseLeadingInt(a.Note[strings.LastIndex(a.Note, "; ")+2:])
	if err != nil {
		t.Fatalf("parse pct from note %q: %v", a.Note, err)
	}
	if pct < 35 || pct > 75 {
		t.Errorf("slice distribution should have ~half under 10 nodes, got %d%%", pct)
	}
	top := parseF(t, a.Rows[0][1])
	bottom := parseF(t, a.Rows[len(a.Rows)-1][1])
	if top <= bottom {
		t.Errorf("rank-1 slice (%v) should dominate rank-last (%v)", top, bottom)
	}
	b := RunFig2b(Fig2bOptions{Minutes: 1400, Peak: 170, Seed: 1})
	if len(b.Rows) < 10 {
		t.Fatalf("fig2b too few samples: %d", len(b.Rows))
	}
}

// parseLeadingInt reads the decimal prefix of s.
func parseLeadingInt(s string) (int, error) {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return strconv.Atoi(s[:i])
}

// TestFig12bBounded asserts that churn keeps latency bounded near the
// static baseline (paper: ~150ms even under full-group churn each 5s).
func TestFig12bBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	tab := RunFig12b(Fig12bOptions{
		N: 200, GroupSize: 50, Churns: []int{40}, Queries: 25, Seed: 13,
		Intervals: []time.Duration{5 * time.Second},
	})
	row := tab.Rows[0]
	t.Log(row)
	churned := parseF(t, row[1])
	static := parseF(t, row[2])
	if churned > 4*static+50 {
		t.Errorf("churned latency %vms too far above static %vms", churned, static)
	}
}
