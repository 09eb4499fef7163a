package cluster

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"github.com/moara/moara/internal/core"
)

// skipEntry names one subscription entry cluster-wide.
type skipEntry struct {
	node  int
	sid   core.QueryID
	group string
}

// skipCounters snapshots every entry's Rebuilds/Reuses counters and its
// parent (a node index; -1 at a tree root).
func skipCounters(c *Cluster) (rebuilds, reuses map[skipEntry]uint64, parent map[skipEntry]int) {
	byShort := make(map[string]int, len(c.IDs))
	for i, id := range c.IDs {
		byShort[id.Short()] = i
	}
	rebuilds, reuses = make(map[skipEntry]uint64), make(map[skipEntry]uint64)
	parent = make(map[skipEntry]int)
	for i, nd := range c.Nodes {
		for _, si := range nd.Subs() {
			e := skipEntry{i, si.SID, si.Group}
			rebuilds[e], reuses[e] = si.Rebuilds, si.Reuses
			parent[e] = -1
			if !si.Root {
				parent[e] = byShort[si.Parent]
			}
		}
	}
	return rebuilds, reuses, parent
}

// TestStandingSkipIsRealAndExact locks the merge-skip of the epoch
// loop on both engines: with nothing written, no node rebuilds its
// subtree state (every epoch re-sends the retained one); one attribute
// write at one leaf costs exactly one rebuild per subscription entry on
// that leaf's path to each root and none anywhere else; and what the
// streams deliver is the brute-force answer over the stores throughout.
func TestStandingSkipIsRealAndExact(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testStandingSkip(t, shards) })
	}
}

func testStandingSkip(t *testing.T, shards int) {
	const (
		n      = 300
		period = 200 * time.Millisecond
		slices = 8
	)
	// No renewal inside the run: a renewal re-installs every entry, and
	// an install marks it changed.
	c := New(Options{N: n, Seed: 11, Shards: shards,
		Node: core.Config{SubTTL: 3 * time.Hour, SubRenewInterval: time.Hour}})
	mem := make([]float64, n)
	for i, nd := range c.Nodes {
		mem[i] = float64((i*7919)%1000) / 10
		nd.Store().SetFloat("mem", mem[i])
		nd.Store().SetString("slice", fmt.Sprintf("s%d", i%slices))
		nd.Store().SetBool("g", i%4 == 0)
	}
	queries := []string{
		"avg(mem) group by slice",
		"p99(mem)",
		"dcount(slice)",
		"count(*) where g = true",
	}
	members := []int64{n, n, n, n / 4}
	latest := make([]core.Sample, len(queries))
	for q, text := range queries {
		req, err := core.ParseRequest(fmt.Sprintf("%s every %v", text, period))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Subscribe(0, req, func(s core.Sample) { latest[q] = s }); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		for q, s := range latest {
			if s.ColdStart || s.Contributors != members[q] {
				t.Fatalf("%s: %q cold=%v contributors=%d, want warm and %d", when, queries[q], s.ColdStart, s.Contributors, members[q])
			}
		}
		sums, counts := make([]float64, slices), make([]float64, slices)
		for i, v := range mem {
			sums[i%slices] += v
			counts[i%slices]++
		}
		if got := len(latest[0].Result.Groups); got != slices {
			t.Fatalf("%s: avg has %d groups, want %d", when, got, slices)
		}
		for k := 0; k < slices; k++ {
			got, _ := latest[0].Result.Groups[fmt.Sprintf("s%d", k)].Value.AsFloat()
			if want := sums[k] / counts[k]; math.Abs(got-want) > 1e-9*want {
				t.Errorf("%s: avg(mem) of s%d = %v, want %v", when, k, got, want)
			}
		}
		// The quantile sketch promises rank error under 2% at this size.
		sorted := append([]float64(nil), mem...)
		sort.Float64s(sorted)
		if got, _ := latest[1].Result.Agg.Value.AsFloat(); got < sorted[n*97/100] || got > sorted[n-1] {
			t.Errorf("%s: p99(mem) = %v outside [%v, %v]", when, got, sorted[n*97/100], sorted[n-1])
		}
		if got, _ := latest[2].Result.Agg.Value.AsFloat(); got != slices {
			t.Errorf("%s: dcount(slice) = %v, want %d", when, got, slices)
		}
		if got, _ := latest[3].Result.Agg.Value.AsInt(); got != n/4 {
			t.Errorf("%s: count(*) where g = %d, want %d", when, got, n/4)
		}
	}

	// Warm up: the pipelines fill and the adaptive trees settle.
	c.RunFor(40 * period)
	check("after warm-up")

	before, reusesBefore, _ := skipCounters(c)
	c.RunFor(10 * period)
	after, reusesAfter, parent := skipCounters(c)
	if len(after) != len(before) {
		t.Fatalf("subscription entries changed while idle: %d -> %d", len(before), len(after))
	}
	for e, r := range after {
		if r != before[e] {
			t.Errorf("node %d %s: %d rebuilds over ten idle epochs", e.node, e.group, r-before[e])
		}
		if d := reusesAfter[e] - reusesBefore[e]; d != 10 {
			t.Errorf("node %d %s: %d reuses over ten idle epochs, want 10", e.node, e.group, d)
		}
	}
	check("after ten idle epochs")

	// One write at a leaf that is a member of all four groups.
	leaf := leafOfEveryTree(t, c, len(queries), func(i int) bool { return i%4 == 0 })
	want := make(map[skipEntry]uint64)
	depth := 0
	for e := range after {
		if e.node != leaf {
			continue
		}
		d := 0
		for at := e; ; at = (skipEntry{parent[at], e.sid, e.group}) {
			if _, held := after[at]; !held {
				t.Fatalf("path of node %d %s leaves the subscription at node %d", leaf, e.group, at.node)
			}
			want[at] = 1
			d++
			if parent[at] < 0 {
				break
			}
		}
		depth = max(depth, d)
	}
	mem[leaf] = 99.9
	c.Nodes[leaf].Store().SetFloat("mem", mem[leaf])
	c.RunFor(time.Duration(depth+2) * period)
	final, _, _ := skipCounters(c)
	for e, r := range final {
		if d := r - after[e]; d != want[e] {
			t.Errorf("node %d %s: %d rebuilds after one write at node %d, want %d", e.node, e.group, d, leaf, want[e])
		}
	}
	check("after one write")
	t.Logf("%d entries, %d on the written leaf's paths (depth %d)", len(final), len(want), depth)
}
