package moara

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/moara/moara/internal/aggregate"
)

// seedSliceCluster populates a cluster with a PlanetLab-ish layout:
// every node carries a slice label, a mem_util reading, and an apache
// flag, and returns the per-node values for centralized recomputation.
func seedSliceCluster(c *SimCluster, nSlices int) (slices []string, mem []float64, apache []bool) {
	slices = make([]string, c.Size())
	mem = make([]float64, c.Size())
	apache = make([]bool, c.Size())
	for i := 0; i < c.Size(); i++ {
		slices[i] = fmt.Sprintf("cs%d", 100+i%nSlices)
		mem[i] = math.Mod(float64(i)*13.7, 100)
		apache[i] = i%2 == 0
		c.SetAttr(i, "slice", Str(slices[i]))
		c.SetAttr(i, "mem_util", Float(mem[i]))
		c.SetAttr(i, "apache", Bool(apache[i]))
	}
	return slices, mem, apache
}

// TestGroupedQueryMatchesCentralizedRecompute is the correctness
// acceptance check: per-key results of a grouped query over a predicate
// exactly match a centralized recompute over the same attribute
// snapshot.
func TestGroupedQueryMatchesCentralizedRecompute(t *testing.T) {
	c := NewSimCluster(128, WithSeed(11))
	slices, mem, apache := seedSliceCluster(c, 5)

	wantSum := map[string]float64{}
	wantN := map[string]int64{}
	var contributors int64
	for i := 0; i < c.Size(); i++ {
		if !apache[i] {
			continue
		}
		wantSum[slices[i]] += mem[i]
		wantN[slices[i]]++
		contributors++
	}

	res, err := c.Client(0).Query(context.Background(), "avg(mem_util) group by slice where apache = true")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != len(wantSum) {
		t.Fatalf("got %d groups %v, want %d", len(res.Groups), res.Groups, len(wantSum))
	}
	for k, want := range wantSum {
		got, ok := res.Groups[k].Value.AsFloat()
		if !ok {
			t.Fatalf("group %s missing numeric result", k)
		}
		if wantAvg := want / float64(wantN[k]); math.Abs(got-wantAvg) > 1e-9 {
			t.Errorf("group %s = %v, want %v", k, got, wantAvg)
		}
	}
	if res.Contributors != contributors {
		t.Errorf("contributors = %d, want %d", res.Contributors, contributors)
	}
	if res.Truncated {
		t.Error("no spill expected at 5 keys")
	}
	if res.Stats.GroupKeys != len(wantSum) || res.Stats.GroupBy != "slice" {
		t.Errorf("stats = %+v", res.Stats)
	}

	// The grand total equals the ungrouped answer over the same set.
	scalar, err := c.Client(0).Query(context.Background(), "avg(mem_util) where apache = true")
	if err != nil {
		t.Fatal(err)
	}
	sg, _ := scalar.Agg.Value.AsFloat()
	gg, _ := res.Agg.Value.AsFloat()
	if math.Abs(sg-gg) > 1e-9 {
		t.Errorf("grouped total %v != scalar %v", gg, sg)
	}
}

// TestGroupedQueryIsOneDissemination is the cost acceptance check: the
// grouped form costs about as many Moara messages as the ungrouped
// form — per-key merging happens inside the one tree pass, not as G
// separate queries.
func TestGroupedQueryIsOneDissemination(t *testing.T) {
	const nSlices = 7
	c := NewSimCluster(256, WithSeed(17))
	seedSliceCluster(c, nSlices)

	// Warm so both measurements see the same settled tree.
	for r := 0; r < 3; r++ {
		if _, err := c.Client(0).Query(context.Background(), "avg(mem_util) where apache = true"); err != nil {
			t.Fatal(err)
		}
		c.RunFor(2 * time.Second)
	}

	c.ResetMessageCounter()
	if _, err := c.Client(0).Query(context.Background(), "avg(mem_util) where apache = true"); err != nil {
		t.Fatal(err)
	}
	scalarMsgs := c.Messages()

	c.ResetMessageCounter()
	res, err := c.Client(0).Query(context.Background(), "avg(mem_util) group by slice where apache = true")
	if err != nil {
		t.Fatal(err)
	}
	groupedMsgs := c.Messages()

	if len(res.Groups) != nSlices {
		t.Fatalf("groups = %d, want %d", len(res.Groups), nSlices)
	}
	if scalarMsgs == 0 {
		t.Fatal("scalar query produced no messages")
	}
	// "~equal": allow slack for adaptation noise between the two runs,
	// but nowhere near the G× cost of one query per slice.
	if groupedMsgs > scalarMsgs+scalarMsgs/4+4 {
		t.Fatalf("grouped = %d msgs vs scalar = %d; keyed merge should ride one dissemination",
			groupedMsgs, scalarMsgs)
	}
	if groupedMsgs >= int64(nSlices)*scalarMsgs/2 {
		t.Fatalf("grouped = %d msgs looks like %d separate queries (scalar = %d)",
			groupedMsgs, nSlices, scalarMsgs)
	}
}

// TestGroupedQueryCapSpill drives the high-cardinality path end to end:
// with more keys than the 1,024-key cap, results truncate into <other>
// while the grand total stays exact.
func TestGroupedQueryCapSpill(t *testing.T) {
	const n, maxKeys = 1100, 1024
	c := NewSimCluster(n, WithSeed(23))
	for i := 0; i < c.Size(); i++ {
		c.SetAttr(i, "host", Str(fmt.Sprintf("h%04d", i)))
		c.SetAttr(i, "v", Int(1))
	}
	res, err := c.Client(0).Query(context.Background(), "sum(v) group by host")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatalf("%d keys with cap %d must truncate", n, maxKeys)
	}
	if res.Stats.GroupKeys > maxKeys {
		t.Fatalf("held keys = %d, cap %d", res.Stats.GroupKeys, maxKeys)
	}
	if _, ok := res.Groups["<other>"]; !ok {
		t.Fatalf("expected <other> bucket among %d groups", len(res.Groups))
	}
	if got, _ := res.Agg.Value.AsInt(); got != n {
		t.Fatalf("grand total = %d, want %d (spill must not lose mass)", got, n)
	}
}

// TestGroupedMonitorSeries checks grouped continuous monitoring plus the
// GroupSeries pivot. Monitoring is a standing query now: the earliest
// epochs are marked ColdStart while the contribution pipeline fills, so
// the per-key assertions apply to warm samples only.
func TestGroupedMonitorSeries(t *testing.T) {
	c := NewSimCluster(32, WithSeed(29))
	seedSliceCluster(c, 4)
	samples, err := MonitorClient(context.Background(), c.Client(0), "count(*) group by slice", time.Second, 8, c.RunFor)
	if err != nil {
		t.Fatal(err)
	}
	series := GroupSeries(samples)
	if len(series) != 4 {
		t.Fatalf("series keys = %d, want 4", len(series))
	}
	warm := 0
	for r, s := range samples {
		if s.ColdStart {
			continue
		}
		warm++
		for k, vals := range series {
			if got, _ := vals[r].AsInt(); got != 8 {
				t.Fatalf("%s round %d = %v, want 8", k, r, vals[r])
			}
		}
	}
	if warm < 3 {
		t.Fatalf("warm samples = %d, want >= 3 of 8", warm)
	}
}

// TestFormatGroups checks the display helper's ordering and shape, and
// that a result past the key cap ends with the truncation note.
func TestFormatGroups(t *testing.T) {
	c := NewSimCluster(16, WithSeed(31))
	for i := 0; i < c.Size(); i++ {
		c.SetAttr(i, "dc", Str([]string{"east", "west", "north"}[i%3]))
		c.SetAttr(i, "v", Int(1))
	}
	res, err := c.Client(0).Query(context.Background(), "count(*) group by dc")
	if err != nil {
		t.Fatal(err)
	}
	if lines := FormatGroups(res); len(lines) != 3 || !strings.HasPrefix(lines[0], "east=") ||
		!strings.HasPrefix(lines[1], "north=") || !strings.HasPrefix(lines[2], "west=") {
		t.Fatalf("lines = %v", lines)
	}
	truncated := Result{
		Groups: map[string]aggregate.Result{
			"east":             {Value: Int(5)},
			aggregate.OtherKey: {Value: Int(11)},
		},
		Truncated: true,
	}
	if lines := FormatGroups(truncated); strings.Join(lines, "\n") !=
		"<other>=11\neast=5\n(truncated: key cap exceeded, remainder under <other>)" {
		t.Fatalf("lines = %q", lines)
	}
}

// TestFormatSample checks the lines both shells print per standing
// sample: the scalar form with its cold marker and contributor count,
// and the grouped form's header, key-sorted lines and truncation note.
func TestFormatSample(t *testing.T) {
	check := func(s Sample, want ...string) {
		t.Helper()
		if got := FormatSample(s); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("FormatSample = %q, want %q", got, want)
		}
	}
	scalar := Sample{Epoch: 3, ColdStart: true, Result: Result{Agg: aggregate.Result{Value: Float(4.5)}, Contributors: 7}}
	check(scalar, "epoch 3 (cold): 4.5 (7 contributors)")
	scalar.ColdStart = false
	check(scalar, "epoch 3: 4.5 (7 contributors)")

	grouped := Sample{Epoch: 9, Result: Result{
		Agg: aggregate.Result{Value: Int(8)},
		Groups: map[string]aggregate.Result{
			"west":             {Value: Int(2)},
			"east":             {Value: Int(5)},
			aggregate.OtherKey: {Value: Int(1)},
		},
		Truncated:    true,
		Contributors: 8,
	}}
	check(grouped, "epoch 9:", "  <other>=1", "  east=5", "  west=2",
		"  (truncated: key cap exceeded, remainder under <other>)")
	grouped.ColdStart, grouped.Result.Truncated = true, false
	delete(grouped.Result.Groups, aggregate.OtherKey)
	check(grouped, "epoch 9 (cold):", "  east=5", "  west=2")
}
