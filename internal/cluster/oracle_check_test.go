package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/predicate"
	"github.com/moara/moara/internal/value"
	"github.com/moara/moara/internal/workload"
)

// TestRandomQueriesMatchBruteForce is the end-to-end correctness
// model check: random attribute populations, random composite
// predicates, random aggregation functions — Moara's distributed
// answer must equal direct evaluation over every node's store.
func TestRandomQueriesMatchBruteForce(t *testing.T) {
	c := New(Options{N: 160, Seed: 41})
	rng := rand.New(rand.NewSource(41))

	attrs := []string{"p", "q", "r"}
	for _, n := range c.Nodes {
		for _, a := range attrs {
			if rng.Intn(5) == 0 {
				continue // some nodes lack the attribute
			}
			n.Store().SetInt(a, int64(rng.Intn(5)))
		}
		n.Store().SetInt("val", int64(rng.Intn(1000)))
	}

	specs := []aggregate.Spec{
		{Kind: aggregate.KindSum},
		{Kind: aggregate.KindCount},
		{Kind: aggregate.KindMin},
		{Kind: aggregate.KindMax},
		{Kind: aggregate.KindAvg},
	}

	for trial := 0; trial < 40; trial++ {
		pred := randomPred(rng, attrs, 3)
		spec := specs[rng.Intn(len(specs))]
		req := core.Request{Attr: "val", Spec: spec, Pred: pred}

		// Brute force over all stores.
		want := spec.New()
		for i, n := range c.Nodes {
			if pred == nil || pred.Eval(n.Store()) {
				want.Add(c.IDs[i], n.Store().Get("val"))
			}
		}
		res, err := c.Execute(trial%len(c.Nodes), req)
		if err != nil {
			t.Fatalf("trial %d (%s %v): %v", trial, spec, pred, err)
		}
		wr := want.Result()
		if res.Contributors != want.Nodes() {
			t.Fatalf("trial %d (%s over %v): contributors %d, want %d",
				trial, spec, pred, res.Contributors, want.Nodes())
		}
		if wr.Value.IsValid() != res.Agg.Value.IsValid() ||
			(wr.Value.IsValid() && !valuesClose(wr.Value, res.Agg.Value)) {
			t.Fatalf("trial %d (%s over %v): got %v, want %v",
				trial, spec, pred, res.Agg.Value, wr.Value)
		}
		// Occasionally churn attributes between trials.
		for j := 0; j < 10; j++ {
			i := rng.Intn(len(c.Nodes))
			a := attrs[rng.Intn(len(attrs))]
			c.Nodes[i].Store().SetInt(a, int64(rng.Intn(5)))
		}
		c.RunFor(200 * time.Millisecond)
	}
}

// valuesClose compares results with float tolerance (AVG divides).
func valuesClose(a, b value.Value) bool {
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok {
		diff := af - bf
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1e-9*(1+abs(af))
	}
	return value.Equal(a, b)
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

func randomPred(rng *rand.Rand, attrs []string, depth int) predicate.Expr {
	if rng.Intn(6) == 0 {
		return nil // global query
	}
	return randomPredExpr(rng, attrs, depth)
}

func randomPredExpr(rng *rand.Rand, attrs []string, depth int) predicate.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		ops := []predicate.Op{
			predicate.OpLT, predicate.OpGT, predicate.OpLE,
			predicate.OpGE, predicate.OpEQ, predicate.OpNE,
		}
		return predicate.Simple{
			Attr: attrs[rng.Intn(len(attrs))],
			Op:   ops[rng.Intn(len(ops))],
			Val:  value.Int(int64(rng.Intn(5))),
		}
	}
	n := 2 + rng.Intn(2)
	terms := make([]predicate.Expr, n)
	for i := range terms {
		terms[i] = randomPredExpr(rng, attrs, depth-1)
	}
	if rng.Intn(2) == 0 {
		return predicate.And{Terms: terms}
	}
	return predicate.Or{Terms: terms}
}

// TestTopKAndEnumEndToEnd checks the list-valued aggregates across the
// network (ordering and membership must survive distributed merging).
func TestTopKAndEnumEndToEnd(t *testing.T) {
	c := New(Options{N: 64, Seed: 43})
	for i, n := range c.Nodes {
		n.Store().SetInt("score", int64((i*37)%100))
		n.Store().SetBool("g", i%2 == 0)
	}
	res, err := c.ExecuteText(0, "top5(score) where g = true")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Agg.Entries) != 5 {
		t.Fatalf("top5 entries = %d", len(res.Agg.Entries))
	}
	prev := int64(101)
	for _, e := range res.Agg.Entries {
		v, _ := e.Value.AsInt()
		if v > prev {
			t.Fatalf("top5 not descending: %v", res.Agg.Entries)
		}
		prev = v
	}
	// Brute-force the expected max.
	wantMax := int64(0)
	for i := range c.Nodes {
		if i%2 == 0 {
			if v := int64((i * 37) % 100); v > wantMax {
				wantMax = v
			}
		}
	}
	if got, _ := res.Agg.Entries[0].Value.AsInt(); got != wantMax {
		t.Fatalf("top5[0] = %d, want %d", got, wantMax)
	}

	enumRes, err := c.ExecuteText(0, "enum(score) where g = true")
	if err != nil {
		t.Fatal(err)
	}
	if len(enumRes.Agg.Entries) != 32 {
		t.Fatalf("enum entries = %d, want 32", len(enumRes.Agg.Entries))
	}
}

// TestKillSubsetPartialAggregation extends the §3.1 partial-aggregation
// law to arbitrary kill subsets: after crashing a random subset of
// nodes and letting the liveness path purge them (Cluster.Kill — no
// RemoveNode boilerplate), the merged partial states of the survivors
// must equal the oracle aggregate computed directly over the survivors,
// and the reported Contributors must equal the survivor count — for
// every aggregate kind, including the keyed GroupedState of `group by`
// queries.
func TestKillSubsetPartialAggregation(t *testing.T) {
	const n = 110
	c := New(Options{
		N: n, Seed: 83,
		Node:    core.Config{ChildTimeout: 400 * time.Millisecond},
		Overlay: pastry.Config{HeartbeatEvery: 150 * time.Millisecond, HeartbeatMiss: 2},
	})
	rng := rand.New(rand.NewSource(83))
	for i, nd := range c.Nodes {
		nd.Store().SetInt("val", int64(rng.Intn(1000)))
		nd.Store().SetString("slice", fmt.Sprintf("s%d", i%7))
	}
	queries := []string{
		"sum(val)", "count(*)", "min(val)", "max(val)", "avg(val)",
		"std(val)", "top3(val)", "enum(val)",
		"count(*) group by slice", "avg(val) group by slice",
	}
	// Warm the trees, then kill random subsets in rounds, recovering
	// some victims between rounds.
	if _, err := c.ExecuteText(0, "sum(val)"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, i := range workload.ToggleBatch(rng, n-1, 8+rng.Intn(12)) {
			c.Kill(i + 1) // spare the front-end
		}
		if round > 0 {
			var dead []int
			for i := 1; i < n; i++ {
				if c.Down(i) {
					dead = append(dead, i)
				}
			}
			for _, i := range workload.ToggleBatch(rng, len(dead), 4) {
				c.Recover(dead[i])
			}
		}
		// Detection + purge + repair settle.
		c.RunFor(3 * time.Second)

		survivors := c.LiveIndices()
		for _, q := range queries {
			req, err := core.ParseRequest(q)
			if err != nil {
				t.Fatal(err)
			}
			// Oracle: direct aggregation over survivor stores, through
			// the same keyed engine the distributed path uses.
			want := aggregate.NewGrouped(req.Spec, 0)
			for _, i := range survivors {
				key := aggregate.ScalarKey
				if req.GroupBy != "" {
					key = c.Nodes[i].Store().Get(req.GroupBy).Key()
				}
				v := value.Int(1) // count(*): every member contributes 1
				if req.Attr != "*" {
					v = c.Nodes[i].Store().Get(req.Attr)
				}
				want.AddKeyed(c.IDs[i], key, v)
			}
			res, err := c.Execute(0, req)
			if err != nil {
				t.Fatalf("round %d %q: %v", round, q, err)
			}
			if res.Contributors != int64(len(survivors)) {
				t.Errorf("round %d %q: contributors = %d, want %d survivors",
					round, q, res.Contributors, len(survivors))
			}
			wr := want.Result()
			if wr.Value.IsValid() != res.Agg.Value.IsValid() ||
				(wr.Value.IsValid() && !valuesClose(wr.Value, res.Agg.Value)) {
				t.Errorf("round %d %q: got %v, want %v over %d survivors",
					round, q, res.Agg.Value, wr.Value, len(survivors))
			}
			if len(res.Agg.Entries) != len(wr.Entries) {
				t.Errorf("round %d %q: %d entries, want %d", round, q, len(res.Agg.Entries), len(wr.Entries))
			}
			if req.GroupBy != "" {
				wantGroups := want.Results()
				if len(res.Groups) != len(wantGroups) {
					t.Errorf("round %d %q: %d groups, want %d", round, q, len(res.Groups), len(wantGroups))
				}
				for k, wv := range wantGroups {
					if gv, ok := res.Groups[k]; !ok || !valuesClose(gv.Value, wv.Value) {
						t.Errorf("round %d %q: group %s = %v, want %v", round, q, k, res.Groups[k].Value, wv.Value)
					}
				}
			}
		}
	}
}

// TestStringGroupsManySlices exercises many simultaneous trees with
// string-equality groups (the PlanetLab slice pattern).
func TestStringGroupsManySlices(t *testing.T) {
	const slices = 20
	c := New(Options{N: 200, Seed: 47})
	counts := make([]int64, slices)
	rng := rand.New(rand.NewSource(47))
	for _, n := range c.Nodes {
		s := rng.Intn(slices)
		n.Store().SetString("slice", fmt.Sprintf("s%02d", s))
		counts[s]++
	}
	for s := 0; s < slices; s++ {
		res, err := c.ExecuteText(0, fmt.Sprintf("count(*) where slice = s%02d", s))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := res.Agg.Value.AsInt(); got != counts[s] {
			t.Fatalf("slice %d: count = %d, want %d", s, got, counts[s])
		}
	}
}

// TestEdgeThresholdsMatchEval pins three thresholds the planner's
// interval algebra once modelled wrongly: an int above 2^53 (float64
// rounds it), +Inf (a stored value like any other) and NaN (satisfies
// no term). 63 nodes hold x = 10+i and one holds the odd value; on every
// round, cold tree and pruned alike, the answer equals the brute-force
// Eval count.
func TestEdgeThresholdsMatchEval(t *testing.T) {
	rows := []struct {
		name  string
		odd   value.Value
		query string
		want  int64
	}{
		{"int above 2^53", value.Int(1<<53 + 1), "count(*) where x > 9007199254740993 or x > 9007199254740992", 1},
		{"+Inf", value.Float(math.Inf(1)), "count(*) where x >= 3 or x < inf", 64},
		{"NaN", value.Float(math.NaN()), "count(*) where x = 3 or x < 5", 0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := New(Options{N: 64, Seed: 38})
			for i, n := range c.Nodes {
				n.Store().SetInt("x", int64(10+i))
			}
			c.Nodes[63].Store().Set("x", row.odd)
			req, err := core.ParseRequest(row.query)
			if err != nil {
				t.Fatal(err)
			}
			eval := int64(0)
			for _, n := range c.Nodes {
				if req.Pred.Eval(n.Store()) {
					eval++
				}
			}
			var got []int64
			for round := 0; round < 6; round++ {
				res, err := c.Execute(0, req)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				got = append(got, intResult(t, res))
				c.RunFor(2 * time.Second)
			}
			for _, g := range got {
				if g != eval {
					t.Fatalf("answers %v; Eval counts %d", got, eval)
				}
			}
			if eval != row.want {
				t.Fatalf("Eval counts %d nodes, want %d", eval, row.want)
			}
		})
	}
}
