package core

import (
	"testing"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/predicate"
	"github.com/moara/moara/internal/simnet"
)

// miniCluster builds a small simulated deployment directly (without the
// cluster package, which would be an import cycle here).
func miniCluster(t *testing.T, n int, cfg Config) (*simnet.Network, []*Node) {
	t.Helper()
	net := simnet.New(simnet.Options{Seed: 7})
	members := make([]ids.ID, n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		members[i] = ids.FromUint64(uint64(i*2654435761 + 1))
	}
	oracle := pastry.NewOracle(members)
	for i, id := range members {
		env := net.AddNode(id)
		nodes[i] = NewNode(env, cfg, pastry.Config{})
		env.BindHandler(nodes[i])
		oracle.Fill(nodes[i].Overlay())
	}
	return net, nodes
}

func runQuery(t *testing.T, net *simnet.Network, n *Node, req Request) (Result, error) {
	t.Helper()
	var (
		res  Result
		err  error
		done bool
	)
	n.Execute(req, func(r Result, e error) { res, err, done = r, e, true })
	net.RunWhile(func() bool { return !done })
	if !done {
		t.Fatal("query did not complete")
	}
	return res, err
}

func TestExecuteValidation(t *testing.T) {
	net, nodes := miniCluster(t, 4, Config{})
	_ = net
	called := false
	nodes[0].Execute(Request{Attr: "x"}, func(_ Result, err error) {
		called = true
		if err == nil {
			t.Error("invalid spec should error")
		}
	})
	if !called {
		t.Fatal("callback not invoked")
	}
	called = false
	nodes[0].Execute(Request{Spec: aggregate.Spec{Kind: aggregate.KindSum}}, func(_ Result, err error) {
		called = true
		if err == nil {
			t.Error("empty attribute should error")
		}
	})
	if !called {
		t.Fatal("callback not invoked")
	}
}

func TestConcurrentFrontEndQueries(t *testing.T) {
	net, nodes := miniCluster(t, 32, Config{})
	for i, n := range nodes {
		n.Store().SetInt("v", int64(i))
		n.Store().SetBool("even", i%2 == 0)
	}
	finished := 0
	want := map[int]int64{}
	check := func(slot int, expect int64) func(Result, error) {
		want[slot] = expect
		return func(r Result, err error) {
			if err != nil {
				t.Errorf("slot %d: %v", slot, err)
			}
			if v, _ := r.Agg.Value.AsInt(); v != want[slot] {
				t.Errorf("slot %d: got %d want %d", slot, v, want[slot])
			}
			finished++
		}
	}
	sum := int64(0)
	evens := int64(0)
	for i := range nodes {
		sum += int64(i)
		if i%2 == 0 {
			evens++
		}
	}
	nodes[0].Execute(Request{Attr: "v", Spec: aggregate.Spec{Kind: aggregate.KindSum}}, check(0, sum))
	nodes[0].Execute(Request{
		Attr: "*", Spec: aggregate.Spec{Kind: aggregate.KindCount},
		Pred: predicate.MustParse("even = true"),
	}, check(1, evens))
	nodes[0].Execute(Request{Attr: "v", Spec: aggregate.Spec{Kind: aggregate.KindMax}}, check(2, int64(len(nodes)-1)))
	net.RunWhile(func() bool { return finished < 3 })
	if finished != 3 {
		t.Fatalf("finished = %d", finished)
	}
}

// TestProbeTimeoutFallsBack: when a probe target never answers (we
// point one group at a tree whose root is down), planning proceeds with
// conservative costs after probeTimeout.
func TestProbeTimeoutFallsBack(t *testing.T) {
	net, nodes := miniCluster(t, 24, Config{
		QueryTimeout: 3 * time.Second,
		ChildTimeout: 300 * time.Millisecond,
	})
	for i, n := range nodes {
		n.Store().SetBool("x", i%2 == 0)
		n.Store().SetBool("y", i%3 == 0)
	}
	// Down the root of the y-tree so its probe (and sub-query) is lost.
	oracle := pastry.NewOracle(collectIDs(nodes))
	yRoot := oracle.Owner(ids.FromKey("y"))
	if yRoot == nodes[0].Self() {
		t.Skip("front-end is the y-root under this seed")
	}
	net.SetDown(yRoot, true)

	req := Request{
		Attr: "*",
		Spec: aggregate.Spec{Kind: aggregate.KindCount},
		Pred: predicate.MustParse("x = true and y = true"),
	}
	res, err := runQuery(t, net, nodes[0], req)
	if err != nil {
		t.Fatal(err)
	}
	// The probe for y timed out; the planner must still have chosen a
	// cover and produced an answer from the x tree.
	if len(res.Stats.Chosen) != 1 {
		t.Fatalf("chosen = %v", res.Stats.Chosen)
	}
	if res.Stats.Chosen[0] != "x = true" {
		// The y-tree is dead, so only the x cover can answer; if y was
		// chosen the query must have timed out empty.
		t.Logf("planner chose %v with dead y-root (acceptable but empty)", res.Stats.Chosen)
	}
}

// TestSubQueryRootRecomputesOnPolicyFlip: a sub-query root whose
// adaptation policy flips its update flag recomputes np before it
// answers, as every other entry point does, so its population estimate
// never counts a node that does not satisfy the predicate.
func TestSubQueryRootRecomputesOnPolicyFlip(t *testing.T) {
	net, nodes := miniCluster(t, 1, Config{})
	nodes[0].Store().SetBool("A", false)
	req := Request{
		Attr: "*", Spec: aggregate.Spec{Kind: aggregate.KindCount},
		Pred: predicate.MustParse("A = true"),
	}
	for i := 0; i < 2; i++ {
		res, err := runQuery(t, net, nodes[0], req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Expected != 0 {
			t.Fatalf("query %d: Expected = %v, want 0 (no node satisfies A = true)", i, res.Expected)
		}
	}
}

func collectIDs(nodes []*Node) []ids.ID {
	out := make([]ids.ID, len(nodes))
	for i, n := range nodes {
		out[i] = n.Self()
	}
	return out
}

// TestStateGC: idle NO-UPDATE predicate state is collected after
// StateTTL (§4 "State Maintenance").
func TestStateGC(t *testing.T) {
	net, nodes := miniCluster(t, 16, Config{StateTTL: seenTTL})
	for i, n := range nodes {
		n.Store().SetBool("g", i < 4)
	}
	req := Request{
		Attr: "*", Spec: aggregate.Spec{Kind: aggregate.KindCount},
		Pred: predicate.MustParse("g = true"),
	}
	if res, err := runQuery(t, net, nodes[0], req); err != nil {
		t.Fatal(err)
	} else if v, _ := res.Agg.Value.AsInt(); v != 4 {
		t.Fatalf("count = %d", v)
	}
	withState := 0
	for _, n := range nodes {
		if len(n.groups) > 0 {
			withState++
		}
	}
	if withState == 0 {
		t.Fatal("no node holds predicate state after a query")
	}
	// Long quiet period: state must be garbage collected. (Nodes in
	// UPDATE keep state; after churnless queries most nodes settle to
	// either PRUNE/UPDATE or NO-UPDATE. NO-UPDATE state must go.)
	net.RunFor(30 * seenTTL)
	for _, n := range nodes {
		for canon, ps := range n.groups {
			if !ps.update {
				t.Fatalf("idle NO-UPDATE state %q survived GC", canon)
			}
		}
	}
	// Queries still work after GC (trees rebuild lazily).
	if res, err := runQuery(t, net, nodes[1], req); err != nil {
		t.Fatal(err)
	} else if v, _ := res.Agg.Value.AsInt(); v != 4 {
		t.Fatalf("post-GC count = %d", v)
	}
}

// TestTinyStateTTLAdvances: a StateTTL too small to halve still arms a
// GC period that lets virtual time move.
func TestTinyStateTTLAdvances(t *testing.T) {
	net, nodes := miniCluster(t, 4, Config{StateTTL: 1})
	for _, n := range nodes {
		n.Store().SetInt("a", 1)
	}
	if _, err := runQuery(t, net, nodes[0], Request{Attr: "a", Spec: aggregate.Spec{Kind: aggregate.KindSum}}); err != nil {
		t.Fatal(err)
	}
	before := net.Now()
	net.RunFor(time.Second)
	if net.Now()-before != time.Second {
		t.Fatalf("virtual time moved %v, want 1s", net.Now()-before)
	}
}

// TestSeenCacheExpiry: answered query IDs are dropped after seenTTL so
// memory does not grow without bound.
func TestSeenCacheExpiry(t *testing.T) {
	net, nodes := miniCluster(t, 8, Config{})
	for _, n := range nodes {
		n.Store().SetInt("a", 1)
	}
	req := Request{Attr: "a", Spec: aggregate.Spec{Kind: aggregate.KindSum}}
	for i := 0; i < 3; i++ {
		if _, err := runQuery(t, net, nodes[0], req); err != nil {
			t.Fatal(err)
		}
	}
	net.RunFor(30 * seenTTL)
	for i, n := range nodes {
		if r := n.Remembered(); r != 0 {
			t.Fatalf("node %d: %d query IDs remembered after TTL", i, r)
		}
	}
}

// TestRepeatedQueryProbesAgain: the front-end keeps no probe cache — as
// in the paper (§6.3), every composite query probes its groups' costs
// afresh, so a repeated query probes as many groups as the first.
func TestRepeatedQueryProbesAgain(t *testing.T) {
	net, nodes := miniCluster(t, 16, Config{})
	for i, n := range nodes {
		n.Store().SetBool("x", i%2 == 0)
		n.Store().SetBool("y", i%4 == 0)
	}
	req := Request{
		Attr: "*", Spec: aggregate.Spec{Kind: aggregate.KindCount},
		Pred: predicate.MustParse("x = true and y = true"),
	}
	res1, err := runQuery(t, net, nodes[0], req)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.Probed == 0 {
		t.Fatal("first composite query should probe")
	}
	res2, err := runQuery(t, net, nodes[0], req)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Probed != res1.Stats.Probed {
		t.Fatalf("repeated query probed %d groups, want %d like the first", res2.Stats.Probed, res1.Stats.Probed)
	}
	if v, _ := res2.Agg.Value.AsInt(); v != 4 {
		t.Fatalf("count = %d", v)
	}
}
