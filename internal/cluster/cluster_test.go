package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/predicate"
	"github.com/moara/moara/internal/simnet"
)

func sumReq(pred string) core.Request {
	var p predicate.Expr
	if pred != "" {
		p = predicate.MustParse(pred)
	}
	return core.Request{Attr: "a", Spec: aggregate.Spec{Kind: aggregate.KindSum}, Pred: p}
}

func intResult(t *testing.T, res core.Result) int64 {
	t.Helper()
	v, ok := res.Agg.Value.AsInt()
	if !ok {
		f, fok := res.Agg.Value.AsFloat()
		if !fok {
			t.Fatalf("result not numeric: %v", res.Agg)
		}
		return int64(f)
	}
	return v
}

func TestGlobalSumSmall(t *testing.T) {
	c := New(Options{N: 64, Seed: 7})
	want := int64(0)
	for i, n := range c.Nodes {
		n.Store().SetInt("a", int64(i))
		want += int64(i)
	}
	res, err := c.Execute(0, sumReq(""))
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if got := intResult(t, res); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if res.Contributors != 64 {
		t.Fatalf("contributors = %d, want 64", res.Contributors)
	}
}

func TestSimplePredicateCount(t *testing.T) {
	c := New(Options{N: 128, Seed: 3})
	inGroup := 0
	for i, n := range c.Nodes {
		n.Store().SetInt("a", 0)
		if i%4 == 0 {
			n.Store().SetBool("service_x", true)
			inGroup++
		} else {
			n.Store().SetBool("service_x", false)
		}
	}
	req := core.Request{
		Attr: "*",
		Spec: aggregate.Spec{Kind: aggregate.KindCount},
		Pred: predicate.MustParse("service_x = true"),
	}
	for round := 0; round < 5; round++ {
		res, err := c.Execute(1, req)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := intResult(t, res); got != int64(inGroup) {
			t.Fatalf("round %d: count = %d, want %d", round, got, inGroup)
		}
	}
}

// TestGlobalBaselineIsPinnedPolicy checks that the Global baseline
// (Fig. 9) is the §4 policy held in NO-UPDATE: every node keeps
// advertising (NO-PRUNE, {self}), so membership churn sends no status,
// every query floods the whole broadcast tree at the same cost, and the
// expected population is the flood's NO-PRUNE count — every node.
func TestGlobalBaselineIsPinnedPolicy(t *testing.T) {
	const n = 64
	c := New(Options{N: n, Seed: 3, Node: core.Config{Mode: core.ModeGlobal}})
	member := make([]bool, n)
	for i, nd := range c.Nodes {
		member[i] = i%2 == 0
		nd.Store().SetBool("A", member[i])
	}
	req := core.Request{
		Attr: "*",
		Spec: aggregate.Spec{Kind: aggregate.KindCount},
		Pred: predicate.MustParse("A = true"),
	}
	rng := rand.New(rand.NewSource(3))
	first := int64(0)
	for round := 0; round < 3; round++ {
		if round > 0 {
			// A burst of attribute flips between queries: churn an
			// adaptive tree would report up as status updates.
			for _, i := range rng.Perm(n)[:n/4] {
				member[i] = !member[i]
				c.Nodes[i].Store().SetBool("A", member[i])
			}
			c.RunFor(5 * time.Second)
		}
		want := 0
		for _, m := range member {
			if m {
				want++
			}
		}
		before := c.MoaraMessages()
		res, err := c.Execute(0, req)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		c.RunFor(5 * time.Second)
		cost := c.MoaraMessages() - before
		if got := intResult(t, res); got != int64(want) {
			t.Fatalf("round %d: count = %d, want %d", round, got, want)
		}
		if res.Expected != n {
			t.Fatalf("round %d: Expected = %v, want %d (the whole flood)", round, res.Expected, n)
		}
		if round == 0 {
			first = cost
		} else if cost != first {
			t.Fatalf("round %d: query cost %d messages, want %d like the first", round, cost, first)
		}
		if st := c.Net.Counter().ByKind()["moara.status"]; st != 0 {
			t.Fatalf("round %d: %d status messages sent, want none", round, st)
		}
	}
}

func TestPruningReducesCost(t *testing.T) {
	c := New(Options{N: 256, Seed: 11})
	for i, n := range c.Nodes {
		n.Store().SetBool("svc", i < 8) // tiny group
		n.Store().SetInt("a", 1)
	}
	req := core.Request{
		Attr: "a",
		Spec: aggregate.Spec{Kind: aggregate.KindSum},
		Pred: predicate.MustParse("svc = true"),
	}
	// Warm the tree: first query broadcasts and triggers pruning.
	if err := c.Warm(req, req, req); err != nil {
		t.Fatalf("warm: %v", err)
	}
	res, err := c.Execute(0, req)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if got := intResult(t, res); got != 8 {
		t.Fatalf("sum = %d, want 8", got)
	}
	msgs := c.MoaraMessages()
	// A warmed 8-node group in a 256-node system must cost far less
	// than a broadcast (2*256 messages); §5 bounds it near O(m).
	if msgs > 120 {
		t.Fatalf("warmed group query used %d messages, want far fewer than broadcast (512)", msgs)
	}
	t.Logf("warmed query cost: %d messages", msgs)
}

func TestEventualCompletenessUnderChurn(t *testing.T) {
	c := New(Options{N: 128, Seed: 5})
	for _, n := range c.Nodes {
		n.Store().SetBool("g", false)
		n.Store().SetInt("a", 1)
	}
	req := core.Request{
		Attr: "a",
		Spec: aggregate.Spec{Kind: aggregate.KindSum},
		Pred: predicate.MustParse("g = true"),
	}
	if err := c.Warm(req, req); err != nil {
		t.Fatalf("warm: %v", err)
	}
	rng := c.Net.Rand()
	members := make(map[int]bool)
	for round := 0; round < 20; round++ {
		// Toggle a random batch.
		for j := 0; j < 16; j++ {
			i := rng.Intn(len(c.Nodes))
			members[i] = !members[i]
			c.Nodes[i].Store().SetBool("g", members[i])
		}
		c.RunFor(500 * time.Millisecond)
		want := int64(0)
		for i := range members {
			if members[i] {
				want++
			}
		}
		res, err := c.Execute(round%len(c.Nodes), req)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := intResult(t, res); got != want {
			t.Fatalf("round %d: sum = %d, want %d", round, got, want)
		}
	}
}

func TestCompositeQueriesEndToEnd(t *testing.T) {
	c := New(Options{N: 128, Seed: 13})
	wantBoth, wantEither := int64(0), int64(0)
	for i, n := range c.Nodes {
		x := i%2 == 0
		y := i%3 == 0
		n.Store().SetBool("x", x)
		n.Store().SetBool("y", y)
		n.Store().SetInt("a", 1)
		if x && y {
			wantBoth++
		}
		if x || y {
			wantEither++
		}
	}
	inter, err := c.ExecuteText(0, "sum(a) where x = true and y = true")
	if err != nil {
		t.Fatalf("intersection: %v", err)
	}
	if got := intResult(t, inter); got != wantBoth {
		t.Fatalf("intersection sum = %d, want %d", got, wantBoth)
	}
	if len(inter.Stats.Chosen) != 1 {
		t.Fatalf("intersection should query one group, chose %v", inter.Stats.Chosen)
	}
	uni, err := c.ExecuteText(0, "sum(a) where x = true or y = true")
	if err != nil {
		t.Fatalf("union: %v", err)
	}
	if got := intResult(t, uni); got != wantEither {
		t.Fatalf("union sum = %d, want %d", got, wantEither)
	}
	if len(uni.Stats.Chosen) != 2 {
		t.Fatalf("union should query both groups, chose %v", uni.Stats.Chosen)
	}
}

func TestDisjointIntersectionShortCircuits(t *testing.T) {
	c := New(Options{N: 32, Seed: 2})
	for _, n := range c.Nodes {
		n.Store().SetFloat("cpu", 42)
		n.Store().SetInt("a", 1)
	}
	res, err := c.ExecuteText(0, "sum(a) where cpu < 10 and cpu > 90")
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if !res.Stats.ShortCircuit {
		t.Fatalf("expected short-circuit, stats: %+v", res.Stats)
	}
	if got := intResult(t, res); got != 0 {
		t.Fatalf("sum = %d, want 0", got)
	}
	if res.Stats.TotalTime != 0 {
		t.Fatalf("short-circuit should be instant, took %v", res.Stats.TotalTime)
	}
}

// TestProtocolBootstrapQuery grows a cluster from one node through the
// real join protocol, one join every 200 ms, and queries it.
func TestProtocolBootstrapQuery(t *testing.T) {
	c := New(Options{N: 1, Seed: 17})
	for len(c.Nodes) < 48 {
		c.AddNode()
		c.RunFor(200 * time.Millisecond)
	}
	c.RunFor(2 * time.Second)
	want := int64(0)
	for i, n := range c.Nodes {
		n.Store().SetInt("a", int64(i%5))
		want += int64(i % 5)
	}
	res, err := c.Execute(3, sumReq(""))
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if got := intResult(t, res); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestManyGroupsIndependentTrees(t *testing.T) {
	c := New(Options{N: 96, Seed: 23})
	for i, n := range c.Nodes {
		n.Store().SetString("slice", fmt.Sprintf("slice-%d", i%6))
		n.Store().SetInt("a", 1)
	}
	for g := 0; g < 6; g++ {
		q := fmt.Sprintf("sum(a) where slice = slice-%d", g)
		res, err := c.ExecuteText(0, q)
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		if got := intResult(t, res); got != 16 {
			t.Fatalf("group %d: sum = %d, want 16", g, got)
		}
	}
}

// joinerPing is a bare simulator message for TestJoinersRunOnTheirMachine.
type joinerPing struct{}

// pingClock records when its node handled a joinerPing and passes every
// other message on to the Moara node.
type pingClock struct {
	node *core.Node
	at   time.Duration
}

func (p *pingClock) Handle(from ids.ID, m any) {
	if _, ok := m.(joinerPing); ok {
		p.at = p.node.Env().Now()
		return
	}
	p.node.Handle(from, m)
}

// TestJoinersRunOnTheirMachine: under co-location a node added to a
// running cluster queues on the CPU of its machine (index / instances
// per machine), like the nodes booted with the cluster. Joiners 19 and
// 20 land on machines 1 and 2, so two pings sent at one instant are
// handled at one instant, not one processing delay apart.
func TestJoinersRunOnTheirMachine(t *testing.T) {
	c := New(Options{
		N: 19, Latency: simnet.Fixed(time.Millisecond),
		ProcDelay: 5 * time.Millisecond, SerializeProc: true, InstancesPerMachine: 10,
	})
	joiners := []int{c.AddNode(), c.AddNode()}
	c.Net.RunFor(10 * time.Second)
	clocks := make([]*pingClock, len(joiners))
	for i, j := range joiners {
		clocks[i] = &pingClock{node: c.Nodes[j]}
		c.Nodes[j].Env().(interface{ BindHandler(simnet.Handler) }).BindHandler(clocks[i])
		c.Nodes[0].Env().Send(c.IDs[j], joinerPing{})
	}
	c.Net.RunFor(time.Second)
	if a, b := clocks[0].at, clocks[1].at; a == 0 || a != b {
		t.Fatalf("joiners on machines 1 and 2 handled one-instant pings at %v and %v", a, b)
	}
}
