package cluster

import (
	"testing"
	"time"

	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/value"
)

// TestOneShotAllocBudget locks the steady-state allocation cost of a
// one-shot query on a warm tree. Every hop sends a pooled QueryMsg down
// and a pooled ResponseMsg up, and the exec record and its child table
// are pooled, so what is left per node is the partial aggregate and the
// answer-once ledger's entry. The query kinds measure 0.59 (scalar),
// 0.48 (a filtered group) and 0.62 (grouped) objects per node, and 2.58,
// 1.59 and 2.61 when each hop boxes its messages by value; the budget
// catches a message that is no longer pooled, not jitter. The race
// detector drops pool entries at random, so the test does not run
// under it.
func TestOneShotAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled messages at random")
	}
	const n, budget = 64, 1.0
	for _, q := range []string{"max(mem)", "avg(mem) where g = true", "count(*) group by g"} {
		t.Run(q, func(t *testing.T) {
			req, err := core.ParseRequest(q)
			if err != nil {
				t.Fatal(err)
			}
			c := New(Options{N: n, Seed: 5})
			for i, nd := range c.Nodes {
				nd.Store().Set("mem", value.Int(int64(i)))
				nd.Store().Set("g", value.Bool(i%2 == 0))
			}
			if err := c.Warm(req, req, req); err != nil {
				t.Fatal(err)
			}
			perNode := testing.AllocsPerRun(10, func() {
				if _, err := c.Execute(0, req); err != nil {
					t.Fatal(err)
				}
			}) / n
			t.Logf("warm one-shot %q: %.2f allocs per node", q, perNode)
			if perNode > budget {
				t.Errorf("one-shot query allocates %.2f objects per node, budget %.1f — a pooled message path regressed",
					perNode, budget)
			}
		})
	}
}

// TestStandingEpochAllocBudget locks the steady-state allocation cost
// of the standing-query epoch tick. After the pipeline is warm, one
// epoch at one node re-evaluates locally, folds one pooled report state
// per stream and sends one pooled EpochReportMsg per stream; with
// several streams the outbox ships them as one pooled BatchMsg, which
// the receiver hands back with its item buffer. The budgets catch a lost
// pool or a new per-epoch allocation loop, not jitter.
func TestStandingEpochAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name    string
		queries []string
		// budget is objects per node per epoch. One stream measures
		// 0.03 and four streams 0.14, with every edge carrying a
		// four-item batch; they measured 1.02 and 5.08 when each report
		// and each batch was a new object. The race detector drops pool
		// entries at random (0.78 and 2.77 under it), so there the
		// budgets stay at raceBudget.
		budget, raceBudget float64
	}{
		{"one-stream", []string{"avg(mem)"}, 0.5, 16},
		{"four-streams", []string{"avg(mem)", "max(mem)", "sum(mem)", "count(*)"}, 1.0, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 64
			budget := tc.budget
			if raceEnabled {
				budget = tc.raceBudget
			}
			perNode := standingEpochAllocs(t, n, tc.queries) / n
			t.Logf("steady-state standing epoch, %d streams: %.2f allocs per node", len(tc.queries), perNode)
			if perNode > budget {
				t.Errorf("standing epoch allocates %.2f objects per node per epoch, budget %.1f — a pooled path regressed",
					perNode, budget)
			}
		})
	}
}

// standingEpochAllocs runs the queries as standing streams on an n-node
// cluster until every stream is warm and the pools are full, then
// returns the average allocations of one epoch across the cluster.
func standingEpochAllocs(t *testing.T, n int, queries []string) float64 {
	const period = 200 * time.Millisecond
	c := New(Options{N: n, Seed: 5, Node: core.Config{SubTTL: time.Hour}})
	for i, nd := range c.Nodes {
		nd.Store().Set("mem", value.Int(int64(i)))
	}
	warm := make([]bool, len(queries))
	for i, q := range queries {
		req, err := core.ParseRequest(q)
		if err != nil {
			t.Fatal(err)
		}
		req.Period = period
		if _, err := c.Subscribe(0, req, func(s core.Sample) {
			if !s.ColdStart {
				warm[i] = true
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	allWarm := func() bool {
		for _, w := range warm {
			if !w {
				return false
			}
		}
		return true
	}
	for i := 0; !allWarm() && i < 64; i++ {
		c.RunFor(period)
	}
	if !allWarm() {
		t.Fatal("standing subscriptions never warmed")
	}
	// Let the pools fill (first post-warm epochs still allocate the
	// recycled inventory).
	c.RunFor(10 * period)
	return testing.AllocsPerRun(10, func() {
		c.RunFor(period)
	})
}
