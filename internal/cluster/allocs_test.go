package cluster

import (
	"testing"
	"time"

	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/value"
)

// TestStandingEpochAllocBudget locks the steady-state allocation cost
// of the standing-query epoch tick. After the pipeline is warm, one
// epoch at one node costs: the local re-evaluation, one pooled report
// state per stream, one boxed EpochReportMsg per stream, and the outbox
// flush, which with several streams ships them as one BatchMsg whose
// item buffer the receiver hands back to the free list. The budgets
// catch a lost pool or a new per-epoch allocation loop, not jitter.
func TestStandingEpochAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name    string
		queries []string
		// budget is objects per node per epoch. One stream measures
		// ~1.0 and no edge carries a batch; 16 leaves room for platform
		// variation. Four streams measure ~5.1 with every edge carrying
		// a four-item batch, and 8.1 when each delivered batch leaves
		// its buffer to the GC.
		budget float64
	}{
		{"one-stream", []string{"avg(mem)"}, 16},
		{"four-streams", []string{"avg(mem)", "max(mem)", "sum(mem)", "count(*)"}, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 64
			perNode := standingEpochAllocs(t, n, tc.queries) / n
			t.Logf("steady-state standing epoch, %d streams: %.2f allocs per node", len(tc.queries), perNode)
			if perNode > tc.budget {
				t.Errorf("standing epoch allocates %.2f objects per node per epoch, budget %.1f — a pooled path regressed",
					perNode, tc.budget)
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
