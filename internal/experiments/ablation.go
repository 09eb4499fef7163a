package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/metrics"
)

// AblationOptions parameterize the cover-selection ablation: an
// asymmetric intersection (small group ∩ large group) where picking
// the right cover matters.
type AblationOptions struct {
	N       int
	Small   int // small group size
	Large   int // large group size
	Queries int
	Seed    int64
}

// Defaults fills reasonable parameters.
func (o AblationOptions) Defaults() AblationOptions {
	if o.N == 0 {
		o.N = 500
	}
	if o.Small == 0 {
		o.Small = 10
	}
	if o.Large == 0 {
		o.Large = 400
	}
	if o.Queries == 0 {
		o.Queries = 100
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// RunAblationCoverSelection quantifies §6.3's design choice: for the
// intersection query (small ∩ large), compare Moara's probe-driven
// cover selection against (a) always querying the first-listed group
// and (b) naively querying both groups. Reported as messages and
// latency per query.
func RunAblationCoverSelection(opt AblationOptions) *Table {
	opt = opt.Defaults()
	t := &Table{
		Title: "Ablation: composite cover selection (§6.3)",
		Note: fmt.Sprintf("N=%d, small=%d, large=%d, %d queries of large∩small; per query",
			opt.N, opt.Small, opt.Large, opt.Queries),
		Columns: []string{"strategy", "msgs_per_query", "latency_ms"},
	}

	type strategy struct {
		label  string
		policy core.CoverPolicy
	}
	run := func(s strategy) (float64, time.Duration) {
		c := cluster.New(cluster.Options{N: opt.N, Seed: opt.Seed, Node: core.Config{Covers: s.policy}}.Emulab())
		rng := rand.New(rand.NewSource(opt.Seed + 59))
		perm := rng.Perm(opt.N)
		setGroup(c, "small", perm[:opt.Small])
		setGroup(c, "large", perm[:opt.Large]) // superset of small
		req, err := core.ParseRequest("count(*) where small = true and large = true")
		if err != nil {
			panic(err)
		}
		// Warm both group trees individually (the paper's methodology:
		// every group is queried repeatedly), so size probes price them
		// from real np counts rather than cold-tree estimates.
		for _, wq := range []string{
			"count(*) where small = true",
			"count(*) where large = true",
		} {
			wreq, err := core.ParseRequest(wq)
			if err != nil {
				panic(err)
			}
			poll(c, 2, 0, nil, wreq)
		}
		poll(c, 1, 0, nil, req)
		c.RunFor(2 * time.Second)
		c.Net.ResetCounter()
		rec := poll(c, opt.Queries, 0, wantSum("ablation "+s.label, opt.Small), req)
		return float64(c.MoaraMessages()) / float64(opt.Queries), rec.Mean()
	}

	for _, s := range []strategy{
		// Moara: probes price both covers, picks the small group.
		{label: "moara (probe-selected cover)", policy: core.CoverCheapest},
		// A planner without cover selection queries every group.
		{label: "naive (query both groups)", policy: core.CoverAll},
		// Worst single cover: the large group.
		{label: "wrong cover (large group)", policy: core.CoverDearest},
	} {
		msgs, lat := run(s)
		t.AddRow(s.label, f1(msgs), metrics.FormatMs(lat))
	}
	return t
}
