package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/baseline"
	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/metrics"
)

var cdfPercentiles = []float64{25, 50, 75, 90, 95, 99, 100}

// Fig14Options parameterize the PlanetLab latency CDF experiment.
type Fig14Options struct {
	N          int   // paper: 200 PlanetLab nodes
	GroupSizes []int // paper: 50, 100, 150, 200
	Queries    int   // paper: 500, 5s apart
	Seed       int64
}

// Defaults fills the paper's parameters.
func (o Fig14Options) Defaults() Fig14Options {
	if o.N == 0 {
		o.N = 200
	}
	if len(o.GroupSizes) == 0 {
		o.GroupSizes = []int{50, 100, 150, 200}
	}
	if o.Queries == 0 {
		o.Queries = 500
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// fig14Run measures per-query completion latencies for one group size
// on the wide-area model.
func fig14Run(opt Fig14Options, groupSize int) *metrics.Recorder {
	c := cluster.New(cluster.Options{N: opt.N, Seed: opt.Seed, Node: core.Config{
		// The paper does not time out queries, to obtain complete
		// answers; bound only by a generous limit.
		ChildTimeout: 120 * time.Second,
		QueryTimeout: 300 * time.Second,
	}}.PlanetLab())
	rng := rand.New(rand.NewSource(opt.Seed + 3))
	setGroup(c, "A", rng.Perm(opt.N)[:groupSize])
	if err := c.Warm(groupReq, groupReq, groupReq); err != nil {
		panic(err)
	}
	return poll(c, opt.Queries, 5*time.Second, wantSum("fig14", groupSize), groupReq)
}

// RunFig14 reproduces Fig. 14: the CDF of query response latency on the
// wide-area model for different group sizes, reported at fixed
// percentiles.
func RunFig14(opt Fig14Options) *Table {
	opt = opt.Defaults()
	t := &Table{
		Title: "Fig. 14: PlanetLab query latency CDF",
		Note: fmt.Sprintf("N=%d WAN model, %d queries per group; latency ms at percentile",
			opt.N, opt.Queries),
		Columns: []string{"pctile"},
	}
	recs := make([]*metrics.Recorder, len(opt.GroupSizes))
	for i, m := range opt.GroupSizes {
		t.Columns = append(t.Columns, fmt.Sprintf("group%d", m))
		recs[i] = fig14Run(opt, m)
	}
	for _, p := range cdfPercentiles {
		row := []string{fmt.Sprintf("%.0f%%", p)}
		for _, rec := range recs {
			row = append(row, metrics.FormatMs(rec.Percentile(p)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig15Options parameterize the Moara-vs-centralized experiment.
type Fig15Options struct {
	N          int
	GroupSizes []int // paper: 100, 150
	Queries    int
	Seed       int64
}

// Defaults fills the paper's parameters.
func (o Fig15Options) Defaults() Fig15Options {
	if o.N == 0 {
		o.N = 200
	}
	if len(o.GroupSizes) == 0 {
		o.GroupSizes = []int{100, 150}
	}
	if o.Queries == 0 {
		o.Queries = 100
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// RunFig15 reproduces Fig. 15: Moara's query completion CDF vs the
// centralized aggregator. Central directly queries all N nodes and its
// CDF pools individual reply arrivals (the "hare" that sprints, then
// stalls on stragglers); Moara's CDF is per-query completion.
func RunFig15(opt Fig15Options) *Table {
	opt = opt.Defaults()
	t := &Table{
		Title:   "Fig. 15: Moara vs centralized aggregator",
		Note:    fmt.Sprintf("N=%d WAN model, %d queries; latency ms at percentile", opt.N, opt.Queries),
		Columns: []string{"pctile"},
	}
	var cols []*metrics.Recorder
	for _, m := range opt.GroupSizes {
		t.Columns = append(t.Columns, fmt.Sprintf("moara%d", m), fmt.Sprintf("central%d", m))
		cols = append(cols, fig14Run(Fig14Options{
			N: opt.N, GroupSizes: nil, Queries: opt.Queries, Seed: opt.Seed,
		}.Defaults(), m))
		cols = append(cols, fig15CentralRun(opt, m))
	}
	for _, p := range cdfPercentiles {
		row := []string{fmt.Sprintf("%.0f%%", p)}
		for _, rec := range cols {
			row = append(row, metrics.FormatMs(rec.Percentile(p)))
		}
		t.AddRow(row...)
	}
	return t
}

// fig15CentralRun pools per-reply arrival latencies of the centralized
// aggregator across queries.
func fig15CentralRun(opt Fig15Options, groupSize int) *metrics.Recorder {
	c := cluster.New(cluster.Options{N: opt.N, Seed: opt.Seed}.PlanetLab())
	for _, nd := range c.Nodes {
		baseline.AttachResponder(nd)
	}
	rng := rand.New(rand.NewSource(opt.Seed + 3))
	setGroup(c, "A", rng.Perm(opt.N)[:groupSize])
	coordID := ids.FromKey("central-coordinator")
	env := c.Net.AddNode(coordID)
	coord := baseline.NewCentral(env, c.IDs)
	env.BindHandler(coord)

	rec := metrics.NewRecorder(opt.Queries * opt.N)
	for q := 0; q < opt.Queries; q++ {
		done := false
		coord.Query("A", aggregate.Spec{Kind: aggregate.KindSum}, "A = true", func(res baseline.CentralResult) {
			for _, at := range res.Replies {
				rec.Add(at)
			}
			done = true
		})
		c.Net.RunWhile(func() bool { return !done })
		if !done {
			panic("fig15: central query stalled")
		}
		c.RunFor(5 * time.Second)
	}
	return rec
}
