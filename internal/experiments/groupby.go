package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/metrics"
	"github.com/moara/moara/internal/workload"
)

// GroupByOptions parameterize the keyed-aggregation study: one
// `group by` dissemination versus the naive plan of one query per
// group. Not a paper figure — it evaluates the grouped-query extension
// against the G-query baseline the paper's one-shot model implies.
type GroupByOptions struct {
	N       int // nodes (default 1000)
	Slices  int // distinct group-by keys (default 32)
	Queries int // measured rounds per series (default 20)
	Seed    int64
}

// Defaults fills unset parameters.
func (o GroupByOptions) Defaults() GroupByOptions {
	if o.N == 0 {
		o.N = 1000
	}
	if o.Slices == 0 {
		o.Slices = 32
	}
	if o.Queries == 0 {
		o.Queries = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// RunGroupBy measures one monitoring round of "avg(mem_util) per slice"
// three ways: a scalar avg (the dissemination-cost yardstick), one
// grouped query with in-tree keyed merging, and the naive plan of one
// scalar query per slice. Grouped cost should track the scalar cost,
// not G times it.
func RunGroupBy(opt GroupByOptions) *Table {
	opt = opt.Defaults()
	t := &Table{
		Title: "Group-by: keyed in-tree aggregation vs one query per group",
		Note: fmt.Sprintf("N=%d (Emulab model), %d slices (Zipf), %d rounds per series",
			opt.N, opt.Slices, opt.Queries),
		Columns: []string{"series", "latency_ms", "msgs_per_round", "vs_scalar"},
	}
	c := cluster.New(cluster.Options{N: opt.N, Seed: opt.Seed}.Emulab())
	rng := rand.New(rand.NewSource(opt.Seed + 41))
	slices := workload.AssignSlices(rng, opt.N, opt.Slices)
	distinct := map[string]bool{}
	for i, nd := range c.Nodes {
		nd.Store().SetString("slice", slices[i])
		nd.Store().SetFloat("mem_util", math.Mod(float64(i)*13.7, 100))
		distinct[slices[i]] = true
	}

	scalarReq, err := core.ParseRequest("avg(mem_util)")
	if err != nil {
		panic(err)
	}
	groupedReq, err := core.ParseRequest("avg(mem_util) group by slice")
	if err != nil {
		panic(err)
	}
	// Sorted: map order would make the naive plan, and so its row,
	// differ from run to run under one seed.
	names := make([]string, 0, len(distinct))
	for s := range distinct {
		names = append(names, s)
	}
	sort.Strings(names)
	naive := make([]core.Request, 0, len(names))
	for _, s := range names {
		req, err := core.ParseRequest(fmt.Sprintf("avg(mem_util) where slice = %s", s))
		if err != nil {
			panic(err)
		}
		naive = append(naive, req)
	}

	// One round = everything a monitoring tick needs for a full per-key
	// answer: a single query for the scalar and grouped series, all G
	// queries for the naive series.
	measure := func(label string, reqs []core.Request) float64 {
		if err := c.Warm(reqs...); err != nil {
			panic(err)
		}
		rec := poll(c, opt.Queries, 200*time.Millisecond, nil, reqs...)
		msgs := float64(c.MoaraMessages()) / float64(opt.Queries)
		t.AddRow(label, metrics.FormatMs(rec.Mean()), f1(msgs), "")
		return msgs
	}

	scalarMsgs := measure("scalar avg", []core.Request{scalarReq})
	groupedMsgs := measure("grouped (1 dissemination)", []core.Request{groupedReq})
	naiveMsgs := measure(fmt.Sprintf("naive (%d queries)", len(naive)), naive)
	t.Rows[0][3] = "1.0x"
	t.Rows[1][3] = fmt.Sprintf("%.1fx", groupedMsgs/scalarMsgs)
	t.Rows[2][3] = fmt.Sprintf("%.1fx", naiveMsgs/scalarMsgs)
	return t
}
