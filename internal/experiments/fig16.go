package experiments

import (
	"fmt"
	"time"

	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/metrics"
	"github.com/moara/moara/internal/simnet"
)

// Fig16Options parameterize the bottleneck-link analysis.
type Fig16Options struct {
	N       int // paper: 200-node group
	Queries int // paper: ~220
	Seed    int64
}

// Defaults fills the paper's parameters.
func (o Fig16Options) Defaults() Fig16Options {
	if o.N == 0 {
		o.N = 200
	}
	if o.Queries == 0 {
		o.Queries = 220
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// RunFig16 reproduces Fig. 16: per-query completion latency alongside
// the round-trip latency of the slowest tree edge used by that query
// (the paper's offline bottleneck analysis, here reconstructed from a
// message tap on the simulated network).
func RunFig16(opt Fig16Options) *Table {
	opt = opt.Defaults()
	var (
		capture bool
		maxEdge time.Duration
	)
	copts := cluster.Options{N: opt.N, Seed: opt.Seed, Node: core.Config{
		ChildTimeout: 120 * time.Second,
		QueryTimeout: 300 * time.Second,
	}}.PlanetLab()
	copts.Tap = func(_, _ ids.ID, m any, wire time.Duration) {
		if !capture {
			return
		}
		// The tap sees wire messages; query traffic may arrive inside a
		// coalesced BatchMsg, whose items all crossed this edge at the
		// tapped latency.
		items := []any{m}
		if b, ok := m.(simnet.Batch); ok {
			items = b.Unpack()
		}
		for _, item := range items {
			switch item.(type) {
			case core.QueryMsg, core.ResponseMsg, core.SubQueryMsg:
				if wire > maxEdge {
					maxEdge = wire
				}
			}
		}
	}
	c := cluster.New(copts)
	for _, nd := range c.Nodes {
		nd.Store().SetBool("A", true)
	}
	if err := c.Warm(groupReq, groupReq, groupReq); err != nil {
		panic(err)
	}
	t := &Table{
		Title: "Fig. 16: per-query latency vs bottleneck link RTT",
		Note: fmt.Sprintf("N=%d WAN model, whole-system group; bottleneck = 2x slowest query-path edge",
			opt.N),
		Columns: []string{"query", "latency_ms", "bottleneck_ms"},
	}
	for q := 0; q < opt.Queries; q++ {
		capture, maxEdge = true, 0
		res, err := c.Execute(0, groupReq)
		if err != nil {
			panic(err)
		}
		capture = false
		bottleneck := 2 * maxEdge
		t.AddRow(itoa(q), metrics.FormatMs(res.Stats.TotalTime), metrics.FormatMs(bottleneck))
		c.RunFor(5 * time.Second)
	}
	return t
}
