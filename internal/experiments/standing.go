package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/metrics"
	"github.com/moara/moara/internal/workload"
)

// StandingOptions parameterize the poll-vs-standing study: a dashboard
// sampling a query once per epoch, implemented either as a fresh
// one-shot dissemination per epoch (poll) or as an installed standing
// query whose epochs re-aggregate in-tree (push). Not a paper figure —
// it evaluates the standing-query extension against the repeated
// one-shot model the paper's §1 monitoring pattern implies.
type StandingOptions struct {
	N      int           // nodes (paper: 1000)
	Slices int           // distinct group-by keys (paper: 32)
	Epochs int           // measured epochs per series (paper: 20)
	Period time.Duration // epoch length (paper: 200ms)
	Seed   int64
}

// RunStanding measures a monitoring epoch of "avg(mem_util)" (scalar
// and per-slice grouped) two ways: polling with a one-shot query per
// epoch, and one installed standing query streaming per-epoch samples.
// Message accounting includes overlay route hops (the per-poll cost a
// standing query pays only at install/renew time). The headline claims:
// standing epochs cost no more than half a fresh dissemination, and a
// grouped standing query's epochs cost the same as the scalar form's.
func RunStanding(opt StandingOptions) *Table {
	t := &Table{
		Title: "Standing queries: installed epoch re-aggregation vs one-shot polling",
		Note: fmt.Sprintf("N=%d (Emulab model), %d slices (Zipf), epoch=%v, %d warm epochs per series",
			opt.N, opt.Slices, opt.Period, opt.Epochs),
		Columns: []string{"series", "latency_ms", "msgs_per_epoch", "vs_poll"},
	}
	// Renewals are amortized background cost; keep them out of the
	// short measurement window (they are still exercised — install and
	// warm-up run the full protocol).
	nodeCfg := core.Config{SubTTL: 120 * time.Second}
	c := cluster.New(cluster.Options{N: opt.N, Seed: opt.Seed, Node: nodeCfg}.Emulab())
	rng := rand.New(rand.NewSource(opt.Seed + 41))
	slices := workload.AssignSlices(rng, opt.N, opt.Slices)
	for i, nd := range c.Nodes {
		nd.Store().SetString("slice", slices[i])
		nd.Store().SetFloat("mem_util", math.Mod(float64(i)*13.7, 100))
	}

	scalarReq, err := core.ParseRequest("avg(mem_util)")
	if err != nil {
		panic(err)
	}
	groupedReq, err := core.ParseRequest("avg(mem_util) group by slice")
	if err != nil {
		panic(err)
	}

	// measurePoll: a fresh one-shot dissemination per epoch.
	measurePoll := func(label string, req core.Request) float64 {
		if err := c.Warm(req); err != nil {
			panic(err)
		}
		start := c.QueryMessages()
		rec := poll(c, opt.Epochs, opt.Period, nil, req)
		msgs := float64(c.QueryMessages()-start) / float64(opt.Epochs)
		t.AddRow(label, metrics.FormatMs(rec.Mean()), f1(msgs), "1.0x")
		return msgs
	}

	// measureStanding: install once, then count warm epochs only (the
	// Sample.ColdStart marking delimits the pipeline fill).
	measureStanding := func(label string, req core.Request, pollMsgs float64) float64 {
		sub := subscribeWarm(c, req, opt.Period)
		msgs, lags := sub.window(opt.Epochs, c.QueryMessages, nil)
		c.Unsubscribe(0, sub.id)
		c.RunFor(2 * opt.Period) // drain the cancel cascade
		t.AddRow(label, metrics.FormatMs(lags.Mean()), f1(msgs), fmt.Sprintf("%.2fx", msgs/pollMsgs))
		return msgs
	}

	pollScalar := measurePoll("poll scalar (one-shot per epoch)", scalarReq)
	standScalar := measureStanding("standing scalar (epoch reports)", scalarReq, pollScalar)
	pollGrouped := measurePoll(fmt.Sprintf("poll grouped (%d slices)", opt.Slices), groupedReq)
	standGrouped := measureStanding(fmt.Sprintf("standing grouped (%d slices)", opt.Slices), groupedReq, pollGrouped)
	t.Note += fmt.Sprintf("; standing/poll=%.2f (scalar) %.2f (grouped); grouped/scalar standing=%.2f; standing latency column is per-sample delivery lag",
		standScalar/pollScalar, standGrouped/pollGrouped, standGrouped/standScalar)
	return t
}
