package experiments

import (
	"fmt"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/metrics"
	"github.com/moara/moara/internal/predicate"
	"github.com/moara/moara/internal/value"
	"github.com/moara/moara/internal/workload"
)

// The §7 measurement method, written once: a static group marked by a
// boolean attribute, queried from node 0 after a warm-up and timed per
// query in virtual time; a standing query counted over warm epochs.

// groupReq is the static-group request, sum(A) where A = true.
var groupReq = core.Request{
	Attr: "A",
	Spec: aggregate.Spec{Kind: aggregate.KindSum},
	Pred: predicate.MustParse("A = true"),
}

// setGroup writes attr = true on members and false on every other
// node, in node order, and returns membership by node index.
func setGroup(c *cluster.Cluster, attr string, members []int) []bool {
	in := make([]bool, len(c.Nodes))
	for _, i := range members {
		in[i] = true
	}
	for i, nd := range c.Nodes {
		nd.Store().SetBool(attr, in[i])
	}
	return in
}

// poll runs rounds poll rounds. A round executes reqs from node 0 in
// order, hands each result to check when it is set, records the
// round's summed completion time, then pumps gap. A gap of 0 pumps
// nothing: RunFor(0) would still run the events due now.
func poll(c *cluster.Cluster, rounds int, gap time.Duration, check func(core.Result), reqs ...core.Request) *metrics.Recorder {
	rec := metrics.NewRecorder(rounds)
	for r := 0; r < rounds; r++ {
		var total time.Duration
		for _, req := range reqs {
			res, err := c.Execute(0, req)
			if err != nil {
				panic(err)
			}
			if check != nil {
				check(res)
			}
			total += res.Stats.TotalTime
		}
		rec.Add(total)
		if gap > 0 {
			c.RunFor(gap)
		}
	}
	return rec
}

// wantSum is a poll check: every answer's value is want.
func wantSum(label string, want int) func(core.Result) {
	return func(res core.Result) {
		if got, _ := res.Agg.Value.AsInt(); got != int64(want) {
			panic(fmt.Sprintf("%s: sum=%d want %d", label, got, want))
		}
	}
}

// pump runs the cluster one period at a time until done holds, for at
// most 64 periods, and reports whether it holds.
func pump(c *cluster.Cluster, period time.Duration, done func() bool) bool {
	for i := 0; !done() && i < 64; i++ {
		c.RunFor(period)
	}
	return done()
}

// sliceCluster boots the multi-query and service studies' deployment:
// n nodes on the Emulab model with slice-skewed attributes, renewals
// pushed outside the measurement window (they are amortized background
// cost, still exercised by the install path), and the given coalescing
// window. One seed gives one attribute assignment, so identical install
// schedules make identical event streams.
func sliceCluster(n, slices int, seed int64, coalesce time.Duration) *cluster.Cluster {
	nodeCfg := core.Config{SubTTL: 10 * time.Minute, CoalesceWindow: coalesce}
	c := cluster.New(cluster.Options{N: n, Seed: seed, Node: nodeCfg}.Emulab())
	names := workload.AssignSlices(c.Net.Rand(), n, slices)
	for i, nd := range c.Nodes {
		nd.Store().SetString("slice", names[i])
		// Integer-valued utilization keeps every aggregate exact
		// (integer sums are order-independent), so per-sample values
		// are byte-comparable across coalesced and uncoalesced runs.
		nd.Store().Set("mem_util", value.Int(int64(i*13%100)))
	}
	return c
}

// warmSub is a standing query subscribed from node 0 whose pipeline
// has filled: a sample without ColdStart has arrived.
type warmSub struct {
	c      *cluster.Cluster
	id     core.QueryID
	period time.Duration
	each   func(core.Sample) // set only while a window counts
}

// subscribeWarm subscribes req from node 0 every period and pumps until
// a warm sample arrives.
func subscribeWarm(c *cluster.Cluster, req core.Request, period time.Duration) *warmSub {
	s := &warmSub{c: c, period: period}
	warm := false
	req.Period = period
	id, err := c.Subscribe(0, req, func(smp core.Sample) {
		if !smp.ColdStart {
			warm = true
		}
		if s.each != nil {
			s.each(smp)
		}
	})
	if err != nil {
		panic(err)
	}
	if !pump(c, period, func() bool { return warm }) {
		panic("standing subscription never warmed")
	}
	s.id = id
	return s
}

// window pumps epochs periods. Each sample delivered meanwhile has its
// delivery lag recorded and goes to each when that is set. It returns
// the growth of bill per epoch and the lags.
func (s *warmSub) window(epochs int, bill func() int64, each func(core.Sample)) (float64, *metrics.Recorder) {
	lags := metrics.NewRecorder(epochs)
	s.each = func(smp core.Sample) {
		lags.Add(smp.Lag)
		if each != nil {
			each(smp)
		}
	}
	start := bill()
	s.c.RunFor(time.Duration(epochs) * s.period)
	s.each = nil
	return float64(bill()-start) / float64(epochs), lags
}
