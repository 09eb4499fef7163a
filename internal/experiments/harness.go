package experiments

import (
	"fmt"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/metrics"
	"github.com/moara/moara/internal/predicate"
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

// warmSub is a standing query subscribed from node 0 whose pipeline
// has filled: a sample without ColdStart has arrived.
type warmSub struct {
	c      *cluster.Cluster
	id     core.QueryID
	period time.Duration
	each   func(core.Sample) // set only while a window counts
}

// subscribeWarm subscribes req from node 0 every period and pumps up to
// 64 periods until a warm sample arrives.
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
	for i := 0; !warm && i < 64; i++ {
		c.RunFor(period)
	}
	if !warm {
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
