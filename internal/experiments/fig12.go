package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/metrics"
	"github.com/moara/moara/internal/workload"
)

// Fig12aOptions parameterize the static-group latency/bandwidth
// comparison against a single global SDIMS-style tree.
type Fig12aOptions struct {
	N          int   // paper: 500 (50 machines x 10 instances)
	GroupSizes []int // paper: 32..500
	Queries    int   // paper: 100
	Seed       int64
}

// RunFig12a reproduces Fig. 12(a): per-query latency and message count
// for static groups of increasing size, Moara vs the SDIMS single
// global tree approach.
func RunFig12a(opt Fig12aOptions) *Table {
	t := &Table{
		Title: "Fig. 12(a): static groups, Moara vs SDIMS global tree",
		Note: fmt.Sprintf("N=%d (Emulab model), %d queries per cell; latency ms / msgs per query",
			opt.N, opt.Queries),
		Columns: []string{"series", "latency_ms", "msgs_per_query"},
	}
	run := func(label string, mode core.Mode, groupSize int) {
		c := cluster.New(cluster.Options{N: opt.N, Seed: opt.Seed, Node: core.Config{Mode: mode}}.Emulab())
		rng := rand.New(rand.NewSource(opt.Seed + 17))
		setGroup(c, "A", rng.Perm(opt.N)[:groupSize])
		// Settle pruning before measuring steady-state latency.
		if err := c.Warm(groupReq, groupReq, groupReq); err != nil {
			panic(err)
		}
		rec := poll(c, opt.Queries, 200*time.Millisecond, wantSum("fig12a "+label, groupSize), groupReq)
		msgs := float64(c.MoaraMessages()) / float64(opt.Queries)
		t.AddRow(label, metrics.FormatMs(rec.Mean()), f1(msgs))
	}
	for _, m := range opt.GroupSizes {
		run(fmt.Sprintf("group%d", m), core.ModeAdaptive, m)
	}
	// The SDIMS comparison: one system-wide tree, every node receives
	// every query regardless of group (paper labels this "SDIMS").
	run("SDIMS", core.ModeGlobal, opt.N)
	return t
}

// Fig12bOptions parameterize the dynamic-group latency experiment.
type Fig12bOptions struct {
	N         int             // paper: 500
	GroupSize int             // paper: 100
	Churns    []int           // paper: 40..200
	Intervals []time.Duration // paper: 5s, 45s
	Queries   int             // queries at 1/s (paper: 100 per run)
	Seed      int64
}

// dynamicGroupRun drives the Fig. 12(b)/13(a) workload on n nodes: a
// group of groupSize nodes; every interval, churn members leave and
// churn outsiders join; queries injected at 1/s. It returns the
// latencies of the first queries in injection order.
func dynamicGroupRun(n, groupSize, queries int, seed int64, churn int, interval time.Duration) []time.Duration {
	c := cluster.New(cluster.Options{N: n, Seed: seed}.Emulab())
	rng := rand.New(rand.NewSource(seed + 97))
	member := setGroup(c, "A", rng.Perm(n)[:groupSize])
	if err := c.Warm(groupReq, groupReq, groupReq); err != nil {
		panic(err)
	}
	applyChurn := func() {
		if churn == 0 {
			return
		}
		var members, outsiders []int
		for i, m := range member {
			if m {
				members = append(members, i)
			} else {
				outsiders = append(outsiders, i)
			}
		}
		leave, join := workload.ReplaceBatch(rng, members, outsiders, churn)
		for _, i := range leave {
			member[i] = false
			c.Nodes[i].Store().SetBool("A", false)
		}
		for _, i := range join {
			member[i] = true
			c.Nodes[i].Store().SetBool("A", true)
		}
	}
	latencies := make([]time.Duration, 0, queries)
	start := c.Net.Now()
	nextQuery := start + time.Second
	nextChurn := start + interval
	if churn == 0 {
		nextChurn = start + 365*24*time.Hour
	}
	for len(latencies) < queries {
		if nextChurn <= nextQuery {
			c.Net.RunUntil(nextChurn)
			applyChurn()
			nextChurn += interval
			continue
		}
		c.Net.RunUntil(nextQuery)
		res, err := c.Execute(0, groupReq)
		if err != nil {
			panic(err)
		}
		latencies = append(latencies, res.Stats.TotalTime)
		nextQuery += time.Second
	}
	return latencies
}

// RunFig12b reproduces Fig. 12(b): average query latency under group
// churn for different churn sizes and intervals, with the static-group
// latency as the reference line.
func RunFig12b(opt Fig12bOptions) *Table {
	t := &Table{
		Title: "Fig. 12(b): dynamic group latency",
		Note: fmt.Sprintf("N=%d, group=%d, %d queries at 1/s; avg latency ms",
			opt.N, opt.GroupSize, opt.Queries),
		Columns: []string{"churn"},
	}
	for _, iv := range opt.Intervals {
		t.Columns = append(t.Columns, fmt.Sprintf("interval_%ds", int(iv.Seconds())))
	}
	t.Columns = append(t.Columns, "static_baseline")
	staticLat := mean(dynamicGroupRun(opt.N, opt.GroupSize, opt.Queries, opt.Seed, 0, time.Hour))
	for _, churn := range opt.Churns {
		row := []string{itoa(churn)}
		for _, iv := range opt.Intervals {
			lat := mean(dynamicGroupRun(opt.N, opt.GroupSize, opt.Queries, opt.Seed, churn, iv))
			row = append(row, metrics.FormatMs(lat))
		}
		row = append(row, metrics.FormatMs(staticLat))
		t.AddRow(row...)
	}
	return t
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
