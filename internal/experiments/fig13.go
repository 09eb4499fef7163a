package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/metrics"
)

// Fig13aOptions parameterize the latency-timeline experiment.
type Fig13aOptions struct {
	N         int           // paper: 500
	GroupSize int           // paper: ~200-node churn on a group
	Churn     int           // paper: 160
	Interval  time.Duration // paper: 5s
	Seconds   int           // paper: 100
	Seed      int64
}

// Defaults fills the paper's parameters.
func (o Fig13aOptions) Defaults() Fig13aOptions {
	if o.N == 0 {
		o.N = 500
	}
	if o.GroupSize == 0 {
		o.GroupSize = 200
	}
	if o.Churn == 0 {
		o.Churn = 160
	}
	if o.Interval == 0 {
		o.Interval = 5 * time.Second
	}
	if o.Seconds == 0 {
		o.Seconds = 100
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// RunFig13a reproduces Fig. 13(a): per-query latency over time with a
// churn batch every Interval, one query per second.
func RunFig13a(opt Fig13aOptions) *Table {
	opt = opt.Defaults()
	lats := dynamicGroupRun(Fig12bOptions{
		N:         opt.N,
		GroupSize: opt.GroupSize,
		Queries:   opt.Seconds,
		Seed:      opt.Seed,
	}.Defaults(), opt.Churn, opt.Interval)
	static := dynamicGroupRun(Fig12bOptions{
		N:         opt.N,
		GroupSize: opt.GroupSize,
		Queries:   opt.Seconds / 2,
		Seed:      opt.Seed,
	}.Defaults(), 0, time.Hour)
	t := &Table{
		Title: "Fig. 13(a): latency over time under churn",
		Note: fmt.Sprintf("N=%d, group=%d, churn=%d every %v; static avg %s ms",
			opt.N, opt.GroupSize, opt.Churn, opt.Interval, metrics.FormatMs(mean(static))),
		Columns: []string{"time_s", "latency_ms"},
	}
	for i, lat := range lats {
		t.AddRow(itoa(i+1), metrics.FormatMs(lat))
	}
	return t
}

// Fig13bOptions parameterize the composite-query microbenchmark.
type Fig13bOptions struct {
	N         int // paper: 500
	GroupSize int // paper: 50 nodes per basic group
	MaxGroups int // paper: n up to 10
	Queries   int // paper: 300 per point
	ComplexTi int // paper: 3 unions intersected
	Seed      int64
}

// Defaults fills the paper's parameters.
func (o Fig13bOptions) Defaults() Fig13bOptions {
	if o.N == 0 {
		o.N = 500
	}
	if o.GroupSize == 0 {
		o.GroupSize = 50
	}
	if o.MaxGroups == 0 {
		o.MaxGroups = 10
	}
	if o.Queries == 0 {
		o.Queries = 300
	}
	if o.ComplexTi == 0 {
		o.ComplexTi = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// RunFig13b reproduces Fig. 13(b): latency of intersection, union and
// complex composite queries vs the number of groups per query, with and
// without the size-probe phase.
func RunFig13b(opt Fig13bOptions) *Table {
	opt = opt.Defaults()
	totalGroups := opt.MaxGroups * opt.ComplexTi
	c := cluster.New(cluster.Options{N: opt.N, Seed: opt.Seed}.Emulab())
	rng := rand.New(rand.NewSource(opt.Seed + 41))
	for g := 0; g < totalGroups; g++ {
		setGroup(c, fmt.Sprintf("g%d", g), rng.Perm(opt.N)[:opt.GroupSize])
	}
	t := &Table{
		Title: "Fig. 13(b): composite query latency",
		Note: fmt.Sprintf("N=%d, %d-node groups, %d queries per point; latency ms",
			opt.N, opt.GroupSize, opt.Queries),
		Columns: []string{"groups", "intersect", "union", "complex",
			"intersect_noSP", "union_noSP", "complex_noSP"},
	}
	terms := func(base, n int, op string) string {
		parts := make([]string, n)
		for i := 0; i < n; i++ {
			parts[i] = fmt.Sprintf("g%d = true", base+i)
		}
		return strings.Join(parts, " "+op+" ")
	}
	measure := func(queryText string) (total, noSP time.Duration) {
		req, err := core.ParseRequest(queryText)
		if err != nil {
			panic(err)
		}
		// Warm the involved trees, then measure.
		poll(c, 2, 0, nil, req)
		recQ := metrics.NewRecorder(opt.Queries)
		recT := poll(c, opt.Queries, 50*time.Millisecond, func(res core.Result) {
			recQ.Add(res.Stats.QueryTime)
		}, req)
		return recT.Mean(), recQ.Mean()
	}
	for n := 2; n <= opt.MaxGroups; n++ {
		inter := fmt.Sprintf("sum(*) where %s", terms(0, n, "and"))
		union := fmt.Sprintf("sum(*) where %s", terms(0, n, "or"))
		var tis []string
		for i := 0; i < opt.ComplexTi; i++ {
			tis = append(tis, "("+terms(i*opt.MaxGroups, n, "or")+")")
		}
		complexQ := fmt.Sprintf("sum(*) where %s", strings.Join(tis, " and "))

		it, iq := measure(inter)
		ut, uq := measure(union)
		ct, cq := measure(complexQ)
		t.AddRow(itoa(n),
			metrics.FormatMs(it), metrics.FormatMs(ut), metrics.FormatMs(ct),
			metrics.FormatMs(iq), metrics.FormatMs(uq), metrics.FormatMs(cq))
	}
	return t
}
