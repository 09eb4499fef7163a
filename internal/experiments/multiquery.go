package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/metrics"
	"github.com/moara/moara/internal/value"
	"github.com/moara/moara/internal/workload"
)

// MultiQueryOptions parameterize the concurrent-workload study: Q
// queries over the same trees at once, with per-destination wire
// coalescing merging their per-edge traffic into shared BatchMsg
// envelopes. Not a paper figure — it evaluates the multi-query scaling
// the paper's per-query cost model (§5–§6) leaves on the table.
type MultiQueryOptions struct {
	N      int           // nodes (default 1000)
	Slices int           // distinct slice values for filtered/grouped forms (default 32)
	Qs     []int         // concurrency sweep (default 1,2,4,8)
	Epochs int           // measured epochs (standing) / rounds (one-shot) per series (default 24)
	Period time.Duration // epoch length (default 200ms)
	Seed   int64
}

// Defaults fills unset parameters.
func (o MultiQueryOptions) Defaults() MultiQueryOptions {
	if o.N == 0 {
		o.N = 1000
	}
	if o.Slices == 0 {
		o.Slices = 32
	}
	if len(o.Qs) == 0 {
		o.Qs = []int{1, 2, 4, 8}
	}
	// The vs-baseline is Qs[0] and the headline contrast uses the last
	// entry, so normalize caller-supplied sweeps to ascending order —
	// on a copy, never the caller's backing array.
	o.Qs = append([]int(nil), o.Qs...)
	sort.Ints(o.Qs)
	if o.Epochs == 0 {
		o.Epochs = 24
	}
	if o.Period == 0 {
		o.Period = 200 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// mqCluster boots one measurement deployment: the Emulab model with
// slice-skewed attributes, renewals pushed outside the measurement
// window (they are amortized background cost, still exercised by the
// install path), and the requested coalescing window.
func mqCluster(opt MultiQueryOptions, coalesce time.Duration) *cluster.Cluster {
	nodeCfg := core.Config{SubTTL: 10 * time.Minute, CoalesceWindow: coalesce}
	c := cluster.New(cluster.Options{N: opt.N, Seed: opt.Seed, Node: nodeCfg}.Emulab())
	slices := workload.AssignSlices(c.Net.Rand(), opt.N, opt.Slices)
	for i, nd := range c.Nodes {
		nd.Store().SetString("slice", slices[i])
		// Integer-valued utilization keeps every aggregate exact
		// (integer sums are order-independent), so per-sample values
		// are byte-comparable across coalesced and uncoalesced runs.
		nd.Store().Set("mem_util", value.Int(int64(i*13%100)))
	}
	return c
}

// frontends spreads q front-end indices evenly over the cluster.
func frontends(n, q int) []int {
	out := make([]int, q)
	for i := range out {
		out[i] = i * n / q
	}
	return out
}

// sampleKey renders one sample's values canonically: scalar value,
// contributor count, and per-key answers for grouped results.
func sampleKey(s core.Sample) string {
	key := fmt.Sprintf("%s/%d", s.Result.Agg.Value, s.Result.Contributors)
	if s.Result.Groups != nil {
		ks := make([]string, 0, len(s.Result.Groups))
		for k := range s.Result.Groups {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			key += fmt.Sprintf("|%s=%s", k, s.Result.Groups[k].Value)
		}
	}
	return key
}

// mqStandingRun measures q concurrent standing queries ("avg(mem_util)
// every period" from q spread front-ends): mean delivery lag, wire and
// logical messages per epoch, and — per subscription — the ordered
// sequence of the first Epochs warm sample values, each keyed by its
// relative root epoch. Comparing those sequences across coalesced and
// uncoalesced runs is strict on content and stream integrity (a
// corrupted value, or a dropped/duplicated/reordered root sample,
// shifts the sequence) while tolerating delivery-time skew: an
// overloaded uncoalesced run may stream the same samples later, so
// collection keeps pumping past the message-counting window until
// every subscription has its Epochs samples.
func mqStandingRun(opt MultiQueryOptions, q int, coalesce time.Duration) (lagMs, wire, logical float64, values [][]string) {
	c := mqCluster(opt, coalesce)
	req, err := core.ParseRequest("avg(mem_util)")
	if err != nil {
		panic(err)
	}
	req.Period = opt.Period

	warm := make([]bool, q)
	counting := false
	collecting := false
	values = make([][]string, q)
	firstRoot := make([]uint64, q)
	var lags []time.Duration
	sids := make([]core.QueryID, q)
	fes := frontends(opt.N, q)
	for i, f := range fes {
		i := i
		sid, err := c.Subscribe(f, req, func(s core.Sample) {
			if !s.ColdStart {
				warm[i] = true
			}
			if collecting && len(values[i]) < opt.Epochs {
				// Key each sample by its root epoch relative to the
				// first collected one: a dropped root sample shows as a
				// gap, a duplicate as a repeat, a reordering as a
				// decrease — so the sequences below detect stream
				// faults even though the attribute values are static.
				if len(values[i]) == 0 {
					firstRoot[i] = s.RootEpoch
				}
				// Signed arithmetic: a reordered older root sample must
				// render as a negative offset, not a uint64 wrap.
				values[i] = append(values[i],
					fmt.Sprintf("e%d|%s", int64(s.RootEpoch)-int64(firstRoot[i]), sampleKey(s)))
			}
			if counting {
				lags = append(lags, s.Lag)
			}
		})
		if err != nil {
			panic(err)
		}
		sids[i] = sid
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
		c.RunFor(opt.Period)
	}
	if !allWarm() {
		panic("multiquery: standing subscriptions never warmed")
	}
	wireStart, logicalStart := c.WireQueryMessages(), c.QueryMessages()
	counting, collecting = true, true
	c.RunFor(time.Duration(opt.Epochs) * opt.Period)
	counting = false
	wire = float64(c.WireQueryMessages()-wireStart) / float64(opt.Epochs)
	logical = float64(c.QueryMessages()-logicalStart) / float64(opt.Epochs)
	allCollected := func() bool {
		for i := range values {
			if len(values[i]) < opt.Epochs {
				return false
			}
		}
		return true
	}
	for i := 0; !allCollected() && i < 64; i++ {
		c.RunFor(opt.Period)
	}
	collecting = false
	for i, f := range fes {
		c.Unsubscribe(f, sids[i])
	}
	c.RunFor(2 * opt.Period) // drain the cancel cascade
	rec := metrics.NewRecorder(len(lags))
	for _, l := range lags {
		rec.Add(l)
	}
	return metrics.Ms(rec.Mean()), wire, logical, values
}

// mqExecuteConcurrent issues the given one-shot requests from their
// front-ends in the same event-loop burst and pumps the network until
// every one completes, returning the mean turnaround.
func mqExecuteConcurrent(c *cluster.Cluster, fes []int, reqs []core.Request) time.Duration {
	pending := len(reqs)
	var total time.Duration
	for i, req := range reqs {
		c.Nodes[fes[i]].Execute(req, func(r core.Result, e error) {
			if e != nil {
				panic(e)
			}
			total += r.Stats.TotalTime
			pending--
		})
	}
	c.Net.RunWhile(func() bool { return pending > 0 })
	if pending > 0 {
		panic("multiquery: concurrent queries did not complete")
	}
	return total / time.Duration(len(reqs))
}

// mqOneShotRun measures q identical one-shot queries issued in the same
// burst from q front-ends, per round: mean turnaround plus wire and
// logical messages per round. The coalescing window is a real knob
// here: one-tick flushing only merges what one burst emits, but the
// processing model staggers concurrent disseminations across bursts, so
// a positive (Nagle-style) window is what lets the q queries share
// QueryMsg/ResponseMsg envelopes — at the price of up to one window of
// extra latency per hop.
func mqOneShotRun(opt MultiQueryOptions, q int, coalesce time.Duration) (latMs, wire, logical float64) {
	c := mqCluster(opt, coalesce)
	req, err := core.ParseRequest("avg(mem_util)")
	if err != nil {
		panic(err)
	}
	if err := c.Warm(req); err != nil {
		panic(err)
	}
	fes := frontends(opt.N, q)
	reqs := make([]core.Request, q)
	for i := range reqs {
		reqs[i] = req
	}
	wireStart, logicalStart := c.WireQueryMessages(), c.QueryMessages()
	rec := metrics.NewRecorder(opt.Epochs)
	for r := 0; r < opt.Epochs; r++ {
		rec.Add(mqExecuteConcurrent(c, fes, reqs))
		c.RunFor(opt.Period)
	}
	wire = float64(c.WireQueryMessages()-wireStart) / float64(opt.Epochs)
	logical = float64(c.QueryMessages()-logicalStart) / float64(opt.Epochs)
	return metrics.Ms(rec.Mean()), wire, logical
}

// mqMixedRun drives the workload.MultiQuery mix: the standing half is
// installed up front, the one-shot half re-issues concurrently every
// round, and messages are counted per round over the whole mix.
func mqMixedRun(opt MultiQueryOptions, q int) (latMs, wire, logical float64) {
	c := mqCluster(opt, 0)
	specs := workload.MultiQuery(c.Net.Rand(), opt.N, q, opt.Slices, opt.Period.String())
	var (
		oneFes  []int
		oneReqs []core.Request
	)
	warmNeeded := 0
	warmSeen := 0
	for _, spec := range specs {
		req, err := core.ParseRequest(spec.Text)
		if err != nil {
			panic(err)
		}
		if spec.Standing {
			warmNeeded++
			first := true
			if _, err := c.Subscribe(spec.Frontend, req, func(s core.Sample) {
				if !s.ColdStart && first {
					first = false
					warmSeen++
				}
			}); err != nil {
				panic(err)
			}
			continue
		}
		oneFes = append(oneFes, spec.Frontend)
		oneReqs = append(oneReqs, req)
	}
	for i := 0; warmSeen < warmNeeded && i < 64; i++ {
		c.RunFor(opt.Period)
	}
	if warmSeen < warmNeeded {
		panic("multiquery: mixed standing subscriptions never warmed")
	}
	if len(oneReqs) > 0 {
		// Warm the one-shot trees too, so the measured rounds see the
		// adapted (pruned) trees rather than cold broadcasts.
		mqExecuteConcurrent(c, oneFes, oneReqs)
		c.RunFor(2 * opt.Period)
	}
	wireStart, logicalStart := c.WireQueryMessages(), c.QueryMessages()
	rec := metrics.NewRecorder(opt.Epochs)
	for r := 0; r < opt.Epochs; r++ {
		if len(oneReqs) > 0 {
			rec.Add(mqExecuteConcurrent(c, oneFes, oneReqs))
		}
		c.RunFor(opt.Period)
	}
	wire = float64(c.WireQueryMessages()-wireStart) / float64(opt.Epochs)
	logical = float64(c.QueryMessages()-logicalStart) / float64(opt.Epochs)
	return metrics.Ms(rec.Mean()), wire, logical
}

// equalSampleValues reports whether two runs delivered identical
// per-subscription sample sequences: same subscription count, same
// number of samples each, same values in the same order — and at least
// one sample, so a run that delivered nothing cannot pass vacuously.
func equalSampleValues(a, b [][]string) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) || len(a[i]) == 0 {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// RunMultiQuery measures concurrent query workloads under wire
// coalescing. The headline: Q standing queries installed on the same
// tree coalesce their per-epoch reports into shared per-edge batches,
// so wire messages per epoch stay ~flat in Q while logical messages
// grow ~Q-fold — and per-sample values are byte-identical to the
// uncoalesced run, which ships ~Q x the wire messages for the same
// answers.
func RunMultiQuery(opt MultiQueryOptions) *Table {
	opt = opt.Defaults()
	t := &Table{
		Title: "Multi-query scale: per-destination wire coalescing under concurrent workloads",
		Note: fmt.Sprintf("N=%d (Emulab model), %d slices (Zipf), epoch=%v, %d epochs/rounds per series",
			opt.N, opt.Slices, opt.Period, opt.Epochs),
		Columns: []string{"series", "q", "latency_ms", "wire_per_epoch", "logical_per_epoch", "wire_vs_q1"},
	}
	maxQ := opt.Qs[len(opt.Qs)-1]

	var wireQ1, wireMax float64
	var valuesMax [][]string
	for _, q := range opt.Qs {
		lag, wire, logical, vals := mqStandingRun(opt, q, 0)
		if q == opt.Qs[0] {
			wireQ1 = wire
		}
		if q == maxQ {
			wireMax = wire
			valuesMax = vals
		}
		t.AddRow(fmt.Sprintf("standing x%d", q), fmt.Sprint(q), f1(lag), f1(wire), f1(logical),
			fmt.Sprintf("%.2fx", wire/wireQ1))
	}

	lagOff, wireOff, logicalOff, valuesOff := mqStandingRun(opt, maxQ, core.CoalesceOff)
	t.AddRow(fmt.Sprintf("standing x%d (coalesce off)", maxQ), fmt.Sprint(maxQ),
		f1(lagOff), f1(wireOff), f1(logicalOff), fmt.Sprintf("%.2fx", wireOff/wireQ1))
	identical := equalSampleValues(valuesMax, valuesOff)

	var oneWireQ1 float64
	for _, q := range []int{1, maxQ} {
		lat, wire, logical := mqOneShotRun(opt, q, 0)
		if q == 1 {
			oneWireQ1 = wire
		}
		t.AddRow(fmt.Sprintf("one-shot x%d (concurrent burst)", q), fmt.Sprint(q),
			f1(lat), f1(wire), f1(logical), fmt.Sprintf("%.2fx", wire/oneWireQ1))
	}
	window := opt.Period / 8
	lat, wire, logical := mqOneShotRun(opt, maxQ, window)
	t.AddRow(fmt.Sprintf("one-shot x%d (window=%v)", maxQ, window), fmt.Sprint(maxQ),
		f1(lat), f1(wire), f1(logical), fmt.Sprintf("%.2fx", wire/oneWireQ1))

	mixLat, mixWire, mixLogical := mqMixedRun(opt, maxQ)
	t.AddRow(fmt.Sprintf("mixed x%d (workload.MultiQuery)", maxQ), fmt.Sprint(maxQ),
		f1(mixLat), f1(mixWire), f1(mixLogical), "")

	t.Note += fmt.Sprintf("; standing x%d wire cost = %.2fx of x1 (uncoalesced: %.2fx); per-sample values identical across coalesced/uncoalesced: %v",
		maxQ, wireMax/wireQ1, wireOff/wireQ1, identical)
	return t
}
