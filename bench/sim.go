package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/simnet"
	moaraworkload "github.com/moara/moara/internal/workload"
)

// simCluster is a simulated deployment as the sim workloads drive it.
// End-to-end runs boot it with cluster.New, so that set-up cost is the
// cluster package's; a traced run builds the same thing from simnet,
// core and pastry directly, with a timing wrapper between the network
// and each node.
type simCluster struct {
	net   *simnet.Network
	nodes []*core.Node
	acc   *handleAcc // traced build only
}

func bootSim(opts cluster.Options, traced bool) *simCluster {
	if !traced {
		c := cluster.New(opts)
		return &simCluster{net: c.Net, nodes: c.Nodes}
	}
	sopts := simnet.Options{
		Seed: opts.Seed, Latency: opts.Latency, ProcDelay: opts.ProcDelay, ProcJitter: opts.ProcJitter,
		SerializeProc: opts.SerializeProc, Shards: opts.Shards, ShardWorkers: opts.ShardWorkers,
	}
	if opts.InstancesPerMachine > 1 {
		machineOf := make(map[ids.ID]int, opts.N)
		for i := 0; i < opts.N; i++ {
			machineOf[cluster.NodeID(i)] = i / opts.InstancesPerMachine
		}
		sopts.CPUOf = func(id ids.ID) int {
			if m, ok := machineOf[id]; ok {
				return m
			}
			return -1
		}
	}
	sc := &simCluster{net: simnet.New(sopts), acc: &handleAcc{}}
	members := make([]ids.ID, opts.N)
	for i := range members {
		members[i] = cluster.NodeID(i)
		env := sc.net.AddNode(members[i])
		n := core.NewNode(env, opts.Node, opts.Overlay)
		env.BindHandler(&tracedHandler{node: n, acc: sc.acc})
		sc.nodes = append(sc.nodes, n)
	}
	oracle := pastry.NewOracle(members)
	for _, n := range sc.nodes {
		oracle.Fill(n.Overlay())
	}
	return sc
}

// execute runs a one-shot query from node i to completion.
func (sc *simCluster) execute(i int, req core.Request) (core.Result, error) {
	var (
		res  core.Result
		err  error
		done bool
	)
	sc.nodes[i].Execute(req, func(r core.Result, e error) { res, err, done = r, e, true })
	sc.net.RunWhile(func() bool { return !done })
	if !done {
		return core.Result{}, fmt.Errorf("query did not complete (event queue drained)")
	}
	return res, err
}

// moaraMessages counts logical Moara-layer messages, as the paper does:
// queries, responses, status updates, probes and subscription traffic,
// without overlay maintenance.
func (sc *simCluster) moaraMessages() float64 {
	var total int64
	for kind, n := range sc.net.Counter().ByKind() {
		if strings.HasPrefix(kind, "moara.") {
			total += n
		}
	}
	return float64(total)
}

// simTrace turns the simulator's counters and the handler wrapper's
// totals into the sim workloads' trace.* numbers.
type simTrace struct {
	rec      *recorder
	kinds0   map[string]int64
	total0   int64
	wire0    int64
	handleNS time.Duration
	runNS    time.Duration
	calls    int64
}

func (st *simTrace) start(rec *recorder, sc *simCluster) {
	c := sc.net.Counter()
	st.rec, st.kinds0, st.total0, st.wire0 = rec, c.ByKind(), c.Total, c.Wire
	sc.acc.take()
	sc.acc.on.Store(true)
}

// span records one driver call into the simulator (RunFor/RunWhile and
// whatever the op does around it) with the handler time inside it as
// one aggregate child.
func (st *simTrace) span(sc *simCluster, start time.Time) {
	if st.rec == nil {
		return
	}
	end := time.Now()
	ns, calls := sc.acc.take()
	op, id := st.rec.newOp(), st.rec.reserve()
	st.rec.add(id, 0, op, "sim.run", start, end, 0)
	st.rec.add(0, id, op, "core.handle", start, start.Add(ns), calls)
	st.handleNS += ns
	st.runNS += end.Sub(start)
	st.calls += calls
}

func (st *simTrace) metrics(sc *simCluster, ops int) map[string]float64 {
	c := sc.net.Counter()
	kinds := c.ByKind()
	per := func(kind string) float64 { return float64(kinds[kind]-st.kinds0[kind]) / float64(ops) }
	share := float64(st.handleNS) / float64(st.runNS)
	return map[string]float64{
		"trace.core_handle_share": share,
		"trace.simnet_self_share": 1 - share,
		"trace.deliveries_per_op": float64(st.calls) / float64(ops),
		"trace.wire_batch_ratio":  float64(c.Wire-st.wire0) / float64(c.Total-st.total0),
		"trace.msgs.query":        per("moara.query"),
		"trace.msgs.resp":         per("moara.resp"),
		"trace.msgs.status":       per("moara.status"),
		"trace.msgs.probe":        per("moara.probe"),
		"trace.msgs.install":      per("moara.install"),
		"trace.msgs.epoch":        per("moara.epoch"),
		"trace.msgs.sample":       per("moara.sample"),
	}
}

func mustParse(text string) core.Request {
	req, err := core.ParseRequest(text)
	if err != nil {
		panic(fmt.Sprintf("bench catalogue query %q: %v", text, err)) // a bug in this file
	}
	return req
}

// ---------------------------------------------------------------------
// sim-groupchurn

const (
	churnN = 2000
	// churnOpsPerBlock is sized so that a block takes about 1.4 s on the
	// reference box.
	churnOpsPerBlock = 350
	// churnBatch nodes leave and as many join the churned group after
	// every query: 20 membership toggles.
	churnBatch      = 10
	churnSettle     = 500 * time.Millisecond
	churnWarmCycles = 6
	churnWarmOps    = 42
	churnWarmTol    = 0.20
)

// churnGroups are the group attributes and their sizes; the largest
// "group" is every node and needs no attribute.
var churnGroups = []struct {
	attr string
	size int
}{{"a32", 32}, {"a256", 256}, {"a1000", 1000}}

func inGroup(attr string) func(*table, int) bool {
	return func(t *table, i int) bool { return t.flag[attr][i] }
}

// churnMix covers the paper's Fig. 9/12/13 query shapes: scalar over
// groups of 32/256/1000/2000, grouped, and composite and/or.
var churnMix = []query{
	{text: "count(*) where a32 = true", agg: aggCount, member: inGroup("a32")},
	{text: "sum(load) where a256 = true", agg: aggSum, attr: "load", member: inGroup("a256")},
	{text: "avg(load) where a1000 = true", agg: aggAvg, attr: "load", member: inGroup("a1000")},
	{text: "max(load)", agg: aggMax, attr: "load"},
	{text: "avg(load) group by slice where a1000 = true", agg: aggAvg, attr: "load", groupBy: "slice",
		member: inGroup("a1000")},
	{text: "count(*) where a256 = true and a1000 = true", agg: aggCount,
		member: func(t *table, i int) bool { return t.flag["a256"][i] && t.flag["a1000"][i] }},
	{text: "sum(load) where a32 = true or a256 = true", agg: aggSum, attr: "load",
		member: func(t *table, i int) bool { return t.flag["a32"][i] || t.flag["a256"][i] }},
}

type toggle struct {
	attr string
	node int
	in   bool
}

type churnAnswer struct {
	q       int
	res     core.Result
	err     error
	toggles []toggle // applied after the query
}

type simGroupChurn struct {
	p    params
	n    int
	sc   *simCluster
	reqs []core.Request
	// live is the driver's view of membership, shadow the oracle's: it
	// trails behind and is advanced by replaying each answer's toggles
	// when the block is checked.
	live, shadow *table
	answers      []churnAnswer
	st           simTrace
}

func newSimGroupChurn(p params) *simGroupChurn {
	w := &simGroupChurn{p: p, n: churnN}
	if p.n > 0 {
		w.n = p.n
	}
	for _, q := range churnMix {
		w.reqs = append(w.reqs, mustParse(q.text))
	}
	return w
}

func (w *simGroupChurn) spec() estimatorSpec { return estimatorSpec{lat: latPooled} }

// churnTable seeds load and the initial memberships.
func (w *simGroupChurn) churnTable() *table {
	t := newTable(w.n)
	rng := rand.New(rand.NewSource(w.p.seed))
	load := make([]float64, w.n)
	slice := make([]string, w.n)
	for i := range load {
		load[i] = math.Round(rng.Float64()*1e5) / 1e3
		slice[i] = fmt.Sprintf("s%02d", i%16)
	}
	t.num["load"], t.str["slice"] = load, slice
	for _, g := range churnGroups {
		in := make([]bool, w.n)
		for _, i := range rng.Perm(w.n)[:g.size*w.n/churnN] {
			in[i] = true
		}
		t.flag[g.attr] = in
	}
	return t
}

func (t *table) cloneFlags() *table {
	c := &table{n: t.n, num: t.num, str: t.str, flag: map[string][]bool{}}
	for k, v := range t.flag {
		c.flag[k] = append([]bool(nil), v...)
	}
	return c
}

func (w *simGroupChurn) setup() error {
	w.sc = bootSim(cluster.Options{
		N: w.n, Seed: w.p.seed,
		// The paper's Emulab testbed: a LAN, per-message software cost,
		// ten instances sharing each machine's CPU.
		Latency:   simnet.LAN(simnet.LANConfig{}),
		ProcDelay: 800 * time.Microsecond, ProcJitter: 400 * time.Microsecond,
		SerializeProc: true, InstancesPerMachine: 10,
	}, w.p.trace)
	w.live = w.churnTable()
	w.shadow = w.live.cloneFlags()
	for i, nd := range w.sc.nodes {
		st := nd.Store()
		st.SetFloat("load", w.live.num["load"][i])
		st.SetString("slice", w.live.str["slice"][i])
		for _, g := range churnGroups {
			st.SetBool(g.attr, w.live.flag[g.attr][i])
		}
	}
	// Warm-up runs the measured op shape from its own seed stream until
	// a cycle's message cost is within tolerance of the previous one's.
	rng := rand.New(rand.NewSource(w.p.seed ^ 0x7761726d))
	var costs []float64
	for cyc := 0; cyc < churnWarmCycles; cyc++ {
		m0 := w.sc.moaraMessages()
		c := w.drive(rng, max(len(churnMix), churnWarmOps*w.n/churnN))
		if c.failed > 0 {
			return fmt.Errorf("warm-up cycle %d: %d of %d queries failed", cyc, c.failed, c.ops)
		}
		if chk := w.checkBlock(0); chk.failed > 0 {
			return fmt.Errorf("warm-up cycle %d: %w", cyc, chk.firstErr)
		}
		costs = append(costs, w.sc.moaraMessages()-m0)
	}
	return settled(costs, churnWarmTol)
}

func (w *simGroupChurn) teardown() { w.sc = nil }

// drive runs `ops` operations: a query from a random front-end, then a
// membership replacement in a random group, then quiet virtual time for
// the status updates to propagate.
func (w *simGroupChurn) drive(rng *rand.Rand, ops int) blockCounts {
	w.answers = w.answers[:0]
	c := blockCounts{ops: ops, units: float64(ops), costOps: float64(ops)}
	order := rng.Perm(len(churnMix))
	var members, outsiders []int
	for k := 0; k < ops; k++ {
		start := time.Now()
		qi := order[k%len(order)]
		res, err := w.sc.execute(rng.Intn(w.n), w.reqs[qi])
		if err != nil {
			c.failed++
		} else {
			c.latMS = append(c.latMS, float64(res.Stats.TotalTime)/1e6)
		}
		g := churnGroups[rng.Intn(len(churnGroups))]
		members, outsiders = members[:0], outsiders[:0]
		for i, in := range w.live.flag[g.attr] {
			if in {
				members = append(members, i)
			} else {
				outsiders = append(outsiders, i)
			}
		}
		leave, join := moaraworkload.ReplaceBatch(rng, members, outsiders, churnBatch)
		toggles := make([]toggle, 0, len(leave)+len(join))
		for _, i := range leave {
			toggles = append(toggles, toggle{g.attr, i, false})
		}
		for _, i := range join {
			toggles = append(toggles, toggle{g.attr, i, true})
		}
		for _, tg := range toggles {
			w.live.flag[tg.attr][tg.node] = tg.in
			w.sc.nodes[tg.node].Store().SetBool(tg.attr, tg.in)
		}
		w.sc.net.RunFor(churnSettle)
		w.st.span(w.sc, start)
		w.answers = append(w.answers, churnAnswer{qi, res, err, toggles})
	}
	return c
}

func (w *simGroupChurn) beforeBlock() {}

func (w *simGroupChurn) runBlock(b int) blockCounts {
	rng := rand.New(rand.NewSource(w.p.seed*1000003 + int64(b)))
	m0 := w.sc.moaraMessages()
	c := w.drive(rng, max(len(churnMix), w.p.scaled(churnOpsPerBlock)*w.n/churnN))
	c.msgs = w.sc.moaraMessages() - m0
	return c
}

func (w *simGroupChurn) checkBlock(int) checkResult {
	var r checkResult
	env := exact(w.shadow.num["load"])
	for _, a := range w.answers {
		if a.err != nil {
			if r.firstErr == nil {
				r.firstErr = a.err
			}
		} else {
			members, err := w.shadow.check(churnMix[a.q], env, a.res)
			if err != nil {
				r.failed++
				if r.firstErr == nil {
					r.firstErr = err
				}
			}
			if members > 0 {
				r.coverSum += float64(a.res.Contributors) / float64(members)
				r.coverN++
			}
		}
		for _, tg := range a.toggles {
			w.shadow.flag[tg.attr][tg.node] = tg.in
		}
	}
	w.answers = w.answers[:0]
	return r
}

func (w *simGroupChurn) stamp(env map[string]any) {
	env["nodes"], env["engine"] = w.n, "classic simnet, Emulab LAN model (SerializeProc, 10 instances/machine)"
	env["loop"], env["clients"] = "closed", 1
}

func (w *simGroupChurn) traceStart(rec *recorder) { w.st.start(rec, w.sc) }

func (w *simGroupChurn) traceMetrics(ops int, _ float64) map[string]float64 {
	return w.st.metrics(w.sc, ops)
}

// ---------------------------------------------------------------------
// sim-scale

const (
	scaleN      = 10000
	scalePeriod = 200 * time.Millisecond
	// scaleEpochsPerBlock is sized so that a block takes about 1.4 s on
	// the reference box.
	scaleEpochsPerBlock = 6
	// scaleRewrite is the share of nodes that rewrite mem_util before
	// each epoch.
	scaleRewrite = 0.01
	// scaleStaleEpochs bounds how old a leaf value folded into a sample
	// may be: one epoch per tree level, with room to spare at N=10k.
	scaleStaleEpochs = 8
)

var scaleQueries = []query{
	{text: "avg(mem_util) group by slice", agg: aggAvg, attr: "mem_util", groupBy: "slice"},
	{text: "p99(mem_util)", agg: aggP99, attr: "mem_util"},
	{text: "dcount(slice)", agg: aggDCount, attr: "slice"},
	{text: "count(*) where g8 = true", agg: aggCount, member: inGroup("g8")},
}

type scaleSample struct {
	sub   int
	epoch int
	s     core.Sample
}

type simScale struct {
	p       params
	n       int
	sc      *simCluster
	tab     *table
	log     *writeLog
	members []int
	epoch   int // epochs driven since set-up
	samples []scaleSample
	rng     *rand.Rand
	st      simTrace
}

func newSimScale(p params) *simScale {
	w := &simScale{p: p, n: scaleN}
	if p.n > 0 {
		w.n = p.n
	}
	return w
}

func (w *simScale) spec() estimatorSpec { return estimatorSpec{lat: latPooled} }

func (w *simScale) setup() error {
	w.sc = bootSim(cluster.Options{
		N: w.n, Seed: w.p.seed,
		// Per-message draws rather than a fixed delay per pair: the four
		// streams have four roots, and with pairwise delays their lag
		// would take four values that the seed moves by a fifth.
		Latency:   simnet.Uniform(15*time.Millisecond, 25*time.Millisecond),
		ProcDelay: 300 * time.Microsecond,
		// Two shards drained by one worker: the sharded engine's data
		// layout without its parallelism, whose run-to-run spread on a
		// 2-vCPU box is too wide to gate (see layer.simnet.shard_speedup_w2).
		Shards: 2, ShardWorkers: 1,
		Node: core.Config{SubTTL: 10 * time.Minute},
	}, w.p.trace)
	w.rng = rand.New(rand.NewSource(w.p.seed))
	w.tab = newTable(w.n)
	mem := make([]float64, w.n)
	slice := make([]string, w.n)
	g8 := make([]bool, w.n)
	for i := range mem {
		mem[i] = math.Round(w.rng.Float64()*1e5) / 1e3
		slice[i] = fmt.Sprintf("s%02d", i%16)
		g8[i] = i%8 == 0
	}
	w.tab.num["mem_util"], w.tab.str["slice"], w.tab.flag["g8"] = mem, slice, g8
	w.log = newWriteLog(mem)
	for i, nd := range w.sc.nodes {
		st := nd.Store()
		st.SetFloat("mem_util", mem[i])
		st.SetString("slice", slice[i])
		st.SetBool("g8", g8[i])
	}
	w.epoch, w.samples, w.members = 0, nil, nil
	for i, q := range scaleQueries {
		req := mustParse(fmt.Sprintf("%s every %v", q.text, scalePeriod))
		if _, err := w.sc.nodes[0].Subscribe(req, func(s core.Sample) {
			w.samples = append(w.samples, scaleSample{i, w.epoch, s})
		}); err != nil {
			return fmt.Errorf("subscribe %q: %w", q.text, err)
		}
		w.members = append(w.members, len(w.tab.members(q)))
	}
	// Set-up ends at the first warm sample of every stream that covers
	// its whole group.
	warm := make([]bool, len(scaleQueries))
	for n := 0; n < len(warm); {
		if w.epoch > 64 {
			return fmt.Errorf("standing streams did not warm up within 64 epochs")
		}
		w.sc.net.RunFor(scalePeriod)
		w.epoch++
		for _, s := range w.samples {
			if !warm[s.sub] && !s.s.ColdStart && s.s.Contributors == int64(w.members[s.sub]) {
				warm[s.sub] = true
				n++
			}
		}
		w.samples = w.samples[:0]
	}
	return nil
}

func (w *simScale) teardown() { w.sc = nil }

func (w *simScale) beforeBlock() {}

func (w *simScale) runBlock(int) blockCounts {
	epochs := w.p.scaled(scaleEpochsPerBlock)
	rewrites := max(1, int(scaleRewrite*float64(w.n)))
	m0 := w.sc.moaraMessages()
	for e := 0; e < epochs; e++ {
		start := time.Now()
		w.epoch++
		for k := 0; k < rewrites; k++ {
			node, v := w.rng.Intn(w.n), math.Round(w.rng.Float64()*1e5)/1e3
			w.log.set(float64(w.epoch), node, v)
			w.sc.nodes[node].Store().SetFloat("mem_util", v)
		}
		w.sc.net.RunFor(scalePeriod)
		w.st.span(w.sc, start)
	}
	c := blockCounts{ops: epochs * len(scaleQueries), costOps: float64(len(w.samples))}
	c.units = w.sc.moaraMessages() - m0
	c.msgs = c.units
	c.failed = max(0, c.ops-len(w.samples))
	for _, s := range w.samples {
		c.latMS = append(c.latMS, float64(s.s.Lag)/1e6)
	}
	return c
}

func (w *simScale) checkBlock(int) checkResult {
	var r checkResult
	for _, s := range w.samples {
		r.coverSum += float64(s.s.Contributors) / float64(w.members[s.sub])
		r.coverN++
		if s.s.Contributors < int64(w.members[s.sub]) {
			r.incomplete++ // coverage carries it, as on tcp-standing
			continue
		}
		env := w.log.envelopeAt(float64(s.epoch), scaleStaleEpochs, 0)
		if _, err := w.tab.check(scaleQueries[s.sub], env, s.s.Result); err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("epoch %d: %w", s.epoch, err)
			}
		}
	}
	w.samples = w.samples[:0]
	w.log.trim(float64(w.epoch - 2*scaleStaleEpochs))
	return r
}

func (w *simScale) stamp(env map[string]any) {
	env["nodes"], env["engine"] = w.n, "sharded simnet (2 shards, 1 worker), pairwise latency"
	env["loop"], env["subscriptions"] = "open, on the virtual epoch grid", len(scaleQueries)
}

func (w *simScale) traceStart(rec *recorder) { w.st.start(rec, w.sc) }

func (w *simScale) traceMetrics(ops int, _ float64) map[string]float64 {
	return w.st.metrics(w.sc, ops)
}
