package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/service"
	"github.com/moara/moara/internal/transport"
	"github.com/moara/moara/internal/value"
)

// The tcp workloads run in-process transport agents over the host's
// loopback interface: the traffic crosses real sockets and the kernel's
// TCP stack, not a link, so wire latency and link rate are not measured.

const (
	tcpAgents = 128
	// frontA/frontB are the agents the two service front-ends sit on.
	frontA, frontB = 0, 64
	// opTimeout bounds one query or one freshness probe; an op that
	// exceeds it is a failed op.
	opTimeout = 5 * time.Second
)

// portBases are the loopback port ranges the agents listen on, tried in
// order. transport.IDOf hashes the listen address, so fixed ports give
// the same overlay (tree shapes, hop counts, message cost) in every
// run; ":0" would give a new one each time. The base does not depend on
// the seed, because the pipeline compares runs across seeds. All ranges
// sit below the kernel's ephemeral range, which the agents' outgoing
// connections use.
var portBases = []int{21000, 23000, 25000, 27000}

type tcpCluster struct {
	nodes    []*transport.Node
	portBase int
	topoHash string
}

// bootTCP starts n agents on consecutive fixed ports and gives each the
// full roster. stagger is slept after each start. An agent's epoch grid
// is anchored at its own start, so agents started back to back all tick
// within a millisecond of each other, and whether a child's report
// reaches its parent just before or just after the parent's tick (a
// whole period of difference) is a race that changes from run to run.
// Staggering the starts over one period gives every agent its own
// phase, as agents started independently would have, and makes the
// order of ticks along every tree edge the same in every run.
func bootTCP(n int, stagger time.Duration) (*tcpCluster, error) {
	var lastErr error
	for _, base := range portBases {
		c := &tcpCluster{portBase: base}
		for i := 0; i < n; i++ {
			nd, err := transport.Listen(fmt.Sprintf("127.0.0.1:%d", base+i), nil, transport.Options{})
			if err != nil {
				lastErr = err
				break
			}
			c.nodes = append(c.nodes, nd)
			time.Sleep(stagger)
		}
		if len(c.nodes) < n {
			c.close()
			continue
		}
		roster := make([]string, n)
		h := fnv.New64a()
		for i, nd := range c.nodes {
			roster[i] = nd.Addr()
			h.Write([]byte(nd.ID().String()))
		}
		for _, nd := range c.nodes {
			nd.ApplyRoster(roster)
		}
		c.topoHash = fmt.Sprintf("%016x", h.Sum64())
		return c, nil
	}
	return nil, fmt.Errorf("no free port range among %v: %w", portBases, lastErr)
}

// close shuts every agent down and waits for its goroutines.
func (c *tcpCluster) close() {
	var wg sync.WaitGroup
	for _, nd := range c.nodes {
		wg.Add(1)
		go func() { defer wg.Done(); nd.Close() }()
	}
	wg.Wait()
	c.nodes = nil
}

// stats sums the transport counters over all agents.
func (c *tcpCluster) stats() transport.Stats {
	var t transport.Stats
	for _, nd := range c.nodes {
		s := nd.Stats()
		t.MsgsOut += s.MsgsOut
		t.BytesOut += s.BytesOut
		t.Dials += s.Dials
		t.DecodeErrors += s.DecodeErrors
	}
	return t
}

// tcpTable is the attribute table of the tcp workloads: load is seeded,
// group structure is fixed so that message cost does not vary by seed.
func tcpTable(n int, seed int64) *table {
	t := newTable(n)
	rng := rand.New(rand.NewSource(seed))
	load := make([]float64, n)
	slice := make([]string, n)
	g8 := make([]bool, n)
	g16 := make([]bool, n)
	for i := 0; i < n; i++ {
		load[i] = math.Round(rng.Float64()*1e5) / 1e3
		slice[i] = fmt.Sprintf("s%02d", i%16)
		g8[i] = i%8 == 0
		g16[i] = i%16 == 5
	}
	t.num["load"], t.str["slice"] = load, slice
	t.flag["g8"], t.flag["g16"] = g8, g16
	return t
}

func (c *tcpCluster) load(t *table) {
	for i, nd := range c.nodes {
		nd.Do(func(n *core.Node) {
			st := n.Store()
			st.SetFloat("load", t.num["load"][i])
			st.SetString("slice", t.str["slice"][i])
			st.SetBool("g8", t.flag["g8"][i])
			st.SetBool("g16", t.flag["g16"][i])
		})
	}
}

// tcpTrace holds the counters a traced tcp run diffs.
type tcpTrace struct {
	rec        *recorder
	stats0     transport.Stats
	goroutines int
}

func (tt *tcpTrace) start(rec *recorder, c *tcpCluster) {
	tt.rec, tt.stats0, tt.goroutines = rec, c.stats(), runtime.NumGoroutine()
}

func (tt *tcpTrace) sampleGoroutines() {
	if tt.rec != nil {
		tt.goroutines = max(tt.goroutines, runtime.NumGoroutine())
	}
}

func (tt *tcpTrace) metrics(c *tcpCluster, ops int, units float64) map[string]float64 {
	s := c.stats()
	msgs := float64(s.MsgsOut - tt.stats0.MsgsOut)
	bytes := float64(s.BytesOut - tt.stats0.BytesOut)
	return map[string]float64{
		"trace.wire_msgs_per_op":    msgs / float64(ops),
		"trace.wire_bytes_per_unit": bytes / units,
		"trace.bytes_per_msg":       bytes / msgs,
		"trace.dials":               float64(s.Dials - tt.stats0.Dials),
		"trace.decode_errors":       float64(s.DecodeErrors - tt.stats0.DecodeErrors),
		"trace.goroutines_peak":     float64(tt.goroutines),
	}
}

// ---------------------------------------------------------------------
// tcp-oneshot

// oneshotMix is the fixed query mix both clients cycle through: scalar,
// grouped, sketch, filtered, conjunctive and disjunctive forms.
var oneshotMix = []query{
	{text: "avg(load)", agg: aggAvg, attr: "load"},
	{text: "avg(load) group by slice", agg: aggAvg, attr: "load", groupBy: "slice"},
	{text: "p99(load)", agg: aggP99, attr: "load"},
	{text: "count(*) where g8 = true", agg: aggCount,
		member: func(t *table, i int) bool { return t.flag["g8"][i] }},
	{text: "max(load) where g8 = true and slice = s08", agg: aggMax, attr: "load",
		member: func(t *table, i int) bool { return t.flag["g8"][i] && t.str["slice"][i] == "s08" }},
	{text: "sum(load) where g8 = true or g16 = true", agg: aggSum, attr: "load",
		member: func(t *table, i int) bool { return t.flag["g8"][i] || t.flag["g16"][i] }},
}

const (
	// oneshotOpsPerClient is each client's op count per block, sized so
	// that a block takes about 1.4 s on the reference box.
	oneshotOpsPerClient = 204
	oneshotWarmCycles   = 8
	oneshotWarmMax      = 24
	oneshotWarmOps      = 24 // per client per warm-up cycle
	oneshotWarmTol      = 0.20
)

type oneshotAnswer struct {
	q   int
	res core.Result
	err error
}

type tcpOneshot struct {
	p   params
	n   int
	tab *table
	cl  *tcpCluster
	svc [2]*service.Service
	be  [2]*tracedBackend
	// order is each client's seeded permutation of the mix.
	order   [2][]int
	answers [2][]oneshotAnswer
	tt      tcpTrace
}

func newTCPOneshot(p params) *tcpOneshot {
	w := &tcpOneshot{p: p, n: tcpAgents}
	if p.n > 0 {
		w.n = p.n
	}
	w.tab = tcpTable(w.n, p.seed)
	rng := rand.New(rand.NewSource(p.seed ^ 0x6f6e65))
	for c := range w.order {
		w.order[c] = rng.Perm(len(oneshotMix))
	}
	return w
}

func (w *tcpOneshot) spec() estimatorSpec { return estimatorSpec{lat: latBlockNormalised} }

func (w *tcpOneshot) fronts() [2]int { return [2]int{frontA % w.n, frontB % w.n} }

func (w *tcpOneshot) setup() error {
	cl, err := bootTCP(w.n, 0)
	if err != nil {
		return err
	}
	w.cl = cl
	cl.load(w.tab)
	for c, f := range w.fronts() {
		w.be[c] = &tracedBackend{agent: cl.nodes[f]}
		w.svc[c] = service.New(w.be[c], service.Options{})
	}
	// Warm-up: connections get dialed and the trees settle into their
	// pruned shape. It is done when the last oneshotWarmCycles cycles have
	// stopped changing what a cycle costs. That usually holds at once;
	// when the two clients' interleaving makes it fail (about one set-up
	// in 180) cycles are added until it holds.
	var costs []float64
	for cyc := 0; ; cyc++ {
		m0 := cl.stats().MsgsOut
		c := w.drive(oneshotWarmOps, 0)
		if c.failed > 0 {
			return fmt.Errorf("warm-up cycle %d: %d of %d queries failed", cyc, c.failed, c.ops)
		}
		costs = append(costs, float64(cl.stats().MsgsOut-m0))
		if len(costs) < oneshotWarmCycles {
			continue
		}
		err := settled(costs[len(costs)-oneshotWarmCycles:], oneshotWarmTol)
		if err == nil || len(costs) == oneshotWarmMax {
			return err
		}
	}
}

// settled checks that warm-up has stopped changing what a cycle costs.
// The first cycle may be cold (connections are dialed, trees are built)
// and is left out; of the rest, the mean message cost of the later half must
// be within tol of the earlier half's. Halves, because single cycles
// differ by more than ten percent even when warm: the adaptation policy
// keeps reacting to how the two clients' queries interleave.
func settled(costs []float64, tol float64) error {
	warm := costs[1:]
	half := len(warm) / 2
	mean := func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	if early, late := mean(warm[:half]), mean(warm[half:]); math.Abs(late-early) > tol*early {
		return fmt.Errorf("warm-up did not settle: message cost per cycle %v", costs)
	}
	return nil
}

func (w *tcpOneshot) teardown() {
	if w.cl != nil {
		w.cl.close()
		w.cl = nil
	}
}

// drive runs both closed-loop clients for opsPerClient queries each,
// starting at position `from` of their cycles.
func (w *tcpOneshot) drive(opsPerClient, from int) blockCounts {
	var wg sync.WaitGroup
	var lat [2][]float64
	var failed [2]int
	for c := range w.svc {
		w.answers[c] = w.answers[c][:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := w.be[c].rec.Load()
			for k := 0; k < opsPerClient; k++ {
				qi := w.order[c][(from+k)%len(oneshotMix)]
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				var op, sp int64
				if rec != nil {
					op, sp = rec.newOp(), rec.reserve()
					ctx = withOp(ctx, op, sp)
				}
				t0 := time.Now()
				res, err := w.svc[c].Query(ctx, oneshotMix[qi].text)
				t1 := time.Now()
				cancel()
				if rec != nil {
					rec.add(sp, 0, op, "service.query", t0, t1, 0)
				}
				if err != nil {
					failed[c]++
				} else {
					lat[c] = append(lat[c], float64(t1.Sub(t0))/1e6)
				}
				w.answers[c] = append(w.answers[c], oneshotAnswer{qi, res, err})
			}
		}()
	}
	wg.Wait()
	w.tt.sampleGoroutines()
	ops := 2 * opsPerClient
	return blockCounts{ops: ops, failed: failed[0] + failed[1], units: float64(ops), costOps: float64(ops),
		latMS: append(lat[0], lat[1]...)}
}

func (w *tcpOneshot) beforeBlock() {}

func (w *tcpOneshot) runBlock(b int) blockCounts {
	n := w.p.scaled(oneshotOpsPerClient)
	m0 := w.cl.stats().MsgsOut
	c := w.drive(n, b*n)
	c.msgs = float64(w.cl.stats().MsgsOut - m0)
	return c
}

func (w *tcpOneshot) checkBlock(int) checkResult {
	var r checkResult
	env := exact(w.tab.num["load"])
	for c := range w.answers {
		for _, a := range w.answers[c] {
			if a.err != nil {
				if r.firstErr == nil {
					r.firstErr = a.err
				}
				continue // already counted by drive
			}
			members, err := w.tab.check(oneshotMix[a.q], env, a.res)
			if err != nil {
				r.failed++
				if r.firstErr == nil {
					r.firstErr = err
				}
			}
			r.coverSum += float64(a.res.Contributors) / float64(members)
			r.coverN++
		}
	}
	return r
}

func (w *tcpOneshot) stamp(env map[string]any) {
	env["port_base"], env["topology_hash"] = w.cl.portBase, w.cl.topoHash
	env["agents"], env["clients"], env["loop"] = w.n, 2, "closed"
	env["network"] = "host loopback (no link crossed)"
}

func (w *tcpOneshot) traceStart(rec *recorder) {
	w.tt.start(rec, w.cl)
	for _, be := range w.be {
		be.rec.Store(rec)
	}
}

func (w *tcpOneshot) traceMetrics(ops int, units float64) map[string]float64 {
	m := w.tt.metrics(w.cl, ops, units)
	backend, _ := w.tt.rec.total("backend.execute")
	svc, _ := w.tt.rec.total("service.query")
	m["trace.service_self_us"] = (svc - backend) * 1e6 / float64(ops)
	m["trace.backend_us"] = backend * 1e6 / float64(ops)
	return m
}

// ---------------------------------------------------------------------
// tcp-standing

const (
	standingPeriod = 100 * time.Millisecond
	// standingEpochsPerBlock sizes a block window at refSeconds; with
	// the probe and the re-alignment between windows twelve blocks take
	// about 20 s.
	standingEpochsPerBlock = 15
	// staleWindow is how old a leaf value folded into a sample may be
	// (seconds): one epoch per tree level plus delivery, generously.
	staleWindow = 1.0
	staleSlack  = 0.15
)

// freshnessAttrs are the attributes of the freshness chains, one
// max() stream each, alternating between the two front-ends. The first
// is the attribute the checked streams aggregate, so its writes land
// beside their reads; the others exist to reach a sample count that
// supports a p90 within the run length.
var freshnessAttrs = []string{"load", "beat1", "beat2", "beat3"}

// standingForms are the four normalized forms, each in two spellings
// that the service must recognise as one stream.
var standingForms = []struct {
	q        query
	spelling [2]string
}{
	{query{agg: aggAvg, attr: "load", groupBy: "slice"},
		[2]string{"avg(load) group by slice", "mean(load) group by slice"}},
	{query{agg: aggCount, member: func(t *table, i int) bool { return t.flag["g8"][i] }},
		[2]string{"count(*) where g8 = true", "count(*) where g8 = true and g8 = true"}},
	{query{agg: aggP99, attr: "load"},
		[2]string{"p99(load)", "quantile(load, 0.99)"}},
	{query{agg: aggDCount, attr: "slice"},
		[2]string{"dcount(slice)", "countdistinct(slice)"}},
}

// arrival is one delivered sample with its wall arrival time (seconds
// since the workload started).
type arrival struct {
	sub int
	at  float64
	s   core.Sample
}

// freshness is one write-to-visible probe chain: a writer sets `attr`
// on a rotating agent to a rising sentinel and waits until the max()
// stream of its front-end shows it. One probe is outstanding per chain.
type freshness struct {
	attr    string
	pending atomic.Uint64
	visible chan time.Time
	next    float64 // next sentinel
	turn    int     // next agent in the rotation
}

type probeResult struct {
	done  float64 // wall seconds since start
	latMS float64
	ok    bool
}

type tcpStanding struct {
	p   params
	n   int
	tab *table
	cl  *tcpCluster
	svc [2]*service.Service
	be  [2]*tracedBackend
	t0  time.Time

	mu       sync.Mutex
	arrivals []arrival
	probes   []probeResult
	loadLog  *writeLog

	subs      []core.Sub
	queries   []query  // per subscriber index
	members   []int    // per subscriber: true member count
	lastRoot  []uint64 // per subscriber, for the monotonicity check
	chains    []*freshness
	stop      chan struct{}
	wg        sync.WaitGroup
	tick      chan struct{} // pulses on every chain-0 sample
	blockFrom float64
	blockTo   float64
	tt        tcpTrace
}

func newTCPStanding(p params) *tcpStanding {
	w := &tcpStanding{p: p, n: tcpAgents}
	if p.n > 0 {
		w.n = p.n
	}
	w.tab = tcpTable(w.n, p.seed)
	return w
}

// The agents run on real timers on a shared box, so a run is still
// called correct when up to one unit in 500 fails; every failure is
// reported all the same.
func (w *tcpStanding) spec() estimatorSpec {
	return estimatorSpec{lat: latPooled, timerBound: true, failTolerance: 1.0 / 500}
}

func (w *tcpStanding) now() float64 { return time.Since(w.t0).Seconds() }

// subscribe installs one checked subscription; its samples land in
// w.arrivals.
func (w *tcpStanding) subscribe(svc *service.Service, text string, q query) error {
	idx := len(w.subs)
	sub, err := svc.Subscribe(context.Background(), fmt.Sprintf("%s every %v", text, standingPeriod),
		func(s core.Sample) {
			at := w.now()
			w.mu.Lock()
			w.arrivals = append(w.arrivals, arrival{idx, at, s})
			w.mu.Unlock()
		})
	if err != nil {
		return fmt.Errorf("subscribe %q: %w", text, err)
	}
	q.text = text
	w.subs = append(w.subs, sub)
	w.queries = append(w.queries, q)
	w.members = append(w.members, len(w.tab.members(q)))
	w.lastRoot = append(w.lastRoot, 0)
	return nil
}

func (w *tcpStanding) setup() error {
	cl, err := bootTCP(w.n, standingPeriod/time.Duration(w.n))
	if err != nil {
		return err
	}
	w.cl = cl
	cl.load(w.tab)
	w.t0 = time.Now()
	w.loadLog = newWriteLog(w.tab.num["load"])
	w.arrivals, w.probes = nil, nil
	w.subs, w.queries, w.members, w.lastRoot = nil, nil, nil, nil
	fronts := [2]int{frontA % w.n, frontB % w.n}
	for c, f := range fronts {
		w.be[c] = &tracedBackend{agent: cl.nodes[f]}
		w.svc[c] = service.New(w.be[c], service.Options{})
	}
	// All eight checked subscriptions go through front-end A, the second
	// spelling of each form after the first, so half of them attach.
	for sp := 0; sp < 2; sp++ {
		for _, f := range standingForms {
			if err := w.subscribe(w.svc[0], f.spelling[sp], f.q); err != nil {
				return err
			}
		}
	}
	w.tick = make(chan struct{}, 1)
	rng := rand.New(rand.NewSource(w.p.seed ^ 0x7374616e64))
	w.chains = nil
	for c, attr := range freshnessAttrs {
		ch := &freshness{attr: attr, visible: make(chan time.Time, 1), next: 1000, turn: rng.Intn(w.n)}
		w.chains = append(w.chains, ch)
		sub, err := w.svc[c%2].Subscribe(context.Background(),
			fmt.Sprintf("max(%s) every %v", attr, standingPeriod), func(s core.Sample) {
				now := time.Now()
				if c == 0 {
					select {
					case w.tick <- struct{}{}:
					default:
					}
				}
				p := ch.pending.Load()
				if p == 0 {
					return
				}
				if v, ok := s.Result.Agg.Value.AsFloat(); ok && v >= math.Float64frombits(p) &&
					ch.pending.CompareAndSwap(p, 0) {
					ch.visible <- now
				}
			})
		if err != nil {
			return fmt.Errorf("subscribe freshness %s: %w", attr, err)
		}
		w.subs = append(w.subs, sub)
	}
	// Set-up ends at the first warm sample of every checked stream that
	// covers its whole group.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if w.allWarm() {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("standing streams did not warm up within 30s")
		}
		time.Sleep(standingPeriod / 4)
	}
	w.stop = make(chan struct{})
	for c := range w.chains {
		w.wg.Add(1)
		seed := w.p.seed ^ int64(c+1)*0x9e3779b9
		go func() { defer w.wg.Done(); w.runChain(w.chains[c], rand.New(rand.NewSource(seed))) }()
	}
	return nil
}

func (w *tcpStanding) allWarm() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	warm := make([]bool, len(w.queries))
	for _, a := range w.arrivals {
		if !a.s.ColdStart && a.s.Contributors == int64(w.members[a.sub]) {
			warm[a.sub] = true
		}
	}
	for _, ok := range warm {
		if !ok {
			return false
		}
	}
	return true
}

// runChain issues freshness probes back to back until stopped. Each
// write waits a seeded fraction of a period first, so that writes land
// at every phase of the epoch grid rather than just after a tick.
func (w *tcpStanding) runChain(ch *freshness, rng *rand.Rand) {
	for {
		select {
		case <-w.stop:
			return
		case <-time.After(time.Duration(rng.Int63n(int64(standingPeriod)))):
		}
		ch.next++
		node := ch.turn % w.n
		ch.turn++
		ch.pending.Store(math.Float64bits(ch.next))
		t0 := time.Now()
		if ch.attr == "load" {
			// Log before the write lands so that no sample can see a value
			// the oracle does not know about.
			w.mu.Lock()
			w.loadLog.set(w.now(), node, ch.next)
			w.mu.Unlock()
		}
		w.cl.nodes[node].SetAttr(ch.attr, value.Float(ch.next))
		var res probeResult
		select {
		case t := <-ch.visible:
			res = probeResult{latMS: float64(t.Sub(t0)) / 1e6, ok: true}
		case <-time.After(opTimeout):
			ch.pending.Store(0)
			select { // a sample may have claimed the probe just before
			case <-ch.visible:
			default:
			}
		case <-w.stop:
			return
		}
		res.done = w.now()
		w.mu.Lock()
		w.probes = append(w.probes, res)
		w.mu.Unlock()
	}
}

func (w *tcpStanding) teardown() {
	if w.stop != nil {
		close(w.stop)
		w.wg.Wait()
		w.stop = nil
	}
	for _, s := range w.subs {
		_ = s.Unsubscribe() // the agents are closed next; a failed cancel changes nothing
	}
	w.subs = nil
	if w.cl != nil {
		w.cl.close()
		w.cl = nil
	}
}

// beforeBlock waits for the next tick and then half a period, so that
// the window's edges fall between ticks.
func (w *tcpStanding) beforeBlock() {
	select {
	case <-w.tick:
	default:
	}
	select {
	case <-w.tick:
	case <-time.After(opTimeout):
	}
	time.Sleep(standingPeriod / 2)
}

// runBlock is an open-loop window of a fixed number of epochs: the
// agents tick on their own timers whatever the bench does.
func (w *tcpStanding) runBlock(int) blockCounts {
	epochs := w.p.scaled(standingEpochsPerBlock)
	m0 := w.cl.stats().MsgsOut
	w.blockFrom = w.now()
	time.Sleep(time.Duration(epochs) * standingPeriod)
	w.blockTo = w.now()
	msgs := float64(w.cl.stats().MsgsOut - m0)
	w.tt.sampleGoroutines()

	w.mu.Lock()
	defer w.mu.Unlock()
	c := blockCounts{msgs: msgs}
	for _, a := range w.arrivals {
		if a.at >= w.blockFrom && a.at < w.blockTo {
			c.units++
		}
	}
	for _, pr := range w.probes {
		if pr.done >= w.blockFrom && pr.done < w.blockTo {
			c.ops++
			if pr.ok {
				c.latMS = append(c.latMS, pr.latMS)
			} else {
				c.failed++
			}
		}
	}
	// Attempted: the samples the window should have delivered plus the
	// probes that ended in it.
	c.ops += epochs * len(w.queries)
	c.costOps = c.units
	return c
}

// checkBlock checks every sample that arrived up to the end of the
// window and has not been checked yet, then forgets it.
func (w *tcpStanding) checkBlock(int) checkResult {
	w.mu.Lock()
	defer w.mu.Unlock()
	var r checkResult
	fail := func(err error) {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	perSub := make([]int, len(w.queries))
	for _, a := range w.arrivals {
		q := w.queries[a.sub]
		inWindow := a.at >= w.blockFrom && a.at < w.blockTo
		if inWindow {
			perSub[a.sub]++
		}
		// Stream faults: the root's epoch counter must advance by one per
		// delivered sample; a gap is that many missing samples.
		if last := w.lastRoot[a.sub]; last != 0 && a.s.RootEpoch != last+1 {
			if a.s.RootEpoch > last+1 {
				for k := last + 1; k < a.s.RootEpoch; k++ {
					fail(fmt.Errorf("%s: root epoch %d missing", q.text, k))
				}
			} else {
				fail(fmt.Errorf("%s: root epoch went %d -> %d", q.text, last, a.s.RootEpoch))
			}
		}
		w.lastRoot[a.sub] = a.s.RootEpoch
		if !inWindow {
			continue
		}
		r.coverSum += float64(a.s.Contributors) / float64(w.members[a.sub])
		r.coverN++
		// A sample that says it missed members (a report arrived late) is
		// incomplete, not wrong: coverage carries it. One that claims all
		// its members, or more, must match the oracle.
		if a.s.Contributors < int64(w.members[a.sub]) {
			r.incomplete++
			continue
		}
		env := w.loadLog.envelopeAt(a.at, staleWindow, staleSlack)
		if _, err := w.tab.check(q, env, a.s.Result); err != nil {
			fail(err)
		}
	}
	w.arrivals = w.arrivals[:0]
	w.probes = w.probes[:0]
	w.loadLog.trim(w.blockTo - 2*staleWindow)
	return r
}

func (w *tcpStanding) stamp(env map[string]any) {
	env["port_base"], env["topology_hash"] = w.cl.portBase, w.cl.topoHash
	env["agents"], env["loop"] = w.n, "open, on the agents' epoch grid"
	env["subscriptions"] = len(w.queries) + len(w.chains)
	env["network"] = "host loopback (no link crossed)"
}

func (w *tcpStanding) traceStart(rec *recorder) {
	w.tt.start(rec, w.cl)
	for _, be := range w.be {
		be.rec.Store(rec)
	}
}

func (w *tcpStanding) traceMetrics(ops int, units float64) map[string]float64 {
	m := w.tt.metrics(w.cl, ops, units)
	st := w.svc[0].Stats()
	m["trace.share_ratio"] = float64(st.Attaches) / float64(st.Attaches+st.Installs)
	fan, n := w.tt.rec.total("service.fanout")
	if n > 0 {
		m["trace.fanout_us"] = fan * 1e6 / float64(n)
	}
	return m
}
