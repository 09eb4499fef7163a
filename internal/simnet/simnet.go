// Package simnet is a deterministic discrete-event network simulator.
//
// It provides virtual time, seeded randomness, pluggable latency models,
// message-level failure injection, and per-message accounting. All Moara
// node logic is event-driven against the Env interface, so the same code
// runs unchanged on simnet (for 16k-node experiments) and on the real
// TCP transport (for multi-process deployments).
//
// Events live on shards (see shard.go) that drain lookahead windows:
// one shard by default, Options.Shards of them in parallel. A fixed
// seed makes runs exactly reproducible, and the same at any shard or
// worker count.
//
// The event core is allocation-lean by design: message deliveries are
// encoded directly in pooled event records (no per-message closures),
// cancelled timers are removed from the heap immediately instead of
// tombstoning, and per-node accounting lives in dense index-addressed
// arrays rather than ID-keyed maps. At N=10k these paths run hundreds
// of millions of times per experiment.
package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"time"

	"github.com/moara/moara/internal/ids"
)

// Handler consumes messages delivered to a node.
type Handler interface {
	// Handle processes one message sent by the node with identifier
	// from. It runs on the simulator goroutine; implementations may
	// freely call Env methods but must not block.
	Handle(from ids.ID, m any)
}

// Env is the environment a node runs in: its identity, a message
// transport, timers, a clock, and a random source. internal/pastry and
// internal/core depend only on this interface.
type Env interface {
	// Self returns the node's identifier.
	Self() ids.ID
	// Send transmits m to the node with identifier to. Delivery is
	// asynchronous and may be lost if the destination is down. Send
	// takes over the aggregate-state holds m carries (see
	// aggregate.Recycle): the simulator hands them to the receiver, and
	// the TCP agent returns them after the write.
	Send(to ids.ID, m any)
	// After schedules fn to run once after d. The returned function
	// cancels the timer if it has not fired.
	After(d time.Duration, fn func()) (cancel func())
	// Now returns the current (virtual or wall-clock) time expressed
	// as an offset from the run's epoch.
	Now() time.Duration
	// Rand returns the node's random source: deterministic per node and
	// seed in the simulator, which builds it on the first call, so a
	// node that never draws holds none.
	Rand() *rand.Rand
}

// LatencyModel computes one-way message latencies. Models receive the
// current virtual time so they can express time-varying behavior
// (bursty straggler nodes, diurnal load).
type LatencyModel interface {
	// Latency returns the one-way delay for a message from -> to sent
	// at time now.
	Latency(from, to ids.ID, now time.Duration, rng *rand.Rand) time.Duration
	// MinLatency returns a lower bound on Latency for any (from, to,
	// now) triple. Sharded execution derives its lookahead window from
	// it.
	MinLatency() time.Duration
}

// Counter accumulates message statistics. Logical counts (Total,
// ByKind, ByNode, RecvByNode) see through wire coalescing: a Batch
// carrying k messages counts as k logical messages of their own kinds.
// Wire counts see the transmissions themselves: the same batch counts
// once, under the batch envelope's kind.
//
// Per-node counts are stored in dense arrays indexed by the network's
// node registration order; ByNode/RecvByNode materialize the ID-keyed
// view on demand (they are reporting APIs, not hot paths).
type Counter struct {
	// Total is the number of logical messages sent.
	Total int64
	// Wire is the number of transmissions (a coalesced batch counts
	// once). Without coalescing, Wire == Total.
	Wire int64

	// kinds is the per-kind ledger: a handful of distinct kind strings
	// exist, almost always compile-time constants, so a linear scan
	// with Go's pointer-fast string equality beats hashing the string
	// twice per message.
	kinds []kindCount

	// sent/recv count logical messages per node index; the owning
	// Network's idlist maps the indices back to identifiers.
	sent []int64
	recv []int64
	net  *Network
}

// kindCount is one message kind's logical and wire tallies.
type kindCount struct {
	kind          string
	logical, wire int64
}

func (n *Network) newCounter() *Counter {
	return &Counter{
		sent: make([]int64, len(n.envs)),
		recv: make([]int64, len(n.envs)),
		net:  n,
	}
}

func (c *Counter) cell(kind string) *kindCount {
	for i := range c.kinds {
		if c.kinds[i].kind == kind {
			return &c.kinds[i]
		}
	}
	c.kinds = append(c.kinds, kindCount{kind: kind})
	return &c.kinds[len(c.kinds)-1]
}

// ByKind materializes the kind -> logical message count view.
func (c *Counter) ByKind() map[string]int64 {
	out := make(map[string]int64, len(c.kinds))
	for i := range c.kinds {
		if c.kinds[i].logical != 0 {
			out[c.kinds[i].kind] = c.kinds[i].logical
		}
	}
	return out
}

// WireByKind materializes the kind -> transmission count view; batches
// appear under their envelope kind (e.g. "moara.batch").
func (c *Counter) WireByKind() map[string]int64 {
	out := make(map[string]int64, len(c.kinds))
	for i := range c.kinds {
		if c.kinds[i].wire != 0 {
			out[c.kinds[i].kind] = c.kinds[i].wire
		}
	}
	return out
}

// Logical returns one kind's logical message count.
func (c *Counter) Logical(kind string) int64 {
	for i := range c.kinds {
		if c.kinds[i].kind == kind {
			return c.kinds[i].logical
		}
	}
	return 0
}

// WireCount returns one kind's transmission count.
func (c *Counter) WireCount(kind string) int64 {
	for i := range c.kinds {
		if c.kinds[i].kind == kind {
			return c.kinds[i].wire
		}
	}
	return 0
}

// ByNode materializes the sender-ID view of the per-node logical send
// counts: one entry per node that sent at least one counted message.
func (c *Counter) ByNode() map[ids.ID]int64 {
	return c.materialize(c.sent)
}

// RecvByNode materializes the receiver-ID view of the per-node logical
// delivery counts.
func (c *Counter) RecvByNode() map[ids.ID]int64 {
	return c.materialize(c.recv)
}

func (c *Counter) materialize(cells []int64) map[ids.ID]int64 {
	out := make(map[ids.ID]int64, len(cells))
	for i, v := range cells {
		if v != 0 {
			out[c.net.idlist[i]] = v
		}
	}
	return out
}

// addSent/addRecv grow the dense arrays on demand: nodes may register
// after the counter was created (live joins under churn).
func (c *Counter) addSent(idx int, n int64) {
	if idx >= len(c.sent) {
		c.sent = append(c.sent, make([]int64, idx+1-len(c.sent))...)
	}
	c.sent[idx] += n
}

func (c *Counter) addRecv(idx int, n int64) {
	if idx >= len(c.recv) {
		c.recv = append(c.recv, make([]int64, idx+1-len(c.recv))...)
	}
	c.recv[idx] += n
}

// countSend books one transmission by the node at idx and returns the
// number of logical messages it carries.
func (c *Counter) countSend(idx int, m any) int64 {
	logical := int64(1)
	var items []any
	if b, ok := m.(Batch); ok {
		items = b.Unpack()
		logical = int64(len(items))
	}
	c.Wire++
	c.cell(KindOf(m)).wire++
	if items != nil {
		for _, it := range items {
			c.Total++
			c.cell(KindOf(it)).logical++
		}
	} else {
		c.Total++
		c.cell(KindOf(m)).logical++
	}
	c.addSent(idx, logical)
	return logical
}

// Batch marks a wire message that bundles several logical messages
// (see core.BatchMsg). The simulator counts the batch once at the wire
// level and each bundled item once at the logical level.
type Batch interface {
	Unpack() []any
}

// Kinder lets message types label themselves for accounting.
type Kinder interface {
	MsgKind() string
}

// kindCache memoizes the %T fallback of KindOf per concrete type, so a
// message type without MsgKind costs one fmt.Sprintf per type instead
// of one per message. sync.Map because tests run simulators in
// parallel processes sharing the package.
var kindCache sync.Map // reflect.Type -> string

// KindOf returns the accounting label for a message.
func KindOf(m any) string {
	if k, ok := m.(Kinder); ok {
		return k.MsgKind()
	}
	t := reflect.TypeOf(m)
	if s, ok := kindCache.Load(t); ok {
		return s.(string)
	}
	s := fmt.Sprintf("%T", m)
	kindCache.Store(t, s)
	return s
}

// Options configure a Network.
type Options struct {
	// Seed initializes the deterministic random source.
	Seed int64
	// Latency is the one-way latency model. Defaults to a 1ms fixed
	// delay when nil.
	Latency LatencyModel
	// ProcDelay is added at the receiver per WIRE message, modeling
	// per-transmission software cost (the paper's FreePastry/Java
	// stack: scheduling, framing, dispatch). A coalesced Batch
	// therefore pays it once however many logical messages it carries —
	// deliberately optimistic about batching: real batches amortize the
	// per-transmission overhead but still pay per-item decode/merge
	// cost, which this model prices at zero. Latency comparisons
	// between coalesced and uncoalesced runs are upper bounds on the
	// batching win; wire/logical message counts are unaffected by this
	// assumption.
	ProcDelay time.Duration
	// ProcJitter adds a uniform random extra processing delay in
	// [0, ProcJitter).
	ProcJitter time.Duration
	// Drop, when non-nil, is consulted per message; returning true
	// silently discards the message (partition/fault injection).
	Drop func(from, to ids.ID, m any) bool
	// Tap, when non-nil, observes every sent message along with its
	// sampled one-way wire latency (before processing delay). The
	// Fig. 16 bottleneck analysis uses it to reconstruct tree-edge
	// round-trip times.
	Tap func(from, to ids.ID, m any, wireLatency time.Duration)
	// SerializeProc, when true, models per-node CPU queueing: messages
	// to one node are processed one at a time, each occupying the node
	// for ProcDelay(+jitter). This reproduces the aggregation-root
	// serialization that dominates the paper's Emulab latencies.
	SerializeProc bool
	// CPUOf, when non-nil with SerializeProc, maps nodes to shared
	// CPUs: the paper's Emulab testbed ran 10 Moara instances per
	// physical machine, so co-located instances contend for one CPU.
	// It must be a pure function of the ID: a registered node's CPU is
	// evaluated once, at AddNode, which panics on a CPU number outside
	// [0, 1<<20).
	CPUOf func(id ids.ID) int
	// Shards is the number of event heaps (see shard.go); 0 means 1.
	// Nodes are partitioned round-robin across the heaps, which drain
	// lookahead windows of MinLatency() + ProcDelay in parallel; that
	// sum must be positive. Shards and ShardWorkers are speed settings
	// only: a run is the same for a given seed whatever they are.
	// SerializeProc, CPUOf and Tap require one heap.
	Shards int
	// ShardWorkers caps how many OS threads execute a window in
	// parallel: 0 means GOMAXPROCS, 1 forces inline (serial)
	// execution. Results are identical either way; only wall-clock
	// differs.
	ShardWorkers int
}

// Network is a simulated network of nodes sharing one virtual clock.
type Network struct {
	opts Options
	rng  *rand.Rand
	// now is the coordinator's clock. It moves at window edges; the
	// shard clocks run ahead of it inside a window.
	now   time.Duration
	nodes map[ids.ID]*nodeEnv
	// envs/idlist are the dense registration-order views backing the
	// index-addressed hot paths (counters, CPU busy state).
	envs   []*nodeEnv
	idlist []ids.ID
	// busyCPU is the per-CPU busy horizon for SerializeProc, indexed by
	// CPU number (node index when CPUOf is nil).
	busyCPU []time.Duration

	shards []*shard
	// The window coordinator: the window size, the worker cap (1
	// executes windows inline on the coordinator goroutine), and the
	// queue of Schedule events, which run on the coordinator at window
	// edges in creation order.
	horizon time.Duration
	workers int
	drv     eventQueue
	dseq    int64
	wg      sync.WaitGroup
}

// New creates an empty simulated network.
func New(opts Options) *Network {
	if opts.Latency == nil {
		opts.Latency = Fixed(time.Millisecond)
	}
	k := max(opts.Shards, 1)
	if k > 1 {
		switch {
		case opts.SerializeProc:
			panic("simnet: SerializeProc is not supported with Shards >= 2 (its CPU-queue accounting is global-send-order semantics; use one heap)")
		case opts.CPUOf != nil:
			panic("simnet: CPUOf is not supported with Shards >= 2")
		case opts.Tap != nil:
			panic("simnet: Tap is not supported with Shards >= 2 (sends have no global observation order across parallel windows)")
		}
	}
	n := &Network{
		opts:    opts,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		nodes:   make(map[ids.ID]*nodeEnv),
		shards:  make([]*shard, k),
		horizon: opts.Latency.MinLatency() + opts.ProcDelay,
		workers: opts.ShardWorkers,
	}
	if n.horizon <= 0 {
		panic("simnet: the lookahead window MinLatency() + ProcDelay must be positive")
	}
	if n.workers == 0 {
		n.workers = runtime.GOMAXPROCS(0)
	}
	n.workers = max(min(n.workers, k), 1)
	for i := range n.shards {
		n.shards[i] = &shard{
			net:      n,
			idx:      i,
			counter:  n.newCounter(),
			stageOut: make([][]stagedMsg, k),
		}
	}
	return n
}

// AddNode registers a node and returns its environment. The handler may
// be bound later via BindHandler to break construction cycles.
func (n *Network) AddNode(id ids.ID) *nodeEnv {
	if _, ok := n.nodes[id]; ok {
		panic(fmt.Sprintf("simnet: duplicate node %s", id.Short()))
	}
	env := &nodeEnv{
		net: n,
		id:  id,
		idx: len(n.envs),
		cpu: len(n.envs),
	}
	if n.opts.CPUOf != nil {
		env.cpu = n.opts.CPUOf(id)
		if env.cpu < 0 || env.cpu >= 1<<20 { // busyCPU is indexed by it
			panic(fmt.Sprintf("simnet: CPUOf(%s) = %d, outside [0, 1<<20)", id.Short(), env.cpu))
		}
	}
	env.shard = n.shards[env.idx%len(n.shards)]
	// The per-sender latency/jitter stream: a distinct salt keeps it
	// independent of the node-logic stream Rand builds.
	env.latSrc = splitmix{key: uint64(n.opts.Seed) ^ idSeed(id) ^ latStreamSalt}
	env.latRng = rand.New(&env.latSrc)
	n.nodes[id] = env
	n.envs = append(n.envs, env)
	n.idlist = append(n.idlist, id)
	return env
}

// RemoveNode permanently deletes a node; queued deliveries to it are
// dropped on arrival. Its dense index stays allocated (indices are
// append-only), so accounting for its past traffic survives.
func (n *Network) RemoveNode(id ids.ID) {
	if env, ok := n.nodes[id]; ok {
		env.removed = true
		delete(n.nodes, id)
	}
}

// SetDown marks a node crashed (true) or recovered (false). Messages to
// a down node are counted as sent but never delivered.
func (n *Network) SetDown(id ids.ID, down bool) {
	if env, ok := n.nodes[id]; ok {
		env.down = down
	}
}

// Counter returns a snapshot of the message accounting, merged from the
// per-shard ledgers: a reporting-path cost — don't call it per event.
// Later traffic does not show in a snapshot already taken.
func (n *Network) Counter() *Counter {
	out := n.newCounter()
	for _, sh := range n.shards {
		c := sh.counter
		out.Total += c.Total
		out.Wire += c.Wire
		for i := range c.kinds {
			cell := out.cell(c.kinds[i].kind)
			cell.logical += c.kinds[i].logical
			cell.wire += c.kinds[i].wire
		}
		for i, v := range c.sent {
			if v != 0 {
				out.addSent(i, v)
			}
		}
		for i, v := range c.recv {
			if v != 0 {
				out.addRecv(i, v)
			}
		}
	}
	return out
}

// ResetCounter zeroes accounting, typically after cluster warm-up.
func (n *Network) ResetCounter() {
	for _, sh := range n.shards {
		sh.counter = n.newCounter()
	}
}

// Now returns the coordinator's virtual time: the clock a run ended on
// between runs, the instant of a Schedule callback inside one, and the
// start of the current window inside a handler (node code reads its
// own Env.Now).
func (n *Network) Now() time.Duration { return n.now }

// Rand returns the network-level random source (for workload drivers).
func (n *Network) Rand() *rand.Rand { return n.rng }

// PendingEvents reports the scheduled-event backlog (deliveries plus
// armed timers). Harnesses use it to watch for runaway amplification —
// a protocol bug that doubles messages per hop shows up here long
// before it exhausts memory. It sums the shard heaps, the staged
// cross-shard inboxes, and the coordinator's Schedule queue.
func (n *Network) PendingEvents() int {
	total := n.drv.Len()
	for _, sh := range n.shards {
		total += sh.events.Len()
		for _, buf := range sh.stageOut {
			total += len(buf)
		}
	}
	return total
}

// Schedule runs fn at now+d as a coordinator event: it runs on the
// coordinator at a window edge, with every shard parked, before any
// node event at the same instant — so it may safely touch any node.
func (n *Network) Schedule(d time.Duration, fn func()) (cancel func()) {
	ev := &event{home: -1, at: n.now + max(d, 0), seq: n.dseq, fn: fn}
	n.dseq++
	n.drv.push(ev)
	gen := ev.gen
	return func() { n.cancelEvent(ev, gen) }
}

// cancelEvent removes a still-pending event from its heap. A cancel
// arriving after the event fired (or was recycled) is a no-op. It runs
// either on the owning shard's worker (a node cancelling its own timer)
// or on the coordinator with every shard parked.
func (n *Network) cancelEvent(ev *event, gen uint64) {
	if ev.gen != gen || ev.idx < 0 {
		return
	}
	if ev.home < 0 {
		n.drv.remove(ev.idx)
		ev.gen++
		return
	}
	sh := n.shards[ev.home]
	sh.events.remove(ev.idx)
	sh.freeEvent(ev)
}

// Run processes events until the queue is empty or maxEvents events have
// run (0 means unlimited). It returns the number of events processed.
// The budget is checked at window barriers and windows are atomic, so
// the count may overshoot maxEvents within the final window.
func (n *Network) Run(maxEvents int) int { return n.run(0, false, nil, maxEvents) }

// RunWhile processes events until cond returns false or the queue
// drains. It returns the number of events processed. cond is checked at
// window barriers, so a window that straddles the condition flip
// completes before the run stops.
func (n *Network) RunWhile(cond func() bool) int { return n.run(0, false, cond, 0) }

// RunFor advances virtual time by d, processing all events scheduled in
// the window, and leaves now at the window's end.
func (n *Network) RunFor(d time.Duration) {
	n.RunUntil(n.now + d)
}

// RunUntil processes all events scheduled at or before t and sets the
// clock to t. A t in the past is read as Now(): the clock never moves
// backwards.
func (n *Network) RunUntil(t time.Duration) { n.run(t, true, nil, 0) }

// serializeOn queues one processing occupancy on a CPU and returns the
// completion time. The CPU is the destination's own dense index by
// default, or its configured CPU number under co-location.
func (n *Network) serializeOn(cpu int, arrival, proc time.Duration) time.Duration {
	if cpu >= len(n.busyCPU) {
		n.busyCPU = append(n.busyCPU, make([]time.Duration, cpu+1-len(n.busyCPU))...)
	}
	start := arrival
	if b := n.busyCPU[cpu]; b > start {
		start = b
	}
	end := start + proc
	n.busyCPU[cpu] = end
	return end
}

// nodeEnv implements Env for one simulated node.
type nodeEnv struct {
	net *Network
	id  ids.ID
	idx int
	// cpu is the SerializeProc CPU the node runs on: CPUOf(id), or idx
	// without co-location.
	cpu     int
	down    bool
	removed bool
	rng     *rand.Rand // built by Rand on first call
	handler Handler

	// shard owns the node's events. oseq is the node's private
	// event-creation counter, the birth-sequence half of the ordering
	// key. latRng is the stream its sends draw latency and jitter from,
	// over the 16-byte latSrc.
	shard  *shard
	oseq   int64
	latSrc splitmix
	latRng *rand.Rand
}

var _ Env = (*nodeEnv)(nil)

// BindHandler attaches the node's message handler.
func (e *nodeEnv) BindHandler(h Handler) { e.handler = h }

// Self returns the node's identifier.
func (e *nodeEnv) Self() ids.ID { return e.id }

// Send transmits m to another node.
func (e *nodeEnv) Send(to ids.ID, m any) {
	if e.down {
		return // a crashed node cannot send
	}
	e.shard.send(e, to, m)
}

// After schedules fn on the virtual clock. The crashed-node guard
// rides in the event record itself rather than a per-timer wrapper
// closure.
func (e *nodeEnv) After(d time.Duration, fn func()) (cancel func()) {
	ev := e.shard.defer_(e, d, fn)
	n := e.net
	gen := ev.gen
	return func() { n.cancelEvent(ev, gen) }
}

// Defer is After without the cancellation handle: fire-and-forget
// timers (the per-burst outbox flush) skip the cancel-closure
// allocation entirely.
func (e *nodeEnv) Defer(d time.Duration, fn func()) {
	e.shard.defer_(e, d, fn)
}

// Timer is a reusable cancellation slot for periodic re-armed timers
// (epoch ticks, per-query child timeouts): re-arming writes the same
// three words instead of allocating a fresh cancel closure per cycle.
// The zero Timer is inert; Stop after the timer fired is a no-op.
type Timer struct {
	// stop is the fallback for environments without the Arm fast path.
	stop func()
	net  *Network
	ev   *event
	gen  uint64
}

// Stop cancels the timer if it has not fired.
func (t *Timer) Stop() {
	if t.net != nil {
		t.net.cancelEvent(t.ev, t.gen)
		t.net = nil
		return
	}
	if t.stop != nil {
		t.stop()
		t.stop = nil
	}
}

// SetFallback arms the slot with a plain cancel function (used by
// environments that only implement After).
func (t *Timer) SetFallback(cancel func()) {
	t.net = nil
	t.stop = cancel
}

// Arm schedules fn like After but records the cancellation in t,
// allocation-free.
func (e *nodeEnv) Arm(d time.Duration, fn func(), t *Timer) {
	ev := e.shard.defer_(e, d, fn)
	t.net = e.net
	t.ev = ev
	t.gen = ev.gen
	t.stop = nil
}

// Now returns the owning shard's clock: the instant of the event being
// run. Shard clocks diverge within a lookahead window.
func (e *nodeEnv) Now() time.Duration { return e.shard.now }

// Rand returns the node's deterministic random source, seeded with
// Seed ^ idSeed(id). It is built on the first call: a math/rand source
// is ~4.9 KB and only overlay gossip draws from it, so nodes that never
// draw never hold one.
func (e *nodeEnv) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.net.opts.Seed ^ int64(idSeed(e.id))))
	}
	return e.rng
}

// idSeed derives a well-mixed 64-bit seed from all 16 identifier
// bytes (FNV-1a).
func idSeed(id ids.ID) uint64 {
	s := uint64(14695981039346656037)
	for _, b := range id {
		s ^= uint64(b)
		s *= 1099511628211
	}
	return s
}

// event is one scheduled callback or message delivery. Records are
// pooled; gen guards recycled records against stale cancels.
type event struct {
	at  time.Duration
	seq int64
	idx int
	gen uint64
	// home routes cancels to the owning heap: the shard index for
	// shard-pool records, -1 for coordinator (Schedule) events.
	home int32

	// Timer events carry fn (plus the owning env for the crashed-node
	// check, avoiding a wrapper closure per timer); delivery events
	// carry the message fields directly, avoiding a closure allocation
	// per message.
	fn  func()
	env *nodeEnv
	msg delivery
}

// delivery is a message in flight. dst is the destination environment
// resolved at send time, and is nil only on timer events.
type delivery struct {
	from    ids.ID
	dst     *nodeEnv
	m       any
	logical int64
}

// eventQueue is a 4-ary min-heap on (at, seq), implemented concretely:
// no container/heap interface dispatch on the comparison fast path, a
// wider node fans the tree out to half the depth of a binary heap, and
// the sort keys live inline in the heap slice so sift comparisons
// never dereference event records — the event queue is the single
// busiest data structure of a large simulation. (at, seq) pairs are
// unique, so pop order is a strict total order — identical to any
// other correct heap's.
type eventQueue struct {
	q []heapEntry
}

// heapEntry carries the ordering key beside the record pointer.
type heapEntry struct {
	at  time.Duration
	seq int64
	ev  *event
}

const heapArity = 4

func (h *eventQueue) Len() int { return len(h.q) }

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventQueue) push(ev *event) {
	h.q = append(h.q, heapEntry{at: ev.at, seq: ev.seq, ev: ev})
	h.up(len(h.q) - 1)
}

func (h *eventQueue) pop() *event {
	q := h.q
	ev := q[0].ev
	last := len(q) - 1
	q[0] = q[last]
	q[0].ev.idx = 0
	q[last] = heapEntry{}
	h.q = q[:last]
	if last > 0 {
		h.down(0)
	}
	ev.idx = -1
	return ev
}

// remove deletes the element at position i (timer cancellation).
func (h *eventQueue) remove(i int) {
	q := h.q
	last := len(q) - 1
	ev := q[i].ev
	if i != last {
		q[i] = q[last]
		q[i].ev.idx = i
	}
	q[last] = heapEntry{}
	h.q = q[:last]
	if i != last {
		if !h.downFrom(i) {
			h.up(i)
		}
	}
	ev.idx = -1
}

func (h *eventQueue) up(i int) {
	q := h.q
	e := q[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !entryLess(e, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.idx = i
		i = p
	}
	q[i] = e
	e.ev.idx = i
}

func (h *eventQueue) down(i int) { h.downFrom(i) }

// downFrom sifts i toward the leaves; it reports whether the element
// moved (the remove path falls back to sifting up when it did not).
func (h *eventQueue) downFrom(i int) bool {
	q := h.q
	n := len(q)
	e := q[i]
	start := i
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		best := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if entryLess(q[c], q[best]) {
				best = c
			}
		}
		if !entryLess(q[best], e) {
			break
		}
		q[i] = q[best]
		q[i].ev.idx = i
		i = best
	}
	q[i] = e
	e.ev.idx = i
	return i > start
}
