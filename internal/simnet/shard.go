package simnet

// Sharded execution: the conservative-lookahead parallel scheduler.
//
// With Options.Shards >= 2 the network partitions its nodes across K
// shards (round-robin by registration index), each with its own event
// heap, event-record pool, and message counter. Shards advance in
// lookahead windows: if H is a lower bound on the delivery delay of any
// cross-shard message (minimum one-way latency plus the fixed
// processing delay), then every event in [t, t+H) is causally
// independent of concurrently executing events on other shards, so the
// shards may drain their heaps through the window in parallel.
// Cross-shard deliveries are staged in per-(source, destination) inbox
// buffers and folded into the destination heaps at the window barrier —
// by construction they always land at or beyond the window end.
//
// Determinism is the contract that makes the parallelism usable: a
// sharded run's observable behavior (results, samples, virtual-time
// latencies, message accounting) is a function of the seed alone — the
// shard count, the worker count, and the OS scheduler never change it.
// Three disciplines deliver that:
//
//  1. Event keys. Every event is ordered by (time, origin, birth
//     sequence), where origin is the creating node's registration index
//     and the birth sequence is that node's private creation counter.
//     Both are defined by the node's own deterministic execution
//     history, not by global interleaving, so ties at equal virtual
//     times break identically however the windows were executed. (The
//     classic engine orders by global creation sequence instead — a
//     different, equally valid tie-break; see the equivalence tests for
//     when the two coincide byte-for-byte.)
//  2. Latency draws. Message latencies and processing jitter are drawn
//     from a per-sender stream seeded by (network seed, sender id), so
//     the draw sequence is the sender's own send sequence regardless of
//     how sends from different shards interleave in wall-clock time.
//  3. Window placement. Windows start at the globally earliest pending
//     event — a function of the event population only, not of the
//     shard count — and driver-level Schedule callbacks run on the
//     coordinator at window edges, before any node event at the same
//     instant.
//
// Features whose classic semantics are inherently global-send-order are
// rejected at construction in sharded mode: SerializeProc's CPU-queue
// accounting advances a per-CPU busy horizon in global send order, CPUOf
// may co-locate nodes from different shards on one CPU, and Tap observes
// sends in a global order that parallel windows do not have. Drop stays
// available, but the callback runs concurrently from shard workers: it
// must be thread-safe and must decide from its arguments alone (not
// shared mutable state or call order) to stay shard-count independent.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/moara/moara/internal/ids"
)

// maxOseq bounds a single origin's event-creation counter so the
// (origin, oseq) pair packs into the event's int64 ordering key.
const maxOseq = 1 << 40

// latStreamSalt separates a node's latency-draw stream from its
// node-logic stream (both derive from the network seed and the id).
const latStreamSalt = 0x5eed1a7e5a17ed

// maxShardOrigin bounds the dense node index so (origin+1)<<40 cannot
// overflow the int64 key: 2^22 origins leaves the sign bit clear.
const maxShardOrigin = 1 << 22

// packKey builds the int64 tie-break key from an origin index and its
// birth sequence. Driver events (origin -1) sort before any node event
// at the same instant.
func packKey(origin int32, oseq int64) int64 {
	if oseq >= maxOseq {
		panic("simnet: per-origin event sequence overflow")
	}
	if origin >= maxShardOrigin {
		panic("simnet: node index exceeds the sharded engine's origin-key capacity")
	}
	return (int64(origin)+1)<<40 | oseq
}

// MinLatencyModel is implemented by latency models that can state a
// positive lower bound on any one-way delay they will ever return.
// Sharded execution derives its lookahead horizon from it; models
// without the bound require an explicit Options.Lookahead.
type MinLatencyModel interface {
	// MinLatency returns a lower bound on Latency for any
	// (from, to, now) triple.
	MinLatency() time.Duration
}

// stagedMsg is a cross-shard delivery parked in an inbox buffer until
// the window barrier.
type stagedMsg struct {
	at      time.Duration
	key     int64
	from    ids.ID
	to      ids.ID
	envTo   *nodeEnv
	m       any
	logical int64
}

// shard is one partition of the network: a private heap, pool, and
// counter, plus staging buffers for messages addressed to other shards.
type shard struct {
	net *Network
	idx int

	events eventQueue
	free   []*event
	// counter accumulates this shard's accounting: sends by its own
	// nodes, deliveries to its own nodes. Network.Counter() merges the
	// per-shard ledgers into one reporting view.
	counter *Counter
	// now is the shard's local clock: the time of the last event it
	// processed. Between barriers all shard clocks are re-aligned to
	// the coordinator's.
	now time.Duration
	// winEnd is the (exclusive) end of the window being executed; the
	// cross-shard horizon guard asserts against it.
	winEnd time.Duration
	// stageOut[d] buffers messages this shard's nodes sent to shard d
	// during the current window. Only this shard appends; the
	// coordinator drains it at the barrier.
	stageOut [][]stagedMsg

	processed int
}

// shardedNet is the coordinator state for sharded execution.
type shardedNet struct {
	net     *Network
	shards  []*shard
	horizon time.Duration
	// workers caps window parallelism: 1 executes windows inline on
	// the coordinator goroutine (identical results, no handoff).
	workers int

	// drv holds driver-level Schedule events; they run on the
	// coordinator at window edges in creation order.
	drv  eventQueue
	dseq int64

	wg sync.WaitGroup
}

// parallelThreshold is the pending-event count below which a window
// executes inline even when workers are enabled: a handful of events is
// cheaper to run than to hand off to goroutines.
const parallelThreshold = 64

// newShardedNet wires the sharded runtime onto a freshly constructed
// Network and validates the option surface.
func newShardedNet(n *Network) *shardedNet {
	o := &n.opts
	if o.SerializeProc {
		panic("simnet: SerializeProc is not supported with Shards >= 2 (its CPU-queue accounting is global-send-order semantics; use the classic scheduler)")
	}
	if o.CPUOf != nil {
		panic("simnet: CPUOf is not supported with Shards >= 2")
	}
	if o.Tap != nil {
		panic("simnet: Tap is not supported with Shards >= 2 (sends have no global observation order across parallel windows)")
	}
	horizon := o.Lookahead
	if horizon <= 0 {
		if m, ok := o.Latency.(MinLatencyModel); ok {
			horizon = m.MinLatency() + o.ProcDelay
		}
	}
	if horizon <= 0 {
		panic("simnet: Shards >= 2 requires a latency model with a positive MinLatency() or an explicit positive Options.Lookahead")
	}
	workers := o.ShardWorkers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > o.Shards {
		workers = o.Shards
	}
	if workers < 1 {
		workers = 1
	}
	s := &shardedNet{
		net:     n,
		shards:  make([]*shard, o.Shards),
		horizon: horizon,
		workers: workers,
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			net:      n,
			idx:      i,
			counter:  n.newCounter(),
			stageOut: make([][]stagedMsg, o.Shards),
		}
	}
	return s
}

// newEvent / freeEvent are the per-shard counterparts of the Network
// pool methods. Records never migrate between pools: a staged
// cross-shard message travels as a value struct and is materialized
// from the receiving shard's pool at the barrier.
func (sh *shard) newEvent() *event {
	if k := len(sh.free); k > 0 {
		ev := sh.free[k-1]
		sh.free = sh.free[:k-1]
		return ev
	}
	return &event{home: int32(sh.idx)}
}

func (sh *shard) freeEvent(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.env = nil
	ev.envTo = nil
	ev.m = nil
	ev.delivery = false
	ev.logical = 0
	ev.idx = -1
	sh.free = append(sh.free, ev)
}

// defer_ schedules a node-local timer on the node's own shard. It runs
// either on the shard's worker (node logic inside a window) or on the
// coordinator with all shards parked (driver callbacks, harness code
// between runs) — never concurrently with itself.
func (sh *shard) defer_(e *nodeEnv, d time.Duration, fn func()) *event {
	if d < 0 {
		d = 0
	}
	ev := sh.newEvent()
	ev.at = sh.now + d
	ev.seq = packKey(int32(e.idx), e.oseq)
	e.oseq++
	ev.fn = fn
	ev.env = e
	sh.events.push(ev)
	return ev
}

// send transmits a message in sharded mode. The latency (and jitter)
// draw comes from the sender's private stream; same-shard deliveries go
// straight onto the local heap, cross-shard deliveries are staged for
// the barrier fold.
func (sh *shard) send(e *nodeEnv, to ids.ID, m any) {
	n := sh.net
	logical := int64(1)
	var items []any
	if b, ok := m.(Batch); ok {
		items = b.Unpack()
		logical = int64(len(items))
	}
	sh.counter.Wire++
	sh.counter.cell(KindOf(m)).wire++
	if items != nil {
		for _, it := range items {
			sh.counter.Total++
			sh.counter.cell(KindOf(it)).logical++
		}
	} else {
		sh.counter.Total++
		sh.counter.cell(KindOf(m)).logical++
	}
	sh.counter.addSent(e.idx, logical)
	if n.opts.Drop != nil && n.opts.Drop(e.id, to, m) {
		return
	}
	lat := n.opts.Latency.Latency(e.id, to, sh.now, e.latRng)
	proc := n.opts.ProcDelay
	if n.opts.ProcJitter > 0 {
		proc += time.Duration(e.latRng.Int63n(int64(n.opts.ProcJitter)))
	}
	dst := n.nodes[to]
	if dst == nil {
		// Unregistered destination: counted as sent, never delivered —
		// the classic engine's outcome whenever the node stays
		// unregistered. (The classic engine would additionally deliver
		// if the destination registered while the message was in
		// flight; the sharded engine drops at send so a message can
		// never target a shard assignment made after the fact.)
		return
	}
	at := sh.now + lat + proc
	key := packKey(int32(e.idx), e.oseq)
	e.oseq++
	if dst.shard == sh {
		ev := sh.newEvent()
		ev.at = at
		ev.seq = key
		ev.delivery = true
		ev.from = e.id
		ev.to = to
		ev.envTo = dst
		ev.m = m
		ev.logical = logical
		sh.events.push(ev)
		return
	}
	if at < sh.winEnd {
		panic(fmt.Sprintf("simnet: cross-shard delivery at %v lands inside the lookahead window ending %v — the latency model violated its MinLatency bound", at, sh.winEnd))
	}
	sh.stageOut[dst.shard.idx] = append(sh.stageOut[dst.shard.idx], stagedMsg{
		at: at, key: key, from: e.id, to: to, envTo: dst, m: m, logical: logical,
	})
}

// runWindow drains this shard's heap through [*, end), leaving events
// at or beyond end for later windows.
func (sh *shard) runWindow(end time.Duration) {
	sh.winEnd = end
	n := sh.net
	for sh.events.Len() > 0 {
		if sh.events.q[0].at >= end {
			break
		}
		ev := sh.events.pop()
		sh.now = ev.at
		sh.processed++
		if ev.delivery {
			from, to, m, logical, envTo := ev.from, ev.to, ev.m, ev.logical, ev.envTo
			sh.freeEvent(ev)
			if envTo == nil || envTo.removed {
				envTo = n.nodes[to]
			}
			if envTo == nil || envTo.removed || envTo.down || envTo.handler == nil {
				continue
			}
			if envTo.shard != sh {
				// The destination was removed and its identifier
				// re-registered onto a different shard while the
				// message was in flight; delivering here would run
				// foreign-shard state on this worker. Drop it.
				continue
			}
			sh.counter.addRecv(envTo.idx, logical)
			envTo.handler.Handle(from, m)
			continue
		}
		fn, env := ev.fn, ev.env
		sh.freeEvent(ev)
		if env != nil && env.down {
			continue
		}
		fn()
	}
}

// foldStaged moves every staged cross-shard message onto its
// destination heap. Coordinator context only: all shard workers are
// parked, so the buffers are stable.
func (s *shardedNet) foldStaged() {
	for _, src := range s.shards {
		for d, buf := range src.stageOut {
			if len(buf) == 0 {
				continue
			}
			dst := s.shards[d]
			for i := range buf {
				st := &buf[i]
				ev := dst.newEvent()
				ev.at = st.at
				ev.seq = st.key
				ev.delivery = true
				ev.from = st.from
				ev.to = st.to
				ev.envTo = st.envTo
				ev.m = st.m
				ev.logical = st.logical
				dst.events.push(ev)
				*st = stagedMsg{}
			}
			src.stageOut[d] = buf[:0]
		}
	}
}

// nextEventAt returns the earliest pending shard-event time, or
// ok=false when all heaps are empty. (Staged buffers are always empty
// when this runs: the coordinator folds them first.)
func (s *shardedNet) nextEventAt() (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, sh := range s.shards {
		if sh.events.Len() == 0 {
			continue
		}
		if at := sh.events.q[0].at; !found || at < best {
			best, found = at, true
		}
	}
	return best, found
}

// pending counts queued events across shard heaps, staged inboxes, and
// the driver queue.
func (s *shardedNet) pending() int {
	total := s.drv.Len()
	for _, sh := range s.shards {
		total += sh.events.Len()
		for _, buf := range sh.stageOut {
			total += len(buf)
		}
	}
	return total
}

// schedule registers a driver-level callback (Network.Schedule).
// Driver events live on the coordinator's own queue, keyed by creation
// order, and run with every shard parked — they may touch any node.
func (s *shardedNet) schedule(d time.Duration, fn func()) (cancel func()) {
	if d < 0 {
		d = 0
	}
	ev := &event{home: -1}
	ev.at = s.net.now + d
	ev.seq = s.dseq
	s.dseq++
	ev.fn = fn
	s.drv.push(ev)
	gen := ev.gen
	return func() {
		if ev.gen != gen || ev.idx < 0 {
			return
		}
		s.drv.remove(ev.idx)
		ev.gen++
	}
}

// runDriverAt executes every driver event scheduled at exactly t, in
// creation order, advancing all clocks to t first.
func (s *shardedNet) runDriverAt(t time.Duration) int {
	processed := 0
	s.net.now = t
	for _, sh := range s.shards {
		sh.now = t
	}
	for s.drv.Len() > 0 && s.drv.q[0].at == t {
		ev := s.drv.pop()
		fn := ev.fn
		ev.gen++
		ev.fn = nil
		fn()
		processed++
	}
	return processed
}

// runWindows is the coordinator loop behind the sharded Run variants.
// It advances through lookahead windows until the queues drain, the
// virtual clock would pass target (when bounded), cond turns false, or
// maxEvents is reached, and returns the number of events processed.
//
//   - bounded: stop (and set the clock) at target, like RunUntil.
//   - cond: checked at window barriers — not per event like the classic
//     RunWhile; a window that straddles the condition flip completes.
//   - maxEvents: 0 means unlimited; windows are atomic, so the count
//     may overshoot within the final window.
func (s *shardedNet) runWindows(target time.Duration, bounded bool, cond func() bool, maxEvents int) int {
	n := s.net
	processed := 0
	finish := func() int {
		if bounded {
			n.now = target
		} else {
			for _, sh := range s.shards {
				if sh.now > n.now {
					n.now = sh.now
				}
			}
		}
		for _, sh := range s.shards {
			if sh.now < n.now {
				sh.now = n.now
			}
		}
		return processed
	}
	for {
		// Fold any staged cross-shard traffic (from the previous
		// window, a driver callback, or harness sends between runs)
		// before looking at the heaps.
		s.foldStaged()
		if cond != nil && !cond() {
			return finish()
		}
		if maxEvents > 0 && processed >= maxEvents {
			return finish()
		}
		next, ok := s.nextEventAt()
		if s.drv.Len() > 0 {
			if dt := s.drv.q[0].at; !ok || dt <= next {
				// Driver events run first at their instant, before any
				// node event at the same time.
				if bounded && dt > target {
					return finish()
				}
				processed += s.runDriverAt(dt)
				continue
			}
		}
		if !ok {
			return finish()
		}
		if bounded && next > target {
			return finish()
		}
		end := next + s.horizon
		if s.drv.Len() > 0 && s.drv.q[0].at < end {
			// Clip at the next driver event so it observes (and can
			// mutate) a fully settled state at its instant.
			end = s.drv.q[0].at
		}
		if bounded && end > target+1 {
			// Include events at exactly target, then stop.
			end = target + 1
		}
		s.runOneWindow(end)
		for _, sh := range s.shards {
			processed += sh.processed
			sh.processed = 0
		}
	}
}

// runOneWindow executes one window across all shards — inline when the
// backlog is small or parallelism is off, on worker goroutines
// otherwise. Both paths compute identical results; only wall-clock
// differs.
func (s *shardedNet) runOneWindow(end time.Duration) {
	if s.workers > 1 && s.pending() >= parallelThreshold {
		for _, sh := range s.shards {
			if sh.events.Len() == 0 {
				continue
			}
			s.wg.Add(1)
			go func(sh *shard) {
				defer s.wg.Done()
				sh.runWindow(end)
			}(sh)
		}
		s.wg.Wait()
		return
	}
	for _, sh := range s.shards {
		sh.runWindow(end)
	}
}

// mergedCounter materializes one Counter summing the per-shard ledgers.
// It is a snapshot: reporting-path cost, not hot-path cost.
func (s *shardedNet) mergedCounter() *Counter {
	out := s.net.newCounter()
	for _, sh := range s.shards {
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

// resetCounters zeroes every shard ledger.
func (s *shardedNet) resetCounters() {
	for _, sh := range s.shards {
		sh.counter = s.net.newCounter()
	}
}

// cancelEvent removes a pending sharded event. It runs either on the
// owning shard's worker (a node cancelling its own timer: the event
// lives on that same shard's heap) or on the coordinator with shards
// parked.
func (s *shardedNet) cancelEvent(ev *event, gen uint64) {
	if ev.gen != gen || ev.idx < 0 {
		return
	}
	if ev.home < 0 {
		s.drv.remove(ev.idx)
		ev.gen++
		return
	}
	sh := s.shards[ev.home]
	sh.events.remove(ev.idx)
	sh.freeEvent(ev)
}

// Shards reports the shard count (1 when the classic scheduler runs).
func (n *Network) Shards() int {
	if n.sharded == nil {
		return 1
	}
	return len(n.sharded.shards)
}

// Lookahead reports the conservative window size (0 on the classic
// scheduler).
func (n *Network) Lookahead() time.Duration {
	if n.sharded == nil {
		return 0
	}
	return n.sharded.horizon
}
