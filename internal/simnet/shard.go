package simnet

// Execution: every Network runs on shards.
//
// A shard owns an event heap, an event-record pool, a message counter
// and the nodes assigned to it. Options.Shards = K partitions the nodes
// across max(K, 1) shards (round-robin by registration index) that
// advance in lookahead windows: if H is a lower bound on the delivery
// delay of any message (MinLatency() plus the fixed processing delay),
// then every event in [t, t+H) is causally independent of concurrently
// executing events on other shards, so the shards may drain their heaps
// through the window in parallel. Cross-shard deliveries are staged in
// the sending shard's log and pushed onto the destination heaps at the
// window barrier — by construction they always land at or beyond the
// window end.
//
// One shard follows the same rules as K. A run's observable behavior
// (results, samples, virtual-time latencies, message accounting, where
// RunWhile stops, what Now reads, what Tap sees) is a function of the
// seed alone — the shard count, the worker count, and the OS scheduler
// never change it. Four disciplines deliver that:
//
//  1. Event keys. Every event is ordered by (time, origin, birth
//     sequence), where origin is the creating node's registration index
//     and the birth sequence is that node's private creation counter.
//     Both are defined by the node's own deterministic execution
//     history, not by global interleaving, so ties at equal virtual
//     times break identically however the windows were executed.
//  2. Latency draws. Message latencies and processing jitter are drawn
//     from a per-sender stream seeded by (network seed, sender id), so
//     the draw sequence is the sender's own send sequence regardless of
//     how sends from different shards interleave in wall-clock time.
//  3. Window placement. Windows are H wide and start at the globally
//     earliest pending event — a function of the event population only,
//     not of the shard count. RunWhile's condition and Run's event
//     budget are checked at window barriers. Schedule callbacks run on
//     the coordinator at window edges, before any node event at the same
//     instant, and Network.Now is the coordinator's clock, which moves
//     at window edges.
//  4. Send order. SerializeProc's CPU queues (shared across shards
//     under CPUOf) and Tap see sends in the order one heap runs them.
//     With either option every send goes on the log, stamped with its
//     instant and the largest event key its shard has run at that
//     instant — not the sending event's own key, because a heap runs a
//     zero-delay timer right after the event that armed it, whatever
//     the timer's key. Outside a window (Schedule callbacks, harness
//     code) the stamp is the coordinator's call counter instead. The
//     coordinator merges the logs by stamp at the barrier, then calls
//     Tap and reserves the CPU for each send in that order.
//
// A message to a node that is not registered when it is sent is dropped
// at send, and one to a node removed while it is in flight is dropped
// on arrival, so a message never targets a shard assignment made after
// the fact. Both count as sent. Drop runs at send, concurrently from
// shard workers: it must be thread-safe and must decide from its
// arguments alone (not shared mutable state or call order) to stay
// shard-count independent.

import (
	"fmt"
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
		panic("simnet: node index exceeds the origin-key capacity")
	}
	return (int64(origin)+1)<<40 | oseq
}

// sent is a send waiting in its shard's log for the barrier: the send
// instant, its place in send order (see the header), the drawn wire
// latency and processing time, and the delivery's event key.
type sent struct {
	at, lat, proc time.Duration
	ord, key      int64
	msg           delivery
}

// shard is one partition of the network: a private heap, pool, and
// counter, plus the log of sends waiting for the barrier.
type shard struct {
	net *Network
	idx int

	events eventQueue
	// free recycles event records; freed events bump their gen so stale
	// cancels (a Timer or cancel func still holding the record) become
	// no-ops instead of corrupting a reused record.
	free []*event
	// counter accumulates this shard's accounting: sends by its own
	// nodes, deliveries to its own nodes. Network.Counter() merges the
	// per-shard ledgers into one reporting view.
	counter *Counter
	// now is the shard's local clock: the time of the last event it
	// processed. Between barriers all shard clocks are re-aligned to
	// the coordinator's.
	now time.Duration
	// runKey is the largest event key run at now in this window, -1
	// outside a window.
	runKey int64
	// log holds the sends that wait for the barrier: cross-shard ones,
	// and every one under SerializeProc or Tap. Only this shard appends;
	// the coordinator drains it, from next on.
	log  []sent
	next int

	processed int
}

// parallelThreshold is the pending-event count below which a window
// executes inline even when workers are enabled: a handful of events is
// cheaper to run than to hand off to goroutines.
const parallelThreshold = 64

// newEvent takes a record from the shard's pool (or allocates one).
// Records never migrate between pools: a staged cross-shard message
// travels as a value struct and is materialized from the receiving
// shard's pool at the barrier.
func (sh *shard) newEvent() *event {
	if k := len(sh.free); k > 0 {
		ev := sh.free[k-1]
		sh.free = sh.free[:k-1]
		return ev
	}
	return &event{home: int32(sh.idx)}
}

// freeEvent returns a record to the pool. The gen bump invalidates any
// Timer or cancel func still holding the record; payload fields are cleared
// so a recycled record can never replay its previous role.
func (sh *shard) freeEvent(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.env = nil
	ev.msg = delivery{}
	ev.idx = -1
	sh.free = append(sh.free, ev)
}

// key returns the tie key of the next event e creates.
func (e *nodeEnv) key() int64 {
	k := packKey(int32(e.idx), e.oseq)
	e.oseq++
	return k
}

// defer_ schedules a timer for e on its shard. It runs either on the
// shard's worker (node logic inside a window) or on the coordinator with
// all shards parked (Schedule callbacks, harness code between runs) —
// never concurrently with itself.
func (sh *shard) defer_(e *nodeEnv, d time.Duration, fn func()) *event {
	ev := sh.newEvent()
	ev.at = sh.now + max(d, 0)
	ev.seq = e.key()
	ev.fn = fn
	ev.env = e
	sh.events.push(ev)
	return ev
}

// push materializes a delivery on this shard's heap.
func (sh *shard) push(at time.Duration, key int64, msg delivery) {
	ev := sh.newEvent()
	ev.at = at
	ev.seq = key
	ev.msg = msg
	sh.events.push(ev)
}

// send transmits a message from e. Without SerializeProc or Tap a
// delivery to the sender's own shard goes straight onto its heap; every
// other send waits in the log for the barrier.
func (sh *shard) send(e *nodeEnv, to ids.ID, m any) {
	n := sh.net
	logical := sh.counter.countSend(e.idx, m)
	if n.opts.Drop != nil && n.opts.Drop(e.id, to, m) {
		return
	}
	dst := n.nodes[to]
	if dst == nil {
		return // not registered: dropped at send (see the header)
	}
	lat := n.opts.Latency.Latency(e.id, to, sh.now, e.latRng)
	proc := n.opts.ProcDelay
	if n.opts.ProcJitter > 0 {
		proc += time.Duration(e.latRng.Int63n(int64(n.opts.ProcJitter)))
	}
	msg := delivery{from: e.id, dst: dst, m: m, logical: logical}
	if dst.shard == sh && !n.ordered {
		sh.push(sh.now+lat+proc, e.key(), msg)
		return
	}
	ord := sh.runKey
	if ord < 0 { // outside a window: on the coordinator, in call order
		ord = n.calls
		n.calls++
	}
	sh.log = append(sh.log, sent{at: sh.now, lat: lat, proc: proc, ord: ord, key: e.key(), msg: msg})
}

// exec runs one popped event — a delivery or a timer — and recycles its
// record. The record is freed before the callback runs: the callback
// may schedule new timers, and handing it the just-freed record is the
// common recycle hit.
func (sh *shard) exec(ev *event) {
	fn, env, msg := ev.fn, ev.env, ev.msg
	sh.freeEvent(ev)
	if dst := msg.dst; dst != nil {
		if dst.removed || dst.down || dst.handler == nil {
			return
		}
		sh.counter.addRecv(dst.idx, msg.logical)
		dst.handler.Handle(msg.from, msg.m)
		return
	}
	if env.down {
		// A crashed node's timers are dropped at fire time.
		return
	}
	fn()
}

// runWindow drains this shard's heap through [*, end), leaving events
// at or beyond end for later windows.
func (sh *shard) runWindow(end time.Duration) {
	for sh.events.Len() > 0 && sh.events.q[0].at < end {
		ev := sh.events.pop()
		if ev.at != sh.now {
			sh.runKey = -1
		}
		sh.now = ev.at
		sh.runKey = max(sh.runKey, ev.seq)
		sh.processed++
		sh.exec(ev)
	}
	sh.runKey = -1
}

// foldStaged delivers every logged send. Under SerializeProc or Tap it
// first merges the shards' logs, each already in send order, by stamp.
// Coordinator context only: all shard workers are parked, so the logs
// are stable.
func (n *Network) foldStaged() {
	for n.ordered {
		src := n.shards[0]
		for _, sh := range n.shards[1:] {
			if sh.next < len(sh.log) && (src.next == len(src.log) || sh.log[sh.next].before(&src.log[src.next])) {
				src = sh
			}
		}
		if src.next == len(src.log) {
			break
		}
		n.deliver(&src.log[src.next])
		src.next++
	}
	for _, sh := range n.shards {
		for i := sh.next; i < len(sh.log); i++ {
			n.deliver(&sh.log[i])
		}
		clear(sh.log)
		sh.log, sh.next = sh.log[:0], 0
	}
}

// before orders two logged sends by stamp.
func (s *sent) before(o *sent) bool {
	return s.at < o.at || s.at == o.at && s.ord < o.ord
}

// deliver calls Tap for one send, reserves the receiver's CPU under
// SerializeProc, and pushes the delivery onto the receiver's heap.
func (n *Network) deliver(s *sent) {
	if n.opts.Tap != nil {
		n.opts.Tap(s.msg.from, s.msg.dst.id, s.msg.m, s.lat)
	}
	at := s.at + s.lat + s.proc
	if n.opts.SerializeProc && s.proc > 0 {
		// The message waits for the receiver's CPU to finish earlier
		// work, then occupies it for proc. CPUs may be shared between
		// co-located instances (Emulab: 10 per machine).
		at = n.serializeOn(s.msg.dst.cpu, s.at+s.lat, s.proc)
	}
	if at < n.winEnd {
		panic(fmt.Sprintf("simnet: delivery at %v lands inside the lookahead window ending %v — the latency model violated its MinLatency bound", at, n.winEnd))
	}
	s.msg.dst.shard.push(at, s.key, s.msg)
}

// nextEventAt returns the earliest pending shard-event time, or
// ok=false when all heaps are empty. (The logs are always empty when
// this runs: the coordinator folds them first.)
func (n *Network) nextEventAt() (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, sh := range n.shards {
		if sh.events.Len() == 0 {
			continue
		}
		if at := sh.events.q[0].at; !found || at < best {
			best, found = at, true
		}
	}
	return best, found
}

// runDriverAt executes every driver event scheduled at exactly t, in
// creation order, advancing all clocks to t first.
func (n *Network) runDriverAt(t time.Duration) int {
	processed := 0
	n.now = t
	for _, sh := range n.shards {
		sh.now = t
	}
	for n.drv.Len() > 0 && n.drv.q[0].at == t {
		ev := n.drv.pop()
		fn := ev.fn
		ev.gen++
		ev.fn = nil
		fn()
		processed++
	}
	return processed
}

// run is the loop behind the Run variants. It advances through
// lookahead windows until the queues drain, the clock would pass target
// (when bounded, in which case the clock ends on target), cond turns
// false, or maxEvents events have run (0 means unlimited), and returns
// the number of events processed. cond and maxEvents are checked at
// window barriers; windows being atomic, the count may overshoot
// maxEvents within the final window.
func (n *Network) run(target time.Duration, bounded bool, cond func() bool, maxEvents int) int {
	target = max(target, n.now)
	processed := 0
	for {
		// Fold any staged cross-shard traffic (from the previous
		// window, a driver callback, or harness sends between runs)
		// before looking at the heaps.
		n.foldStaged()
		if cond != nil && !cond() || maxEvents > 0 && processed >= maxEvents {
			break
		}
		next, ok := n.nextEventAt()
		if n.drv.Len() > 0 {
			if dt := n.drv.q[0].at; !ok || dt <= next {
				// Driver events run first at their instant, before any
				// node event at the same time.
				if bounded && dt > target {
					break
				}
				processed += n.runDriverAt(dt)
				continue
			}
		}
		if !ok || bounded && next > target {
			break
		}
		end := next + n.horizon
		if n.drv.Len() > 0 && n.drv.q[0].at < end {
			// Clip at the next driver event so it observes (and can
			// mutate) a fully settled state at its instant.
			end = n.drv.q[0].at
		}
		if bounded && end > target+1 {
			// Include events at exactly target, then stop.
			end = target + 1
		}
		n.now, n.winEnd = next, end
		n.runOneWindow(end)
		for _, sh := range n.shards {
			processed += sh.processed
			sh.processed = 0
		}
	}
	if bounded {
		n.now = target
	} else {
		for _, sh := range n.shards {
			n.now = max(n.now, sh.now)
		}
	}
	for _, sh := range n.shards {
		sh.now = max(sh.now, n.now)
	}
	return processed
}

// runOneWindow executes one window across all shards — inline when the
// backlog is small or parallelism is off, on worker goroutines
// otherwise. Both paths compute identical results; only wall-clock
// differs.
func (n *Network) runOneWindow(end time.Duration) {
	if n.workers > 1 && n.PendingEvents() >= parallelThreshold {
		for _, sh := range n.shards {
			if sh.events.Len() == 0 {
				continue
			}
			n.wg.Add(1)
			go func(sh *shard) {
				defer n.wg.Done()
				sh.runWindow(end)
			}(sh)
		}
		n.wg.Wait()
		return
	}
	for _, sh := range n.shards {
		sh.runWindow(end)
	}
}
