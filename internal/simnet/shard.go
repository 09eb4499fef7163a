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
// per-(source, destination) inbox buffers and folded into the
// destination heaps at the window barrier — by construction they always
// land at or beyond the window end.
//
// One shard follows the same rules as K. A run's observable behavior
// (results, samples, virtual-time latencies, message accounting, where
// RunWhile stops, what Now reads) is a function of the seed alone — the
// shard count, the worker count, and the OS scheduler never change it.
// Three disciplines deliver that:
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
//
// A message to a node that is not registered when it is sent is dropped
// at send, and one to a node removed while it is in flight is dropped
// on arrival, so a message never targets a shard assignment made after
// the fact. Both count as sent.
//
// Features whose semantics are inherently global-send-order need one
// shard and panic at construction with K >= 2: SerializeProc's CPU-queue
// accounting advances a per-CPU busy horizon in global send order, CPUOf
// may co-locate nodes from different shards on one CPU, and Tap observes
// sends in a global order that parallel windows do not have. Drop stays
// available, but the callback runs concurrently from shard workers: it
// must be thread-safe and must decide from its arguments alone (not
// shared mutable state or call order) to stay shard-count independent.

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

// stagedMsg is a cross-shard delivery parked in an inbox buffer until
// the window barrier.
type stagedMsg struct {
	at  time.Duration
	key int64
	msg delivery
}

// shard is one partition of the network: a private heap, pool, and
// counter, plus staging buffers for messages addressed to other shards.
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
	// winEnd is the (exclusive) end of the window being executed; the
	// cross-shard horizon guard asserts against it.
	winEnd time.Duration
	// stageOut[d] buffers messages this shard's nodes sent to shard d
	// during the current window. Only this shard appends; the
	// coordinator drains it at the barrier.
	stageOut [][]stagedMsg

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

// send transmits a message from e. Deliveries to the sender's own shard
// go straight onto its heap; cross-shard deliveries are staged for the
// barrier fold.
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
	if n.opts.Tap != nil {
		n.opts.Tap(e.id, to, m, lat)
	}
	proc := n.opts.ProcDelay
	if n.opts.ProcJitter > 0 {
		proc += time.Duration(e.latRng.Int63n(int64(n.opts.ProcJitter)))
	}
	at := sh.now + lat + proc
	if n.opts.SerializeProc && proc > 0 {
		// The message waits for the receiver's CPU to finish earlier
		// work, then occupies it for proc. CPUs may be shared between
		// co-located instances (Emulab: 10 per machine).
		at = n.serializeOn(dst.cpu, sh.now+lat, proc)
	}
	msg := delivery{from: e.id, dst: dst, m: m, logical: logical}
	if dst.shard == sh {
		sh.push(at, e.key(), msg)
		return
	}
	if at < sh.winEnd {
		panic(fmt.Sprintf("simnet: cross-shard delivery at %v lands inside the lookahead window ending %v — the latency model violated its MinLatency bound", at, sh.winEnd))
	}
	sh.stageOut[dst.shard.idx] = append(sh.stageOut[dst.shard.idx], stagedMsg{at: at, key: e.key(), msg: msg})
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
	sh.winEnd = end
	for sh.events.Len() > 0 && sh.events.q[0].at < end {
		ev := sh.events.pop()
		sh.now = ev.at
		sh.processed++
		sh.exec(ev)
	}
}

// foldStaged moves every staged cross-shard message onto its
// destination heap. Coordinator context only: all shard workers are
// parked, so the buffers are stable.
func (n *Network) foldStaged() {
	for _, src := range n.shards {
		for d, buf := range src.stageOut {
			for i := range buf {
				n.shards[d].push(buf[i].at, buf[i].key, buf[i].msg)
				buf[i] = stagedMsg{}
			}
			src.stageOut[d] = buf[:0]
		}
	}
}

// nextEventAt returns the earliest pending shard-event time, or
// ok=false when all heaps are empty. (Staged buffers are always empty
// when this runs: the coordinator folds them first.)
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
		n.now = next
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
