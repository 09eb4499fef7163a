package core

import (
	"cmp"
	"maps"
	"slices"
	"strings"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/attr"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/predicate"
	"github.com/moara/moara/internal/simnet"
	"github.com/moara/moara/internal/value"
)

// Node is one Moara participant: an overlay member, an attribute agent,
// a group-tree maintainer, and (on demand) a query front-end.
//
// A Node is event-driven and not safe for concurrent use: all entry
// points must run on one goroutine (the simulator loop, or the TCP
// transport's per-node serializer).
type Node struct {
	env     simnet.Env
	cfg     Config
	overlay *pastry.Node
	store   *attr.Store
	self    ids.ID

	preds  map[string]*predState
	byAttr map[string][]string

	execs  map[execKey]*exec
	ledger ledger

	// subs is the standing-query subscription table (standing.go).
	// tableGen counts its insertions and deletions and attrGen the
	// attribute changes: a subscription entry rebuilds its subtree state
	// only when one of them, or one of its child slots, moved.
	subs     map[subKey]*subState
	tableGen uint64
	attrGen  uint64
	// ticking lists the subscription entries in arm order; clock is the
	// node's one epoch timer, armed for clockAt, the earliest due instant
	// among them, while clockArmed (see armEpoch).
	ticking    []*subState
	clock      simnet.Timer
	clockAt    time.Duration
	clockArmed bool
	clockFn    func()

	fe frontend

	parseCache map[string]predicate.Expr
	groupCache map[string]*groupEntry

	targetsGen   int
	targetsCache map[int][]pastry.BroadcastTarget

	// subsGen is the overlay generation the subscription tables were
	// last reconciled against (see maybeResyncSubs).
	subsGen int

	// The outbox is the per-destination coalescing buffer (wire
	// batching): sends within one CoalesceWindow to the same neighbor
	// ship as a single BatchMsg. outTo lists the destinations in
	// first-send order, which is the flush order, and outItems[i] holds
	// outTo[i]'s messages. A node sends to a handful of neighbors per
	// window, so a scan from the back finds one faster than a hash probe.
	// Item buffers come from the shared batch free list and go back to
	// it unshipped (singletons) or from the receiver (batches).
	outTo       []ids.ID
	outItems    [][]any
	outboxArmed bool
	flushFn     func()
	// deferFn is the cancel-free timer fast path (simnet provides one;
	// other Envs fall back to After with the handle discarded), and
	// armFn the reusable-Timer-slot counterpart.
	deferFn func(time.Duration, func())
	armFn   func(time.Duration, func(), *simnet.Timer)

	// targetScratch backs queryTargets' list and subScratch subsOf's;
	// each is consumed before the next call.
	targetScratch []SetEntry
	subScratch    []*subState
	// freeExecs recycles finished exec records and their child tables.
	freeExecs []*exec

	qidCounter uint64
	gcArmed    bool
	gcCancel   func()
	closed     bool

	// Fallback receives messages the node does not understand (used by
	// the baseline packages to graft extra protocols onto a node).
	Fallback func(from ids.ID, m any)
}

var _ simnet.Handler = (*Node)(nil)

// NewNode creates a Moara node on env. The node's overlay must still be
// bootstrapped (Join, BootstrapAlone, or an Oracle Fill).
func NewNode(env simnet.Env, cfg Config, overlayCfg pastry.Config) *Node {
	n := &Node{
		env:          env,
		cfg:          cfg.Defaults(),
		store:        attr.NewStore(),
		self:         env.Self(),
		preds:        make(map[string]*predState),
		byAttr:       make(map[string][]string),
		execs:        make(map[execKey]*exec),
		ledger:       newLedger(),
		subs:         make(map[subKey]*subState),
		parseCache:   make(map[string]predicate.Expr),
		groupCache:   make(map[string]*groupEntry),
		targetsCache: make(map[int][]pastry.BroadcastTarget),
		targetsGen:   -1,
		subsGen:      -1,
	}
	n.flushFn = n.flushOutbox
	n.clockFn = n.epochWalk
	if d, ok := env.(interface {
		Defer(time.Duration, func())
	}); ok {
		n.deferFn = d.Defer
	} else {
		n.deferFn = func(d time.Duration, fn func()) { env.After(d, fn) }
	}
	if a, ok := env.(interface {
		Arm(time.Duration, func(), *simnet.Timer)
	}); ok {
		n.armFn = a.Arm
	} else {
		n.armFn = func(d time.Duration, fn func(), t *simnet.Timer) {
			t.SetFallback(env.After(d, fn))
		}
	}
	if inc, ok := env.(interface{ Incarnation() uint64 }); ok {
		// A node restarted under its old ID must not reuse the query
		// numbers of its previous life: peers still remember those for
		// SeenTTL and would answer them as replays.
		n.qidCounter = inc.Incarnation()
	}
	n.overlay = pastry.New(env, overlayCfg)
	n.overlay.Deliver = n.handleRouted
	n.overlay.OnNodeRemoved = n.onPeerRemoved
	n.fe.init(n)
	n.store.Subscribe(n.onAttrChange)
	return n
}

// onPeerRemoved reacts to the overlay purging a failed node (heartbeat
// detection or a gossiped obituary): every Moara-layer reference to the
// dead peer is dropped in the same event, so no stale partial aggregate
// or child status can be merged past the purge — the keystone of the
// no-double-counting argument for churn repair. Orphaned tree state
// (the dead peer was our parent) reverts to the accept-any-parent
// posture of §7 reconfiguration, and in-flight aggregations stop
// waiting for the dead child instead of burning the full ChildTimeout.
func (n *Node) onPeerRemoved(dead ids.ID) {
	if n.closed {
		return
	}
	// Both loops below send (status, install and response messages), and
	// on the simulator every send draws from the node's latency stream:
	// walk the maps in a fixed order so one seed gives one run.
	for _, canon := range slices.Sorted(maps.Keys(n.preds)) {
		ps := n.preds[canon]
		changed := false
		if ps.children.remove(dead) {
			ps.dirty = true
			changed = true
		}
		if ps.hasParent && ps.parent == dead {
			ps.hasParent = false
			ps.lastSentValid = false
			changed = true
		}
		if changed {
			// Recompute qSet without the dead child and reconcile the
			// standing-query installs (syncSubs): a repaired tree edge is
			// re-subscribed as soon as the overlay knows about it.
			n.onStateChange(ps)
		}
	}
	// A standing entry forgets the dead child; a one-shot keeps what it
	// already answered.
	for _, sub := range n.subs {
		sub.changed = sub.kids.remove(dead) || sub.changed
		if !sub.root && sub.parent == dead {
			sub.orphaned = true
		}
	}
	var finished []*exec
	for _, ex := range n.execs {
		if i, ok := ex.kids.find(dead); ok && ex.kids[i].expected {
			ex.kids[i].expected = false
			if !ex.kids.waiting() {
				finished = append(finished, ex)
			}
		}
	}
	slices.SortFunc(finished, func(a, b *exec) int {
		return cmp.Or(compareQID(a.qid, b.qid), strings.Compare(a.group, b.group))
	})
	for _, ex := range finished {
		ex.timer.Stop()
		n.finishExec(ex)
	}
}

// Overlay exposes the node's overlay layer (bootstrap, inspection).
func (n *Node) Overlay() *pastry.Node { return n.overlay }

// Env exposes the node's runtime environment; the baseline protocols
// grafted onto a node (package baseline) send replies through it.
func (n *Node) Env() simnet.Env { return n.env }

// Store exposes the node's attribute store (the Moara agent writes
// monitored values here).
func (n *Node) Store() *attr.Store { return n.store }

// Self returns the node's identifier.
func (n *Node) Self() ids.ID { return n.self }

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.cfg }

// Close stops timers, the epoch clock included. Any messages still
// queued in the coalescing outbox are flushed first (best-effort), so
// e.g. a cancel cascade queued just before shutdown still reaches the
// children instead of leaving them to the SubTTL GC.
func (n *Node) Close() {
	if n.closed {
		return
	}
	n.flushOutbox()
	n.closed = true
	n.clock.Stop()
	for _, fs := range n.fe.subs {
		if fs.renewCancel != nil {
			fs.renewCancel()
		}
		n.fe.endProbes(fs.probes)
		if fs.emptyCancel != nil {
			fs.emptyCancel()
		}
	}
	n.overlay.Close()
}

// Recover restarts the node's background loops after a crash-recovery.
// The runtime drops timer callbacks that fire while a node is down, so
// a recovered node's periodic loops (overlay heartbeats, the GC sweep,
// subscription epoch ticks, front-end renewals) are dead; Recover
// re-arms them and rejoins the overlay via bootstrap, which also
// re-announces this node to peers holding a death certificate for it.
// Subscriptions whose lease expired while the node was down are dropped
// by their first re-armed tick; fresher ones resume seamlessly.
func (n *Node) Recover(bootstrap ids.ID) {
	if n.closed {
		return
	}
	n.overlay.Rejoin(bootstrap)
	if n.gcCancel != nil {
		// A GC timer armed before the crash may still be pending; left
		// alone, its callback would re-arm a second self-perpetuating
		// sweep chain alongside the fresh one.
		n.gcCancel()
	}
	n.gcArmed = false
	n.armGC()
	// Entries due at the same instant tick in list order.
	n.clock.Stop()
	clear(n.ticking)
	n.ticking = append(n.ticking[:0], n.subsOf("")...)
	now := n.env.Now()
	for _, sub := range n.ticking {
		sub.due = nextDue(now, sub.period)
	}
	n.armClock()
	n.fe.recover()
}

// send queues m for to through the per-destination outbox. With
// coalescing enabled (CoalesceWindow >= 0) the message rides the next
// flush — together with everything else bound for the same neighbor —
// as one wire-level BatchMsg; with CoalesceOff it goes out directly.
// All Moara-layer traffic (queries, responses, statuses, installs,
// epoch reports, samples, cancels) flows through here; overlay routing
// and maintenance stay un-coalesced so liveness is never delayed.
func (n *Node) send(to ids.ID, m any) {
	if n.cfg.CoalesceWindow < 0 {
		n.env.Send(to, m)
		return
	}
	i := len(n.outTo) - 1
	for i >= 0 && n.outTo[i] != to {
		i--
	}
	if i < 0 {
		i = len(n.outTo)
		n.outTo = append(n.outTo, to)
		n.outItems = append(n.outItems, takeBatchBuf(0))
	}
	n.outItems[i] = append(n.outItems[i], m)
	if !n.outboxArmed {
		n.outboxArmed = true
		// A zero window flushes after the current event at the same
		// virtual instant on the simulator. The TCP agent has no such
		// defer: the flush is a zero-delay real timer, and every handler
		// turn that takes the core lock before the timer does joins the
		// same flush (see Config.CoalesceWindow).
		n.deferFn(n.cfg.CoalesceWindow, n.flushFn)
	}
}

// flushOutbox ships every queued destination's messages in first-send
// order: singletons go raw (no envelope overhead) and their buffers back
// to the free list, anything more ships as one BatchMsg whose buffer the
// receiver hands back.
func (n *Node) flushOutbox() {
	if n.closed {
		return
	}
	n.outboxArmed = false
	for i, to := range n.outTo {
		items := n.outItems[i]
		if len(items) == 1 {
			n.env.Send(to, items[0])
			putBatchBuf(items)
			continue
		}
		n.env.Send(to, BatchMsg{Items: items})
	}
	clear(n.outItems)
	n.outTo, n.outItems = n.outTo[:0], n.outItems[:0]
}

// Handle dispatches an incoming message (implements simnet.Handler).
func (n *Node) Handle(from ids.ID, m any) {
	if n.closed {
		return
	}
	if bm, ok := m.(BatchMsg); ok {
		// Unpack a coalesced wire batch: items dispatch in send order,
		// exactly as they would have arrived individually. Nothing reads
		// the batch afterwards, so its buffer goes back to the free list.
		for _, item := range bm.Items {
			n.Handle(from, item)
		}
		bm.Release()
		return
	}
	if n.overlay.Handle(from, m) {
		// Overlay maintenance may have changed routing state (a join
		// announcement, an obituary purge, a repaired slot): reconcile
		// standing-query installs right away instead of waiting for the
		// next epoch tick.
		n.maybeResyncSubs()
		return
	}
	switch msg := m.(type) {
	case QueryMsg:
		n.handleQuery(from, msg)
	case ResponseMsg:
		n.handleResponse(from, msg)
	case StatusMsg:
		n.handleStatus(from, msg)
	case ProbeRespMsg:
		n.fe.handleProbeResp(msg)
	case InstallMsg:
		n.handleInstall(from, msg)
	case EpochReportMsg:
		n.handleEpochReport(from, msg, false)
	case SampleMsg:
		n.fe.handleSample(from, msg)
	case CancelMsg:
		n.handleCancel(from, msg, false)
	default:
		if n.Fallback != nil {
			n.Fallback(from, m)
		}
	}
}

// maybeResyncSubs reconciles every subscription's installed children
// with the query target set after the overlay's routing state changed
// (tracked by the generation counter, so stable gossip is free). This
// is the fast half of churn repair: a replacement child learned through
// the obituary/repair-probe exchange is installed within milliseconds
// of the purge, and the per-epoch reconcile in epochTick is only the
// backstop.
func (n *Node) maybeResyncSubs() {
	if len(n.subs) == 0 {
		return
	}
	g := n.overlay.Gen()
	if g == n.subsGen {
		return
	}
	n.subsGen = g
	for _, sub := range n.subsOf("") {
		ps := sub.ge.ps
		if ps == nil {
			continue
		}
		n.recomputeState(ps)
		n.pushInstalls(sub, ps, false)
	}
}

// handleRouted receives payloads delivered by the overlay to this node
// as the owner of their key.
func (n *Node) handleRouted(key ids.ID, payload any, origin ids.ID) {
	switch msg := payload.(type) {
	case SubQueryMsg:
		n.handleSubQuery(msg)
	case ProbeMsg:
		n.handleProbe(msg)
	case SubscribeMsg:
		n.handleSubscribe(msg)
	case EpochReportMsg:
		// The orphan pull: a subtree whose uptree chain was severed by a
		// crash streams to the tree root through the overlay.
		n.handleEpochReport(origin, msg, true)
	case CancelMsg:
		n.handleCancel(key, msg, true)
	}
}

// ---------------------------------------------------------------------
// Predicate state bookkeeping

// groupEntry is a group interned at this node: its parsed spec, the
// dense id the ledger records it by, and its predicate state (nil until
// getPred creates it; dropPred clears it).
type groupEntry struct {
	spec groupSpec
	id   uint32
	ps   *predState
}

// groupOf resolves a group's wire form to its interned entry, parsing
// it at first sight; a non-canonical spelling shares the entry of its
// canonical form. Entries are never evicted, so ids are never reused.
func (n *Node) groupOf(canon string) (*groupEntry, error) {
	if ge, ok := n.groupCache[canon]; ok {
		return ge, nil
	}
	g, err := parseGroupSpec(canon)
	if err != nil {
		return nil, err
	}
	ge, ok := n.groupCache[g.canon]
	if !ok {
		ge = &groupEntry{spec: g, id: uint32(len(n.groupCache))}
		n.groupCache[g.canon] = ge
	}
	n.groupCache[canon] = ge
	return ge, nil
}

func (n *Node) getPred(ge *groupEntry) *predState {
	if ps := ge.ps; ps != nil {
		return ps
	}
	g := ge.spec
	ps := newPredState(g)
	ps.evalLocal(n.store)
	n.preds[g.canon] = ps
	ge.ps = ps
	if g.expr != nil {
		for _, a := range predicate.Attrs(g.expr) {
			n.byAttr[a] = append(n.byAttr[a], g.canon)
		}
	}
	ps.touch(n.env.Now())
	n.armGC()
	return ps
}

func (n *Node) dropPred(canon string) {
	ps, ok := n.preds[canon]
	if !ok {
		return
	}
	delete(n.preds, canon)
	n.groupCache[canon].ps = nil
	if ps.group.expr != nil {
		for _, a := range predicate.Attrs(ps.group.expr) {
			list := n.byAttr[a]
			out := list[:0]
			for _, c := range list {
				if c != canon {
					out = append(out, c)
				}
			}
			if len(out) == 0 {
				delete(n.byAttr, a)
			} else {
				n.byAttr[a] = out
			}
		}
	}
}

// structural returns the broadcast-tree children for a node at level,
// cached against the overlay generation.
func (n *Node) structural(level int) []pastry.BroadcastTarget {
	if level < 0 {
		return nil
	}
	if g := n.overlay.Gen(); g != n.targetsGen {
		n.targetsGen = g
		clear(n.targetsCache)
	}
	if ts, ok := n.targetsCache[level]; ok {
		return ts
	}
	ts := n.overlay.BroadcastTargets(level)
	n.targetsCache[level] = ts
	return ts
}

// regionEstimate approximates the population of an unreported child's
// subtree: the system-size estimate divided by the ID-space fan-out at
// the child's level, floored at one node.
func (n *Node) regionEstimate(level int) float64 {
	est := n.overlay.EstimateSize()
	for i := 0; i < level && est > 1; i++ {
		est /= ids.Radix
	}
	if est < 1 {
		est = 1
	}
	return est
}

// recomputeState refreshes derived predicate state and reports whether
// the observable part changed.
func (n *Node) recomputeState(ps *predState) bool {
	g := n.overlay.Gen()
	if !ps.dirty && ps.cleanGen == g {
		return false
	}
	changed := ps.recompute(n.structural(ps.level), n.cfg.Threshold, n.self, n.regionEstimate)
	ps.dirty = false
	ps.cleanGen = g
	return changed
}

// onAttrChange re-evaluates local satisfiability for every group that
// references the changed attribute (the Moara agent hook of §3.1).
func (n *Node) onAttrChange(name string, _, _ value.Value) {
	n.attrGen++
	canons := n.byAttr[name]
	for _, canon := range canons {
		ps, ok := n.preds[canon]
		if !ok {
			continue
		}
		if !ps.evalLocal(n.store) {
			continue
		}
		n.onStateChange(ps)
	}
}

// onStateChange runs the §4 pipeline after a local or child change:
// recompute, record a churn event if observable state moved, re-run the
// adaptation policy, and propagate status if warranted.
func (n *Node) onStateChange(ps *predState) {
	changed := n.recomputeState(ps)
	if changed {
		ps.recordEvent(evChange)
	}
	if ps.runPolicy(n.cfg.Mode, n.cfg.KUpdate, n.cfg.KNoUpdate) {
		// The update flag flipped; np depends on it.
		n.recomputeState(ps)
	}
	ps.touch(n.env.Now())
	n.maybeSendStatus(ps)
	// Standing queries follow the adaptive tree: reconcile installed
	// children with the (possibly changed) query target set.
	n.syncSubs(ps)
}

// queryLoad is §4's step for one query-plane arrival — a query, a
// subscription, an install, or one epoch of standing load: bring the
// state up to date, account for the queries seq reveals this node
// missed, record this one, run the policy, and recompute if the update
// flag flipped. It reports the flip.
func (n *Node) queryLoad(ps *predState, seq uint64) (flipped bool) {
	n.recomputeState(ps)
	ps.observeSeq(seq, n.self)
	ps.recordQueryEvent(n.self)
	flipped = ps.runPolicy(n.cfg.Mode, n.cfg.KUpdate, n.cfg.KNoUpdate)
	if flipped {
		// np depends on the update flag.
		n.recomputeState(ps)
	}
	ps.touch(n.env.Now())
	return flipped
}

// maybeSendStatus sends the parent a status update when the parent's
// view of this node would otherwise be stale. NO-UPDATE nodes advertise
// the constant (NO-PRUNE, {self}) view, so they naturally go silent.
func (n *Node) maybeSendStatus(ps *predState) {
	if !ps.hasParent {
		return
	}
	prune, set := ps.wireView(n.self)
	if ps.lastSentValid && prune == ps.lastSentPrune && equalEntries(set, ps.lastSentSet) {
		return
	}
	if !ps.lastSentValid && !prune && len(set) == 1 && set[0].ID == n.self {
		// The parent's default assumption already matches; nothing to say.
		return
	}
	ps.lastSentValid = true
	ps.lastSentPrune = prune
	ps.lastSentSet = append([]SetEntry(nil), set...)
	// Ship the retained copy, not the live set: recompute reuses the
	// qSet/updateSet backing buffers, and on the simulator an in-flight
	// message aliases the sender's memory until delivery.
	n.send(ps.parent, StatusMsg{
		Group:     ps.group.canon,
		Prune:     prune,
		UpdateSet: ps.lastSentSet,
		Np:        ps.np,
		Unknown:   ps.unknown,
		LastSeq:   ps.lastSeq,
	})
}

// handleStatus merges a child's PRUNE/NO-PRUNE + updateSet report (§4,
// §5) and reacts to any resulting observable change.
func (n *Node) handleStatus(from ids.ID, sm StatusMsg) {
	ge, err := n.groupOf(sm.Group)
	if err != nil {
		return
	}
	ps := n.getPred(ge)
	// The status replaces the child's last one in place; its updateSet
	// backing is reused (recompute copies the entries out).
	cs, _ := ps.children.put(from)
	*cs = childState{
		id:        from,
		Prune:     sm.Prune,
		UpdateSet: append(cs.UpdateSet[:0], sm.UpdateSet...),
		Np:        sm.Np,
		Unknown:   sm.Unknown,
	}
	ps.dirty = true
	// Bypassed/pruned ancestors learn the system's query progress from
	// child piggybacks (§5 "Adaptation and SQP").
	ps.learnSeq(sm.LastSeq, n.self)
	n.onStateChange(ps)
}

// ---------------------------------------------------------------------
// Query dissemination and aggregation

// exec tracks one in-flight query aggregation at this node. Every query
// — scalar or grouped — accumulates through the keyed engine; a scalar
// query is the single-key (ScalarKey) special case. Its children sit in
// the id-ordered childTable a standing entry keeps: responses are filed,
// and finishExec folds them once, after the local contribution, in
// child-id order, so the answer does not depend on arrival order.
type exec struct {
	qid     QueryID
	group   string
	ge      *groupEntry
	attrKey string
	spec    aggregate.Spec
	groupBy string
	replyTo ids.ID
	state   *aggregate.GroupedState
	// contrib counts members that answered in this subtree (completeness
	// accounting; a member without the query attribute still counts).
	contrib int64
	kids    childTable
	timer   simnet.Timer
	// timeoutFn is the timeout closure, built once per pooled record.
	timeoutFn func()
	key       execKey
}

// handleSubQuery starts dissemination at the tree root.
func (n *Node) handleSubQuery(sq SubQueryMsg) {
	ge, err := n.groupOf(sq.Group)
	if err != nil || n.markSeen(sq.QID, ge.id) {
		n.send(sq.ReplyTo, ResponseMsg{QID: sq.QID, Group: sq.Group, Dup: true})
		return
	}
	ps := n.getPred(ge)
	ps.becomeRoot()
	qm := QueryMsg{
		QID:     sq.QID,
		Seq:     ps.nextSeq(),
		Group:   sq.Group,
		Eval:    sq.Eval,
		Attr:    sq.Attr,
		Spec:    sq.Spec,
		GroupBy: sq.GroupBy,
		Level:   0,
		ReplyTo: n.self,
	}
	n.queryLoad(ps, qm.Seq)
	n.disseminate(ge, qm, sq.ReplyTo)
}

// handleQuery processes a query received from a tree parent or via an
// SQP jump.
func (n *Node) handleQuery(_ ids.ID, qm QueryMsg) {
	ge, err := n.groupOf(qm.Group)
	if err != nil || n.markSeen(qm.QID, ge.id) {
		n.send(qm.ReplyTo, ResponseMsg{QID: qm.QID, Group: qm.Group, Dup: true})
		return
	}
	ps := n.getPred(ge)
	if ps.level < 0 || qm.Level < ps.level {
		ps.setLevel(qm.Level)
	}
	ps.adopt(qm.ReplyTo, qm.Jump)
	n.queryLoad(ps, qm.Seq)
	n.disseminate(ge, qm, qm.ReplyTo)
	n.maybeSendStatus(ps)
}

// disseminate forwards the query to this node's current query targets
// and aggregates their responses plus the local contribution; exec
// records are pooled.
func (n *Node) disseminate(ge *groupEntry, qm QueryMsg, replyTo ids.ID) {
	ps := ge.ps
	ex := n.newExec()
	ex.qid = qm.QID
	ex.group = qm.Group
	ex.ge = ge
	ex.attrKey = qm.Attr
	ex.spec = qm.Spec
	ex.groupBy = qm.GroupBy
	ex.replyTo = replyTo
	ex.state = aggregate.NewGrouped(qm.Spec, n.cfg.MaxGroupKeys)
	if n.evalLocal(ps, qm.Eval, qm.Group) && n.claimAnswer(qm.QID) {
		ex.contrib++
		ex.state.AddKeyed(n.self, n.groupKey(qm.GroupBy), n.localValue(qm.Attr))
	}
	targets := n.queryTargets(ps)
	if len(targets) == 0 {
		n.finishExec(ex)
		return
	}
	n.execs[execKey{qm.QID, qm.Group}] = ex
	fwd := qm
	fwd.ReplyTo = n.self
	for _, t := range targets {
		ex.kids.expect(t.ID)
		fwd.Level = t.Level
		fwd.Jump = t.Jump
		n.send(t.ID, fwd)
	}
	n.armExecTimeout(ex, qm)
}

// queryTargets lists the children a query or subscription goes to: the
// group tree's query target set. It lives in a scratch buffer valid
// until the next call.
func (n *Node) queryTargets(ps *predState) []SetEntry {
	targets := n.targetScratch[:0]
	for _, e := range ps.qSet {
		if e.ID != n.self {
			targets = append(targets, e)
		}
	}
	n.targetScratch = targets
	return targets
}

// armExecTimeout starts the child-timeout clock for an in-flight
// aggregation, reusing the pooled record's closure and timer slot. At
// the timeout the aggregation finishes with the children it has (§7:
// queries complete independent of failure-detection timeouts).
func (n *Node) armExecTimeout(ex *exec, qm QueryMsg) {
	ex.key = execKey{qm.QID, qm.Group}
	if ex.timeoutFn == nil {
		ex.timeoutFn = func() {
			if n.execs[ex.key] == ex {
				n.finishExec(ex)
			}
		}
	}
	n.armFn(n.cfg.ChildTimeout, ex.timeoutFn, &ex.timer)
}

// newExec takes an exec record from the pool; its child table (if any)
// arrives empty.
func (n *Node) newExec() *exec {
	if k := len(n.freeExecs); k > 0 {
		ex := n.freeExecs[k-1]
		n.freeExecs = n.freeExecs[:k-1]
		return ex
	}
	return &exec{}
}

// evalLocal evaluates a query's full predicate at this node: eval, or
// when it is empty the group predicate, read off the group state ps
// when there is one (a standing entry outlives state the GC dropped).
func (n *Node) evalLocal(ps *predState, eval, group string) bool {
	if eval == "" {
		if ps != nil {
			return ps.satLocal
		}
		if group == "" || group[0] == '*' {
			return true
		}
		eval = group
	}
	e, err := n.parseCached(eval)
	if err != nil {
		return false
	}
	return e.Eval(n.store)
}

func (n *Node) parseCached(s string) (predicate.Expr, error) {
	if e, ok := n.parseCache[s]; ok {
		return e, nil
	}
	e, err := predicate.ParseExpr(s)
	if err != nil {
		return nil, err
	}
	n.parseCache[s] = e
	return e, nil
}

// localValue produces this node's contribution for the query attribute;
// "*" contributes 1, enabling count(*).
func (n *Node) localValue(attrName string) value.Value {
	if attrName == "*" {
		return value.Int(1)
	}
	return n.store.Get(attrName)
}

// groupKey derives this node's aggregation key for a grouped query:
// the canonical form of its group-by attribute value, NullKey when the
// attribute is unset, and ScalarKey for ungrouped queries. A literal
// attribute value that collides with a reserved key is escaped with a
// leading backslash so it can never shadow the null or spill bucket.
func (n *Node) groupKey(groupBy string) string {
	if groupBy == "" {
		return aggregate.ScalarKey
	}
	v := n.store.Get(groupBy)
	if !v.IsValid() {
		return aggregate.NullKey
	}
	key := v.Key()
	if key == aggregate.NullKey || key == aggregate.OtherKey {
		return `\` + key
	}
	return key
}

// handleResponse files a child's partial aggregate in its slot; the
// merge waits for finishExec.
func (n *Node) handleResponse(from ids.ID, rm ResponseMsg) {
	ex, ok := n.execs[execKey{rm.QID, rm.Group}]
	i := 0
	if ok {
		i, ok = ex.kids.find(from)
	}
	if !ok || !ex.kids[i].expected {
		n.fe.handleQueryResp(from, rm)
		return
	}
	c := childSlot{id: from}
	if !rm.Dup {
		c.state, c.contrib = rm.State, rm.Contributors
		ex.contrib += rm.Contributors
		n.noteChildCost(ex.ge.ps, from, rm.Np, rm.Unknown)
	}
	ex.kids.file(i, true, c)
	if !ex.kids.waiting() {
		ex.timer.Stop()
		n.finishExec(ex)
	}
}

// finishExec folds the filed partials into the local contribution, in
// child-id order (childTable.fold, the fold a standing rebuild uses),
// and answers the parent.
func (n *Node) finishExec(ex *exec) {
	delete(n.execs, execKey{ex.qid, ex.group})
	ex.kids.fold(ex.state)
	ex.kids.reset()
	np, unknown := 0, 0.0
	if ps := ex.ge.ps; ps != nil {
		np, unknown = ps.np, ps.unknown
	}
	n.send(ex.replyTo, ResponseMsg{
		QID:          ex.qid,
		Group:        ex.group,
		State:        ex.state,
		Contributors: ex.contrib,
		Np:           np,
		Unknown:      unknown,
	})
	// Recycle the record: the shipped state is owned by the response
	// from here on, everything else resets. The timeout closure is kept
	// — it reads ex.key at fire time, so it re-binds with the record.
	if len(n.freeExecs) < 32 {
		*ex = exec{kids: ex.kids, timeoutFn: ex.timeoutFn}
		n.freeExecs = append(n.freeExecs, ex)
	}
}

// handleProbe answers a §6.3 size probe with the group's current query
// cost: 2·np for warm trees, a system-size estimate for cold ones.
func (n *Node) handleProbe(pm ProbeMsg) {
	cost := 2 * n.overlay.EstimateSize()
	if ge, ok := n.groupCache[pm.Group]; ok && ge.ps != nil {
		cost = 2 * (float64(ge.ps.np) + ge.ps.unknown)
	}
	n.send(pm.ReplyTo, ProbeRespMsg{QID: pm.QID, Group: pm.Group, Cost: cost})
}

// ---------------------------------------------------------------------
// Housekeeping

// markSeen records that qid arrived through the tree interned as gid
// and reports whether it already had: a replay, which the caller
// answers Dup instead of forwarding it again.
func (n *Node) markSeen(qid QueryID, gid uint32) bool {
	if n.ledger.arrive(qid, gid) {
		return true
	}
	n.armGC()
	return false
}

// claimAnswer reserves the right to contribute this node's local value
// to the query: a node present in several trees of a composite cover
// answers exactly once (§6.2).
func (n *Node) claimAnswer(qid QueryID) bool { return n.ledger.claim(qid) }

// armGC schedules the periodic sweep that rotates the answer-once
// memory (§6.2's 5-minute cache) and garbage-collects idle NO-UPDATE
// state (§4 "State Maintenance").
func (n *Node) armGC() {
	if n.gcArmed || n.closed {
		return
	}
	period := n.cfg.SeenTTL / 2
	if n.cfg.StateTTL > 0 && n.cfg.StateTTL/2 < period {
		period = n.cfg.StateTTL / 2
	}
	if period <= 0 {
		period = time.Minute
	}
	n.gcArmed = true
	n.gcCancel = n.env.After(period, func() {
		n.gcArmed = false
		n.sweep()
		// Re-arm only while something remains collectible: remembered
		// query IDs always expire; predicate state only when StateTTL is
		// set (otherwise an idle node would tick forever).
		if !n.ledger.empty() || (n.cfg.StateTTL > 0 && len(n.preds) > 0) {
			n.armGC()
		}
	})
}

func (n *Node) sweep() {
	now := n.env.Now()
	n.ledger.rotate(now, n.cfg.SeenTTL)
	if n.cfg.StateTTL <= 0 {
		return
	}
	for canon, ps := range n.preds {
		if !ps.update && now-ps.lastActive > n.cfg.StateTTL {
			n.dropPred(canon)
		}
	}
}
