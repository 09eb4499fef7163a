package core

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/ids"
)

// This file implements standing queries: the push-based continuous
// subsystem that amortizes tree construction and dissemination across
// repeated queries over the same groups. A standing query is installed
// ONCE down the chosen cover's trees (SubscribeMsg to each root,
// InstallMsg down-tree); thereafter every subscribed node recomputes
// its local contribution each epoch and pushes one EpochReportMsg to
// its parent — one message per tree edge per epoch, roughly half the
// cost of re-running the one-shot query, which pays for both the
// downward dissemination and the upward aggregation every round.
//
// Liveness is lease-based: the front-end renews the root every
// SubRenewInterval, renewals cascade down-tree as install refreshes,
// and any node whose lease goes unrenewed for SubTTL silently drops
// its state — a crashed front-end (or a crashed parent) cannot leak
// subscription state. Reports arriving for an unknown subscription are
// answered with CancelMsg, so orphaned children tear down ahead of the
// TTL.
//
// An entry keeps its children in the childTable a one-shot keeps: one
// slot per installed or reporting child, in id order, which is the order
// a rebuild folds the reports in, as finishExec folds responses.
//
// A node ticks all its entries from one epoch clock: the entries in arm
// order and one timer, armed for the earliest due instant. Entries tick
// on their period's grid, so every entry with the same period is due at
// the same instant; one timer event ticks them all and ships their
// reports in one outbox flush. Q streams over a tree edge therefore cost
// one wire frame per epoch, on the simulator and the TCP agent alike,
// and the heap holds one epoch event per node, not one per entry.
//
// An unchanged subtree costs a pointer, not a merge. Each entry retains
// the subtree state it last built and re-sends it, under the new epoch
// number and with fresh Contributors/Np/Unknown, until an input moves:
// a child slot files a different state or is dropped (the two-period
// stale sweep included, which still runs every tick), an attribute of
// this node changes (Node.attrGen), the node's subscription table gains
// or loses an entry (Node.tableGen — the composite-cover claim depends
// on it), or an install or subscribe touches the entry. A parent
// recognises a re-sent state by pointer identity and only refreshes the
// slot; over sockets every decode is a new object, so there leaf agents
// skip their rebuild and interior agents rebuild as before. The retained
// state is shared by its builder, the reports in flight and the parent's
// slot, so it is never written after its first send and goes back to the
// pool through the holder count of aggregate.Recycle. None of this is
// configurable: the skip is exact (Merge is a pure function of its
// inputs), so there is no setting under which rebuilding is the better
// answer.

// Sample is one epoch of a standing query delivered to the subscriber.
type Sample struct {
	// Epoch numbers the sample (1-based, per subscription): a delivery
	// counter at the front-end, consecutive by construction.
	Epoch uint64
	// RootEpoch is the newest tree-root epoch counter merged into this
	// sample (the roots tick once per period regardless of delivery).
	// Unlike Epoch it exposes stream faults: a skipped root sample
	// shows as a gap, a duplicate as a repeat, a reordering as a
	// decrease. Zero for provably-empty plans (no network state).
	RootEpoch uint64
	// At is the front-end clock when the sample was delivered.
	At time.Duration
	// Lag is the root-emission-to-delivery delay of the slowest tree
	// in the cover. It compares the two clocks directly, so it is only
	// meaningful on a shared clock (the simulator).
	Lag time.Duration
	// ColdStart marks samples taken before the subscription's
	// contribution pipeline plausibly filled (install dissemination
	// plus one epoch per tree level): series plots and benchmarks
	// should compare warm epochs only. It is re-raised after a cover
	// flip re-installs the subscription.
	ColdStart bool
	// Contributors counts the group members folded into this epoch's
	// aggregate (members missing the query attribute included), summed
	// over the cover's trees — the sample's coverage numerator. It
	// mirrors Result.Contributors.
	Contributors int64
	// Expected sums the cover roots' population estimates for the
	// epoch; Contributors/Expected (see Result.Completeness) is the
	// sample's self-reported completeness under churn.
	Expected float64
	// Result is the epoch's aggregate (Stats carries only the group-by
	// metadata; there is no per-epoch planning).
	Result Result
	// Err is non-nil when the round failed (subscription setup errors;
	// per-epoch delivery has no failure callback).
	Err error
}

// Completeness is Contributors/Expected clamped to [0,1] (1 when
// Expected is unknown): the sample's self-reported coverage.
func (s Sample) Completeness() float64 { return s.Result.Completeness() }

// ---------------------------------------------------------------------
// Node side: the subscription table and the epoch loop

// subKey identifies one subscription entry at a node: a node reached
// through several trees of a composite cover holds one entry per tree.
type subKey struct {
	sid   QueryID
	group string
}

// subState is one standing query's per-(node, group) state.
type subState struct {
	sid QueryID
	// ge is the interned group the entry was created for; ge.ps is its
	// predicate state (nil while dropped), read without a lookup.
	ge      *groupEntry
	eval    string
	attrKey string
	spec    aggregate.Spec
	groupBy string
	period  time.Duration
	level   int

	// root marks the tree root (reached by overlay routing); it
	// streams SampleMsg to replyTo instead of reporting to a parent.
	root    bool
	parent  ids.ID
	replyTo ids.ID

	epoch uint64
	// kids holds the installed children (expected, kept in sync with the
	// query target set by pushInstalls) and each child's newest report.
	kids childTable

	// orphaned marks a subscription whose parent was purged as dead.
	// While orphaned, reports are routed through the overlay to the
	// tree root directly (the pull bypass: the subtree stays in the
	// stream even though its uptree chain is severed), and the next
	// install — from whichever node adopts us on the repaired tree —
	// triggers an eager report so the retained subtree state re-enters
	// the tree path without waiting for the next epoch tick.
	orphaned bool
	// pulled records that at least one orphaned report was routed to
	// the root, so adoption knows to retract the direct copy.
	pulled bool
	// lastNonEmpty records that the previous report carried content, so
	// a batch that goes empty (members re-parented away, group left)
	// sends one final empty report — clearing the parent's buffered
	// copy under replace-not-merge — before the relay goes silent.
	lastNonEmpty bool
	// built is the subtree state of the last rebuild, retained across
	// epochs and re-sent as long as no input moved (see sendReport);
	// builtSelf is the local contribution (0 or 1) folded into it and
	// builtEmpty whether it carries nothing at all. The node's attrGen
	// and tableGen at that rebuild are kept beside it.
	built      *aggregate.GroupedState
	builtSelf  int64
	builtEmpty bool
	attrGen    uint64
	tableGen   uint64
	// changed marks an input of built that moved since the rebuild: a
	// child slot filed a different state or was dropped, or an install
	// or subscribe touched the entry.
	changed bool
	// claim caches claimStanding's answer for tableGen.
	claim bool
	// dead is set by dropSub; the next epoch walk unlinks the entry from
	// the node's clock without ticking it.
	dead bool
	// due is the entry's next tick instant on the node's epoch clock.
	due time.Duration
	// rebuilds and reuses count the reports built and the reports that
	// re-sent the retained state (see SubInfo).
	rebuilds, reuses uint64
	// gen is the newest renewal round seen (see InstallMsg.Gen);
	// installs from older rounds are ignored.
	gen uint64

	lastRenew time.Duration
	lastDown  time.Duration
}

// handleSubscribe installs or renews a subscription at the tree root.
func (n *Node) handleSubscribe(sm SubscribeMsg) {
	if sm.Period <= 0 {
		return
	}
	ge, err := n.groupOf(sm.Group)
	if err != nil {
		return
	}
	key := subKey{sm.SID, sm.Group}
	sub, ok := n.subs[key]
	if ok && sm.Gen < sub.gen {
		return
	}
	ps := n.getPred(ge)
	ps.becomeRoot()
	if !ok {
		sub = &subState{sid: sm.SID, ge: ge}
		n.subs[key] = sub
		n.tableGen++
	}
	sub.changed = true
	if ok && !sub.root && !sub.orphaned {
		// Promoted to root (the tree key moved onto us): retract our
		// contribution from the old parent's path so the root sample
		// and the old chain never carry it simultaneously.
		n.retract(sub, sub.parent)
	}
	if ok && sub.pulled {
		// An orphan pull routed at the tree key delivers to its owner —
		// which is now us. Drop the buffered self-copy, or the root
		// sample would carry this subtree twice (fresh child reports
		// plus the pulled snapshot) until it staled out.
		sub.kids.remove(n.self)
		sub.pulled = false
	}
	sub.root = true
	sub.orphaned = false
	sub.gen = sm.Gen
	if sm.MinEpoch > sub.epoch {
		// Root failover: continue the stream's epoch numbering where
		// the dead root left off.
		sub.epoch = sm.MinEpoch
	}
	sub.replyTo = sm.ReplyTo
	sub.eval = sm.Eval
	sub.attrKey = sm.Attr
	sub.spec = sm.Spec
	sub.groupBy = sm.GroupBy
	sub.period = sm.Period
	sub.level = 0
	sub.lastRenew = n.env.Now()
	if !ok {
		n.armEpoch(sub)
	}
	// Standing load drives the §4 adaptation machinery exactly like
	// query load, so the tree prunes under pure subscription traffic.
	n.queryLoad(ps, 0)
	n.pushInstalls(sub, ps, n.refreshDue(sub, !ok))
}

// handleInstall registers (or refreshes) a subscription delivered by a
// tree parent, then continues the dissemination to this node's own
// query targets.
func (n *Node) handleInstall(from ids.ID, im InstallMsg) {
	if im.Period <= 0 {
		return
	}
	ge, err := n.groupOf(im.Group)
	if err != nil {
		return
	}
	key := subKey{im.SID, im.Group}
	sub, ok := n.subs[key]
	if ok && im.Gen < sub.gen {
		// A stale renewal round: after a repair, the chains hanging off
		// a dead interior node keep refreshing their old edges until
		// their leases expire — they must not steal children back from
		// the rebuilt tree, nor keep stale leases alive.
		return
	}
	ps := n.getPred(ge)
	if ok && im.Gen > sub.gen {
		// A new renewal round re-assigns tree positions: after a root
		// or interior death the rebuilt tree places this node at a
		// different (usually deeper) level, and keeping the old minimum
		// would leave it claiming a stale, oversized region — its old
		// edges would fight the rebuilt tree for children forever.
		ps.setLevel(im.Level)
	} else if ps.level < 0 || im.Level < ps.level {
		ps.setLevel(im.Level)
	}
	ps.adopt(im.ReplyTo, im.Jump)
	if !ok {
		sub = &subState{sid: im.SID, ge: ge}
		n.subs[key] = sub
		n.tableGen++
	}
	sub.changed = true
	// A repaired adoption — the first install after this node's parent
	// was purged as dead, or a round-advancing re-parenting (the tree
	// was rebuilt around us after a root or interior death) — warrants
	// an eager report below: the retained subtree state re-enters the
	// stream immediately instead of at this node's next tick. Fresh
	// installs and mere parent flips between live installers (tree
	// parent vs SQP jump source) do not, so absent churn the install
	// path emits nothing extra and coalescing equivalence is preserved
	// bit for bit.
	reparented := ok && !sub.root && im.Gen > sub.gen && sub.parent != im.ReplyTo
	adopted := sub.orphaned || reparented
	switch {
	case sub.orphaned && sub.pulled:
		// Adopted after pulling directly to the root: retract the
		// direct copy so the tree path is the contribution's only
		// carrier from here on.
		n.retractRouted(sub)
		sub.pulled = false
	case reparented && !sub.orphaned:
		// A round-advancing re-parenting between live carriers (the
		// tree was rebuilt elsewhere): clear our subtree at the old
		// parent so the two rounds' paths never both count us.
		n.retract(sub, sub.parent)
	}
	sub.orphaned = false
	sub.gen = im.Gen
	// A previous root demoted by a moved tree key keeps reporting to
	// the installer that reached it last.
	sub.root = false
	sub.parent = im.ReplyTo
	sub.eval = im.Eval
	sub.attrKey = im.Attr
	sub.spec = im.Spec
	sub.groupBy = im.GroupBy
	sub.period = im.Period
	sub.level = im.Level
	sub.lastRenew = n.env.Now()
	if !ok {
		n.armEpoch(sub)
	}
	n.queryLoad(ps, 0)
	if adopted {
		n.sendReport(sub, n.env.Now())
	}
	n.pushInstalls(sub, ps, n.refreshDue(sub, !ok))
	n.maybeSendStatus(ps)
}

// refreshDue decides whether this install receipt should cascade a full
// down-tree refresh (new subscription, or the periodic lease renewal)
// rather than only installing newly adopted targets.
func (n *Node) refreshDue(sub *subState, isNew bool) bool {
	now := n.env.Now()
	if isNew || now-sub.lastDown >= n.cfg.SubRenewInterval {
		sub.lastDown = now
		return true
	}
	return false
}

// pushInstalls reconciles a subscription's installed children with the
// current query target set: newcomers are installed immediately and —
// when refresh is set (a renewal-cadence lease refresh) — every current
// target's lease is renewed and departed targets are cancelled.
//
// Departed targets get an explicit CancelMsg ONLY on refresh waves,
// never from the per-message repair reconciles (maybeResyncSubs, the
// per-epoch tick): under churn, target sets flap while the overlay
// heals, and canceling on every flap lets an install wave and a
// cancel-cascade wave chase each other around the tree with the tree's
// whole fan-out as the amplification factor — a self-sustaining message
// explosion. A reconcile instead drops the departed edge silently —
// deleting its buffered report, so any double-count ends with the edge
// — and if the departed child reports again, handleEpochReport rejects
// it with a single cancel, pacing teardown at epoch cadence.
func (n *Node) pushInstalls(sub *subState, ps *predState, refresh bool) {
	targets := n.queryTargets(ps)
	im := InstallMsg{
		SID:     sub.sid,
		Group:   sub.ge.spec.canon,
		Eval:    sub.eval,
		Attr:    sub.attrKey,
		Spec:    sub.spec,
		GroupBy: sub.groupBy,
		Period:  sub.period,
		Gen:     sub.gen,
		ReplyTo: n.self,
	}
	for _, t := range targets {
		if sub.kids.expect(t.ID) || refresh {
			im.Level = t.Level
			im.Jump = t.Jump
			n.send(t.ID, im)
		}
	}
	for i := 0; i < len(sub.kids); {
		id := sub.kids[i].id
		if !sub.kids[i].expected || containsID(targets, id) {
			i++
			continue
		}
		if refresh {
			n.send(id, CancelMsg{SID: sub.sid, Group: sub.ge.spec.canon})
		}
		sub.changed = sub.kids.remove(id) || sub.changed
	}
}

// syncSubs re-reconciles every subscription of a group after its tree
// state changed (a child pruned, un-pruned, or handed off to the SQP),
// so the subscription tree tracks the adaptive group tree between
// renewals.
func (n *Node) syncSubs(ps *predState) {
	if len(n.subs) == 0 {
		return
	}
	for _, sub := range n.subsOf(ps.group.canon) {
		n.pushInstalls(sub, ps, false)
	}
}

// subsOf lists the entries on group canon ("" for all) in (sid, group)
// order, in a scratch slice valid until the next call: a loop that sends
// walks this, never n.subs, so one seed gives one run.
func (n *Node) subsOf(canon string) []*subState {
	out := n.subScratch[:0]
	for _, sub := range n.subs {
		if canon == "" || sub.ge.spec.canon == canon {
			out = append(out, sub)
		}
	}
	slices.SortFunc(out, func(a, b *subState) int {
		return cmp.Or(compareQID(a.sid, b.sid), strings.Compare(a.ge.spec.canon, b.ge.spec.canon))
	})
	n.subScratch = out
	return out
}

// armEpoch puts a new entry on the node's epoch clock. Its ticks fall on
// the period grid (the multiples of the period on the node's clock), so
// every entry with the same period is due at the same instant, and one
// timer event ticks them all: the clock is armed for the earliest due
// instant of the list, and epochWalk ticks everything due, in list
// order, then ships the burst in one outbox flush. Q concurrent standing
// queries sharing a tree edge thus cost one wire batch per epoch on
// both runtimes — on the TCP agent too, where each timer takes the core
// lock in its own turn. The grid is unconditional — independent of
// CoalesceWindow — so toggling coalescing never shifts epoch timing.
func (n *Node) armEpoch(sub *subState) {
	sub.due = nextDue(n.env.Now(), sub.period)
	n.ticking = append(n.ticking, sub)
	if !n.clockArmed || sub.due < n.clockAt {
		n.setClock(sub.due)
	}
}

// nextDue is the first multiple of period after now.
func nextDue(now, period time.Duration) time.Duration {
	return now + period - now%period
}

// setClock (re-)arms the epoch clock for instant at.
func (n *Node) setClock(at time.Duration) {
	n.clockAt, n.clockArmed = at, true
	n.env.Arm(at-n.env.Now(), n.clockFn, &n.clock)
}

// armClock arms the epoch clock for the earliest due entry, or leaves it
// idle when no entry is left.
func (n *Node) armClock() {
	if len(n.ticking) == 0 {
		n.clockArmed = false
		return
	}
	at := n.ticking[0].due
	for _, sub := range n.ticking[1:] {
		at = min(at, sub.due)
	}
	n.setClock(at)
}

// epochWalk is the epoch clock firing: every live entry due by now
// ticks once, in list order (a late timer — the agent's real clock —
// still ticks each entry once), dropped entries leave the list, and the
// clock re-arms for the next due instant. With a zero CoalesceWindow the
// walk holds the outbox and flushes it itself at the end, so the epoch's
// whole burst leaves in one flush with no extra timer event.
func (n *Node) epochWalk() {
	n.clockArmed = false
	if n.closed {
		return
	}
	now := n.env.Now()
	flush := n.cfg.CoalesceWindow == 0 && !n.outboxArmed
	if flush {
		n.outboxArmed = true
	}
	for _, sub := range n.ticking {
		if !sub.dead && sub.due <= now {
			n.epochTick(sub, now)
		}
	}
	live := n.ticking[:0]
	for _, sub := range n.ticking {
		if !sub.dead {
			live = append(live, sub)
		}
	}
	clear(n.ticking[len(live):])
	n.ticking = live
	n.armClock()
	if flush {
		if len(n.outTo) > 0 {
			n.flushOutbox()
		} else {
			n.outboxArmed = false
		}
	}
}

// epochTick is one epoch of one entry: enforce the lease, bring the
// subtree state up to date (local contribution plus the children's
// latest reports) if an input moved, and push it one hop up-tree (or to
// the front-end at the root).
func (n *Node) epochTick(sub *subState, now time.Duration) {
	sub.due = nextDue(now, sub.period)
	if now-sub.lastRenew > n.cfg.SubTTL {
		// Lease expired: the front-end (or our parent) is gone. Drop
		// silently; our own children expire the same way, or faster
		// via the cancel-on-unknown-report path.
		n.dropSub(sub, false)
		return
	}
	sub.epoch++
	n.sendReport(sub, now)
	// Epoch traffic is query traffic for the adaptation policy: record
	// it so trees prune (and statuses flow) under pure standing load.
	// Repair installs are NOT re-derived here: overlay-driven repair is
	// maybeResyncSubs's job (it fires the moment routing state actually
	// changes), and a per-epoch re-derivation turns any oscillation in
	// the adaptive target set into a sustained install/flip war between
	// competing parents — each flip leaving a double-counted report
	// behind for the stale window.
	if ps := sub.ge.ps; ps != nil && n.queryLoad(ps, 0) {
		n.maybeSendStatus(ps)
		n.syncSubs(ps)
	}
}

// sendReport pushes the subscription's current subtree batch — the
// local contribution (if claimed) plus every fresh child report, rebuilt
// only if one of them moved since the retained state was built — one
// hop up-tree, or streams the root sample. epochTick
// calls it once per epoch; handleInstall also calls it eagerly when a
// node is adopted by a new parent, so a subtree repaired after a crash
// re-enters the stream without waiting out a full epoch of pipeline
// refill (its buffered child reports survive the re-parenting).
func (n *Node) sendReport(sub *subState, now time.Duration) {
	// A child's buffered report expires after two silent epochs: one
	// missed delivery is tolerated (jitter, a lost message), but a
	// child that went quiet — crashed, re-parented elsewhere, or handed
	// off — must stop being counted promptly, or its copy double-counts
	// against the subtree's new path.
	stale := 2 * sub.period
	var contrib int64
	for i := 0; i < len(sub.kids); {
		s := &sub.kids[i]
		if s.has && now-s.at > stale {
			aggregate.Recycle(s.state)
			sub.changed = true
			if !s.expected {
				sub.kids = slices.Delete(sub.kids, i, i+1)
				continue
			}
			*s = childSlot{id: s.id, expected: true}
		}
		contrib += s.contrib
		i++
	}
	if sub.changed || sub.attrGen != n.attrGen || sub.tableGen != n.tableGen {
		n.rebuild(sub)
	} else {
		sub.reuses++
	}
	state := sub.built
	contrib += sub.builtSelf
	if sub.root {
		expected := 0.0
		if ps := sub.ge.ps; ps != nil {
			expected = float64(ps.np) + ps.unknown
		}
		state.Retain()
		n.send(sub.replyTo, SampleMsg{
			SID:          sub.sid,
			Group:        sub.ge.spec.canon,
			Epoch:        sub.epoch,
			At:           now,
			State:        state,
			Contributors: contrib,
			Expected:     expected,
		})
		return
	}
	empty := sub.builtEmpty && contrib == 0
	if empty && !sub.lastNonEmpty {
		// Interior hops skip empty batches: a pure relay with nothing
		// to add costs nothing. But a batch that HAD content last time
		// must announce the transition — silently going quiet would
		// leave the parent replaying the stale copy (a subtree whose
		// members re-parented elsewhere would be double-counted for a
		// stale window per tree level).
		return
	}
	sub.lastNonEmpty = !empty
	np, unknown := 0, 0.0
	if ps := sub.ge.ps; ps != nil {
		np, unknown = ps.np, ps.unknown
	}
	em := EpochReportMsg{
		SID:          sub.sid,
		Group:        sub.ge.spec.canon,
		Epoch:        sub.epoch,
		State:        state,
		Contributors: contrib,
		Np:           np,
		Unknown:      unknown,
	}
	state.Retain()
	if sub.orphaned {
		// The uptree chain is severed (parent purged as dead): pull
		// directly to the tree root through the overlay so the subtree
		// stays in the stream while the tree repairs around us.
		sub.pulled = true
		n.overlay.Route(sub.ge.spec.treeKey(), em)
		return
	}
	n.send(sub.parent, em)
}

// rebuild folds the local contribution (if claimed) and every buffered
// child report, in child-id order, into a new subtree state and makes it
// the retained one. The node holds it once for the cache; sendReport
// adds one hold per hand-off (see aggregate.Recycle).
func (n *Node) rebuild(sub *subState) {
	hint := 0
	if old := sub.built; old != nil {
		// Only the cache's hold goes back: reports in flight and the
		// parent's slot keep the old state alive until they let go.
		hint = old.KeyCount()
		aggregate.Recycle(old)
	}
	state := aggregate.NewGroupedSized(sub.spec, n.cfg.MaxGroupKeys, hint)
	state.Retain()
	if sub.tableGen != n.tableGen {
		sub.claim, sub.tableGen = n.claimStanding(sub), n.tableGen
	}
	sub.builtSelf = 0
	if sub.claim && n.evalLocal(sub.ge.ps, sub.eval, sub.ge.spec.canon) {
		sub.builtSelf = 1
		state.AddKeyed(n.self, n.groupKey(sub.groupBy), n.localValue(sub.attrKey))
	}
	sub.kids.fold(state)
	sub.built = state
	sub.builtEmpty = state.Nodes() == 0 && !state.Truncated()
	sub.attrGen, sub.changed = n.attrGen, false
	sub.rebuilds++
}

// retract clears this node's contribution at a previous carrier: an
// empty report replaces — replace-not-merge — whatever partial the old
// path still held, so a re-parented subtree is never counted along two
// paths longer than one delivery.
func (n *Node) retract(sub *subState, to ids.ID) {
	n.send(to, n.emptyReport(sub))
}

// retractRouted clears the direct-to-root copy left by the orphan pull.
func (n *Node) retractRouted(sub *subState) {
	n.overlay.Route(sub.ge.spec.treeKey(), n.emptyReport(sub))
}

func (n *Node) emptyReport(sub *subState) EpochReportMsg {
	return EpochReportMsg{
		SID:   sub.sid,
		Group: sub.ge.spec.canon,
		Epoch: sub.epoch,
		State: aggregate.NewGrouped(sub.spec, n.cfg.MaxGroupKeys),
	}
}

// claimStanding reserves this node's per-epoch contribution for exactly
// one tree of a composite cover: the lexicographically smallest group
// among the node's live subscriptions for the SID (the standing analog
// of §6.2's answered-once cache, but stateless and epoch-free). The
// answer depends only on the subscription table, so rebuild asks once
// per table generation, not once per entry per epoch.
func (n *Node) claimStanding(sub *subState) bool {
	for k := range n.subs {
		if k.sid == sub.sid && k.group < sub.ge.spec.canon {
			return false
		}
	}
	return true
}

// handleEpochReport files a child's per-epoch batch; reports for
// subscriptions this node does not hold are answered with CancelMsg so
// orphans tear down without waiting out the TTL. Routed reports (the
// orphan pull: a severed subtree streaming directly to the tree root)
// are filed the same way but skip the child-cost bookkeeping — the
// sender is not a tree child. A rejected report hands back the state
// hold its message carries.
func (n *Node) handleEpochReport(from ids.ID, em EpochReportMsg, routed bool) {
	sub, ok := n.subs[subKey{em.SID, em.Group}]
	if !ok {
		aggregate.Recycle(em.State)
		n.send(from, CancelMsg{SID: em.SID, Group: em.Group})
		return
	}
	if !routed && !sub.root && from == sub.parent {
		// Mid re-parenting, two nodes can hold each other as parent and
		// child. The parent's report already carries this subtree, so
		// filing it would count the subtree twice for as long as the
		// cycle lasts.
		aggregate.Recycle(em.State)
		return
	}
	i, found := sub.kids.find(from)
	expected := found && sub.kids[i].expected
	if !routed && !sub.root && !expected {
		// A report from a child this node no longer installs: the edge
		// was dropped by a reconcile (tree adaptation or churn repair),
		// and filing the report would double-count a subtree that now
		// reaches the root along another path. Reject it — the child
		// tears down or re-parents; if it was dropped by a transient
		// flap, the next reconcile re-installs it. The root is exempt:
		// it files anything (orphan pulls arrive there unannounced).
		aggregate.Recycle(em.State)
		n.send(from, CancelMsg{SID: em.SID, Group: em.Group})
		return
	}
	if sub.kids.file(i, found, childSlot{id: from, expected: expected, state: em.State,
		contrib: em.Contributors, epoch: em.Epoch, at: n.env.Now()}) {
		sub.changed = true
	}
	if !routed {
		n.noteChildCost(sub.ge.ps, from, em.Np, em.Unknown)
	}
}

// handleCancel tears a subscription down and propagates the cancel to
// every child this node installed or heard from. Direct cancels are
// parent-scoped: only the subscription's current parent (or, at the
// root, the subscribing front-end) may tear it down, so a node handed
// off across an SQP jump ignores the stale cancel its bypassed old
// parent cascades while the new parent's install is in flight. Routed
// cancels (the front-end addressing the tree root through the overlay)
// are always honored.
func (n *Node) handleCancel(from ids.ID, cm CancelMsg, routed bool) {
	sub, ok := n.subs[subKey{cm.SID, cm.Group}]
	if !ok {
		return
	}
	if !routed && !sub.orphaned {
		// Orphans accept a cancel from anyone: their owner is dead, and
		// the likely sender is the tree root rejecting a pulled report
		// for a subscription that no longer exists.
		owner := sub.parent
		if sub.root {
			owner = sub.replyTo
		}
		if from != owner {
			return
		}
	}
	n.dropSub(sub, true)
}

// dropSub removes one subscription entry; cascade forwards the cancel
// to the node's children — installed or merely reporting — in id order.
// The entry stays on the epoch clock's list, marked dead, until the next
// walk unlinks it; the last entry to go stops the clock.
func (n *Node) dropSub(sub *subState, cascade bool) {
	if sub.dead {
		return
	}
	sub.dead = true
	delete(n.subs, subKey{sub.sid, sub.ge.spec.canon})
	n.tableGen++
	if len(n.subs) == 0 {
		n.clock.Stop()
		n.clockArmed = false
		n.ticking = nil
	}
	if !cascade {
		return
	}
	cm := CancelMsg{SID: sub.sid, Group: sub.ge.spec.canon}
	for _, s := range sub.kids {
		n.send(s.id, cm)
	}
}

// ---------------------------------------------------------------------
// The child table, shared by one-shot and standing aggregation

// childSlot is one child of an aggregation. expected marks a child the
// node waits on (an unanswered one-shot target, an installed child); has
// marks a filed partial (a one-shot answer, or the newest epoch report,
// which replaces its predecessor so a child skewing across epochs counts
// once).
type childSlot struct {
	id       ids.ID
	expected bool
	has      bool
	state    aggregate.State
	contrib  int64
	epoch    uint64
	at       time.Duration
}

// childTable holds an aggregation's children in ascending id order: a
// node has a few dozen children at most, so a sorted slice beats a hash
// map, and the order-sensitive merge and every per-child send run in an
// order fixed by the tree, not by map layout or arrival order.
type childTable []childSlot

// find locates child id: its slot index, or where the slot belongs.
func (t childTable) find(id ids.ID) (int, bool) {
	i := sort.Search(len(t), func(i int) bool { return !ids.Less(t[i].id, id) })
	return i, i < len(t) && t[i].id == id
}

// expect marks child id expected, adding its slot if needed, and
// reports whether it was not expected before.
func (t *childTable) expect(id ids.ID) bool {
	i, found := t.find(id)
	if !found {
		*t = slices.Insert(*t, i, childSlot{id: id})
	}
	was := (*t)[i].expected
	(*t)[i].expected = true
	return !was
}

// file stores c (expected flag included) as child c.id's partial at i,
// where find put it. The slot takes over the message's hold and hands
// back the one on the state it displaces. It reports whether the slot
// moved: a partial where there was none, or a different state (a child
// re-sending the state the slot holds only refreshes it).
func (t *childTable) file(i int, found bool, c childSlot) bool {
	if !found {
		*t = slices.Insert(*t, i, childSlot{})
	}
	s := &(*t)[i]
	aggregate.Recycle(s.state)
	moved := !s.has || s.state != c.state
	c.has = true
	*s = c
	return moved
}

// remove forgets child id, edge and partial, and reports whether it held
// a partial (which is not recycled).
func (t *childTable) remove(id ids.ID) bool {
	i, found := t.find(id)
	if !found {
		return false
	}
	had := (*t)[i].has
	*t = slices.Delete(*t, i, i+1)
	return had
}

// waiting reports whether any child is still expected.
func (t childTable) waiting() bool {
	return slices.ContainsFunc(t, func(s childSlot) bool { return s.expected })
}

// fold merges every filed partial into acc, which holds the node's local
// contribution, in ascending child id.
func (t childTable) fold(acc *aggregate.GroupedState) {
	for i := range t {
		if t[i].has && t[i].state != nil {
			_ = acc.Merge(t[i].state)
		}
	}
}

// reset hands back every partial (merges copy, never alias) and empties
// the table, keeping its backing array.
func (t *childTable) reset() {
	for i := range *t {
		aggregate.Recycle((*t)[i].state)
	}
	clear(*t)
	*t = (*t)[:0]
}

// noteChildCost refreshes a child's lazily maintained subtree cost
// (§6.3) in the group state ps (none: nothing to refresh) from the np
// piggybacked on its response or epoch report, which reaches ancestors
// even from NO-UPDATE children.
func (n *Node) noteChildCost(ps *predState, from ids.ID, np int, unknown float64) {
	if ps == nil {
		return
	}
	switch cs, added := ps.children.put(from); {
	case added:
		*cs = childState{id: from, NpOnly: true, Np: np, Unknown: unknown}
		ps.dirty = true
	case cs.NpOnly || !cs.Prune:
		if cs.Np != np || cs.Unknown != unknown {
			cs.Np, cs.Unknown = np, unknown
			ps.dirty = true
		}
	}
	n.recomputeState(ps)
}
