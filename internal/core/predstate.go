package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/predicate"
)

// globalGroupPrefix marks the synthetic "all nodes" group used when a
// query has no predicate: the tree is keyed by the query attribute and
// never prunes, which is exactly the paper's default global aggregation.
const globalGroupPrefix = "*:"

// groupSpec describes one group: a simple predicate, or the global
// pseudo-group for an attribute.
type groupSpec struct {
	canon string
	attr  string           // tree attribute (hashes to the tree key)
	expr  predicate.Expr   // nil for the global pseudo-group
	sim   predicate.Simple // valid when expr != nil
}

// globalGroup builds the pseudo-group spanning all nodes for attr.
func globalGroup(attr string) groupSpec {
	return groupSpec{canon: globalGroupPrefix + attr, attr: attr}
}

// simpleGroup builds the group named by one simple predicate.
func simpleGroup(s predicate.Simple) groupSpec {
	return groupSpec{canon: s.Canon(), attr: s.Attr, expr: s, sim: s}
}

// parseGroupSpec reconstructs a groupSpec from its canonical wire form.
func parseGroupSpec(canon string) (groupSpec, error) {
	if attr, ok := strings.CutPrefix(canon, globalGroupPrefix); ok {
		return globalGroup(attr), nil
	}
	e, err := predicate.ParseExpr(canon)
	if err != nil {
		return groupSpec{}, fmt.Errorf("core: bad group %q: %w", canon, err)
	}
	s, ok := e.(predicate.Simple)
	if !ok {
		return groupSpec{}, fmt.Errorf("core: group %q is not a simple predicate", canon)
	}
	return simpleGroup(s), nil
}

// treeKey returns the DHT key of the group's aggregation tree: the MD5
// hash of the group attribute (§3.2).
func (g groupSpec) treeKey() ids.ID { return ids.FromKey(g.attr) }

// eventKind is one entry of the adaptation policy's sliding window.
type eventKind uint8

const (
	// evQueryIn: a query was processed while this node's updateSet
	// contained its own ID (the paper's qs counter).
	evQueryIn eventKind = iota
	// evQueryOut: a query was processed (anywhere in the system) while
	// this node's updateSet did not contain its ID (qn).
	evQueryOut
	// evChange: sat toggled or the updateSet changed (c).
	evChange
)

// childState is the last status a child reported for one group.
// NpOnly entries carry cost information piggybacked on query responses
// (§6.3) from children that have never sent a status update: the child
// must still receive every query, but its subtree cost is known.
type childState struct {
	Prune     bool
	UpdateSet []SetEntry
	Np        int
	Unknown   float64
	NpOnly    bool
	// mark is recompute's structural-membership pass stamp (replaces a
	// per-call set allocation on the epoch-report hot path).
	mark int
}

// predState is the per-(node, group) state of §4 and §5.
type predState struct {
	group groupSpec

	// level is this node's depth in the group tree's broadcast
	// structure, learned from the first query received; -1 = unknown.
	level int
	// parent is the node that forwards queries to us for this group.
	parent    ids.ID
	hasParent bool

	// children holds the last reported status per child (structural or
	// adopted). Structural children with no entry are treated as
	// NO-PRUNE with updateSet {child}, per Procedure 1's default.
	children map[ids.ID]*childState

	satLocal bool
	sat      bool
	update   bool
	prune    bool

	// qSet is the set of nodes queries are forwarded to (§5),
	// including self when the local predicate holds.
	qSet []SetEntry
	// updateSet is what UPDATE mode advertises to the parent: qSet if
	// |qSet| < threshold, else {self}.
	updateSet []SetEntry

	lastSentValid bool
	lastSentPrune bool
	lastSentSet   []SetEntry

	// events[:nev] is the sliding window feeding the policy, oldest
	// first: the newest maxWindow events, held inline.
	events [maxWindow]eventKind
	nev    int
	// lastSeq is the newest query sequence number observed, directly
	// or via child status piggybacks.
	lastSeq uint64
	// seqCounter allocates sequence numbers (root only).
	seqCounter uint64

	// np is the subtree's NO-PRUNE (query-receiving) node count;
	// unknown estimates the population of stateless regions.
	np      int
	unknown float64

	lastActive time.Duration

	// Recompute scratch: qsetSpare double-buffers the qSet backing (the
	// previous generation's buffer is rebuilt into while the current
	// qSet/updateSet stay readable), selfBuf double-buffers the
	// {self}-singleton updateSet, pass stamps childState.mark, and
	// adoptedSpare collects the adopted children to sort.
	qsetSpare    []SetEntry
	adoptedSpare []ids.ID
	selfBuf      [2][1]SetEntry
	selfFlip     int
	pass         int

	// dirty marks that a recompute input changed (children statuses,
	// satLocal, level, the update flag); cleanGen is the overlay
	// generation the last recompute ran against. recomputeState skips
	// the walk entirely when the state is clean at the current
	// generation — identical inputs reproduce identical outputs and a
	// false change report, so the skip is observationally equivalent.
	dirty    bool
	cleanGen int
}

const maxWindow = 16

func newPredState(g groupSpec) *predState {
	return &predState{
		group:    g,
		level:    -1,
		children: make(map[ids.ID]*childState),
		dirty:    true,
		cleanGen: -1,
	}
}

// evalLocal updates satLocal from the node's attribute store and
// reports whether it changed.
func (ps *predState) evalLocal(g predicate.Getter) bool {
	sat := true
	if ps.group.expr != nil {
		sat = ps.group.expr.Eval(g)
	}
	changed := sat != ps.satLocal
	ps.satLocal = sat
	if changed {
		ps.dirty = true
	}
	return changed
}

// recompute derives qSet, updateSet, sat, prune, np and unknown from
// current children state and structural targets. It reports whether the
// observable state (sat or updateSet) changed — the paper's "c" events.
func (ps *predState) recompute(structural []pastry.BroadcastTarget, threshold int, self ids.ID, regionEst func(level int) float64) (changed bool) {
	ps.pass++
	qset := ps.qsetSpare[:0]
	np := 0
	unknown := 0.0
	addChild := func(qs []SetEntry, id ids.ID, level int, cs *childState) []SetEntry {
		switch {
		case cs == nil:
			// Procedure 1 default: an unreported child must keep
			// receiving queries.
			qs = append(qs, SetEntry{ID: id, Level: level})
			unknown += regionEst(level)
		case cs.NpOnly:
			// No status yet, but responses told us the subtree cost.
			qs = append(qs, SetEntry{ID: id, Level: level})
			np += cs.Np
			unknown += cs.Unknown
		case cs.Prune:
			// skip
		default:
			for _, e := range cs.UpdateSet {
				// Entries other than the child itself are SQP
				// shortcuts around it.
				qs = append(qs, SetEntry{ID: e.ID, Level: e.Level, Jump: e.ID != id})
			}
			np += cs.Np
			unknown += cs.Unknown
		}
		return qs
	}
	for _, bt := range structural {
		cs := ps.children[bt.ID]
		if cs != nil {
			cs.mark = ps.pass
		}
		qset = addChild(qset, bt.ID, bt.Level, cs)
	}
	// Adopted (non-structural) children that reported state, in id
	// order (the childTable order): qSet is the send order of
	// disseminate and pushInstalls and the updateSet the parent
	// compares, so it must not follow map order. NpOnly records are
	// cost caches from response piggybacks — often SQP grandchildren —
	// and must not become query targets here.
	adopted := ps.adoptedSpare[:0]
	for id, cs := range ps.children {
		if cs != nil && cs.mark != ps.pass && !cs.NpOnly {
			adopted = append(adopted, id)
		}
	}
	if len(adopted) > 1 {
		slices.SortFunc(adopted, ids.Cmp)
	}
	for _, id := range adopted {
		cs := ps.children[id]
		qset = addChild(qset, id, maxLevel(cs.UpdateSet, ps.level), cs)
	}
	ps.adoptedSpare = adopted
	if ps.satLocal {
		qset = append(qset, SetEntry{ID: self, Level: ps.level})
	}
	qset = dedupeEntries(qset)

	// Decide the new updateSet without clobbering the current one: the
	// change test below still needs it, and the new set is built in
	// buffers disjoint from everything the current generation can
	// reference.
	var newSet []SetEntry
	if len(qset) < threshold {
		newSet = qset
	} else {
		ps.selfFlip ^= 1
		buf := &ps.selfBuf[ps.selfFlip]
		buf[0] = SetEntry{ID: self, Level: ps.level}
		newSet = buf[:]
	}
	newSat := len(qset) > 0
	changed = newSat != ps.sat || !equalEntries(newSet, ps.updateSet)

	// Commit; the displaced qSet backing becomes the next rebuild's
	// scratch buffer.
	ps.qsetSpare = ps.qSet[:0]
	ps.qSet = qset
	ps.sat = newSat
	ps.updateSet = newSet
	// Self receives queries when it is advertised (or when the policy
	// keeps it in NO-UPDATE, handled by wireView).
	if containsID(ps.updateSet, self) || !ps.update {
		np++
	}
	ps.np = np
	ps.unknown = unknown
	ps.prune = ps.update && !ps.sat
	return changed
}

// wireView is what the parent should currently believe: NO-UPDATE nodes
// promise NO-PRUNE with updateSet {self} so they keep receiving queries
// (§4's invariant; §5's UPDATE→NO-UPDATE handoff).
func (ps *predState) wireView(self ids.ID) (prune bool, set []SetEntry) {
	if !ps.update {
		return false, []SetEntry{{ID: self, Level: ps.level}}
	}
	if ps.prune {
		return true, nil
	}
	return false, ps.updateSet
}

// recordEvent appends to the sliding window, forgetting the oldest
// event once it holds maxWindow.
func (ps *predState) recordEvent(k eventKind) {
	if ps.nev == maxWindow {
		copy(ps.events[:], ps.events[1:])
		ps.nev--
	}
	ps.events[ps.nev] = k
	ps.nev++
}

// recordQueryEvent classifies a processed query as qs or qn by whether
// the advertised updateSet contains this node (§5's generalization of
// SAT/NO-SAT).
func (ps *predState) recordQueryEvent(self ids.ID) {
	if containsID(ps.updateSet, self) {
		ps.recordEvent(evQueryIn)
	} else {
		ps.recordEvent(evQueryOut)
	}
}

// counters computes (qn, qs, c) over the mode-dependent recent window:
// the newest k events, k clamped to [0, maxWindow].
func (ps *predState) counters(kUpdate, kNoUpdate int) (qn, qs, c int) {
	k := kNoUpdate
	if ps.update {
		k = kUpdate
	}
	k = min(max(k, 0), ps.nev)
	for _, e := range ps.events[ps.nev-k : ps.nev] {
		switch e {
		case evQueryIn:
			qs++
		case evQueryOut:
			qn++
		case evChange:
			c++
		}
	}
	return qn, qs, c
}

// runPolicy applies Procedure 2's transition rule and reports whether
// the update flag flipped. Mode pins the flag for the baselines.
func (ps *predState) runPolicy(mode Mode, kUpdate, kNoUpdate int) (flipped bool) {
	old := ps.update
	switch mode {
	case ModeAlwaysUpdate:
		ps.update = true
	case ModeGlobal:
		ps.update = false
	default:
		qn, _, c := ps.counters(kUpdate, kNoUpdate)
		switch {
		case 2*qn < c:
			ps.update = false
		case 2*qn > c:
			ps.update = true
		}
	}
	ps.prune = ps.update && !ps.sat
	if ps.update != old {
		// The update flag feeds recompute's np self-count.
		ps.dirty = true
		return true
	}
	return false
}

// nextSeq allocates a root-side query sequence number.
func (ps *predState) nextSeq() uint64 {
	ps.seqCounter++
	if ps.seqCounter > ps.lastSeq {
		ps.lastSeq = ps.seqCounter
	}
	return ps.seqCounter
}

// observeSeq accounts for queries the node missed while pruned or
// bypassed, revealed by the sequence number of a query it did receive
// (§4). It returns how many missed-query events were recorded; the
// received query itself is recorded separately.
func (ps *predState) observeSeq(seq uint64, self ids.ID) int {
	if seq <= ps.lastSeq {
		return 0
	}
	missed := int(seq - ps.lastSeq - 1)
	ps.lastSeq = seq
	return ps.recordMissed(missed, self)
}

// learnSeq accounts for queries revealed by a child's status piggyback:
// the system has processed up to seq, none of which this node saw
// directly (§5 "Adaptation and SQP").
func (ps *predState) learnSeq(seq uint64, self ids.ID) int {
	if seq <= ps.lastSeq {
		return 0
	}
	missed := int(seq - ps.lastSeq)
	ps.lastSeq = seq
	return ps.recordMissed(missed, self)
}

func (ps *predState) recordMissed(missed int, self ids.ID) int {
	if missed > maxWindow {
		missed = maxWindow
	}
	for i := 0; i < missed; i++ {
		ps.recordQueryEvent(self)
	}
	return missed
}

// setLevel records the node's tree depth, marking recompute state
// dirty when it actually changes.
func (ps *predState) setLevel(level int) {
	if ps.level != level {
		ps.level = level
		ps.dirty = true
	}
}

// touch refreshes the GC clock.
func (ps *predState) touch(now time.Duration) { ps.lastActive = now }

func containsID(set []SetEntry, id ids.ID) bool {
	for _, e := range set {
		if e.ID == id {
			return true
		}
	}
	return false
}

func equalEntries(a, b []SetEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// dedupeEntries keeps the first occurrence of each ID, in place. Small
// sets (the overwhelmingly common case: fan-out per level is bounded by
// the routing radix) dedup by linear scan; only genuinely large sets
// pay for a map.
func dedupeEntries(s []SetEntry) []SetEntry {
	if len(s) <= 1 {
		return s
	}
	if len(s) <= 64 {
		out := s[:0]
		for _, e := range s {
			dup := false
			for _, o := range out {
				if o.ID == e.ID {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, e)
			}
		}
		return out
	}
	seen := make(map[ids.ID]bool, len(s))
	out := s[:0]
	for _, e := range s {
		if !seen[e.ID] {
			seen[e.ID] = true
			out = append(out, e)
		}
	}
	return out
}

func maxLevel(set []SetEntry, fallback int) int {
	lvl := fallback
	for _, e := range set {
		if e.Level > lvl {
			lvl = e.Level
		}
	}
	if lvl < 0 {
		return 0
	}
	return lvl
}
