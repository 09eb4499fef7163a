package core

import (
	"cmp"
	"fmt"
	"sync"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/ids"
)

// QueryID uniquely identifies one front-end query across every tree it
// touches; nodes use it to answer exactly once even when a composite
// cover queries them through multiple trees (§6.2).
type QueryID struct {
	Origin ids.ID
	Num    uint64
}

// String renders the query ID.
func (q QueryID) String() string { return fmt.Sprintf("%s#%d", q.Origin.Short(), q.Num) }

// compareQID orders query IDs by origin, then number.
func compareQID(a, b QueryID) int {
	return cmp.Or(ids.Cmp(a.Origin, b.Origin), cmp.Compare(a.Num, b.Num))
}

// SetEntry is one member of an updateSet or qSet: a node plus the
// broadcast level it operates at (so SQP jumps carry enough context for
// the target to enumerate its own structural children).
type SetEntry struct {
	ID    ids.ID
	Level int
	// Jump marks entries reached by bypassing an intermediate node
	// (§5). It is derived locally during recomputation — a child's
	// updateSet entry that is not the child itself — and is not
	// meaningful on the wire.
	Jump bool `json:"-"`
}

// SubQueryMsg is routed through the overlay to the root of one group's
// tree, where dissemination starts. Predicates travel in canonical text
// form and are parsed (with caching) at each node, which keeps every
// message gob-encodable for the TCP transport.
type SubQueryMsg struct {
	QID QueryID
	// Group is the canonical simple predicate whose tree routes this
	// sub-query; "*" selects the unpruned global tree for Attr.
	Group string
	// Eval is the full predicate each node evaluates locally; empty
	// means "same as Group".
	Eval string
	// Attr is the query attribute to aggregate ("*" contributes 1 per
	// node, enabling count(*)).
	Attr string
	// Spec is the aggregation function.
	Spec aggregate.Spec
	// GroupBy names the attribute whose per-node value keys the keyed
	// aggregation; empty for scalar queries.
	GroupBy string
	// ReplyTo receives the tree's aggregated ResponseMsg.
	ReplyTo ids.ID
}

// MsgKind labels the message for accounting.
func (SubQueryMsg) MsgKind() string { return "moara.query" }

// QueryMsg disseminates a query down a group tree (or jumps across the
// separate query plane).
type QueryMsg struct {
	QID   QueryID
	Seq   uint64
	Group string
	Eval  string
	Attr  string
	Spec  aggregate.Spec
	// GroupBy keys the in-tree aggregation (empty for scalar queries):
	// every node contributes under its local value of this attribute and
	// sub-aggregates merge per key on the way up.
	GroupBy string
	Level   int
	ReplyTo ids.ID
	// Jump marks a separate-query-plane shortcut (§5): the receiver
	// was reached by bypassing its tree parent, so it must NOT adopt
	// the sender as its parent — status updates keep flowing along
	// the tree while queries shortcut across it.
	Jump bool
}

// MsgKind labels the message for accounting.
func (QueryMsg) MsgKind() string { return "moara.query" }

// ResponseMsg carries a subtree's partial aggregate back up the query
// path. State is always a *aggregate.GroupedState — the keyed engine
// every query flows through; scalar queries are the single-key special
// case. Np/Unknown piggyback the subtree's query-plane size for lazy
// cost maintenance (§6.3).
type ResponseMsg struct {
	QID   QueryID
	Group string
	State aggregate.State
	Dup   bool
	// Contributors counts the group members in this subtree that
	// answered the query (claimed their contribution), whether or not
	// they held a valid value for the query attribute — the numerator of
	// the answer's completeness accounting. It can exceed State.Nodes()
	// when members lack the attribute.
	Contributors int64
	Np           int
	Unknown      float64
}

// MsgKind labels the message for accounting.
func (ResponseMsg) MsgKind() string { return "moara.resp" }

// StatusMsg is the PRUNE / NO-PRUNE update of §4, extended with the
// SQP updateSet of §5, the lazily maintained subtree cost (np), and the
// last seen query sequence number used by bypassed ancestors to track
// qn (§5, "Adaptation and SQP").
type StatusMsg struct {
	Group string
	// Prune reports the child can be skipped for this group.
	Prune bool
	// UpdateSet lists the nodes the parent should forward queries to
	// on this child's behalf (empty iff Prune).
	UpdateSet []SetEntry
	// Np is the child subtree's NO-PRUNE node count.
	Np int
	// Unknown is the child subtree's estimated population with no
	// recorded state (cost estimation for cold regions).
	Unknown float64
	// LastSeq is the child's last observed query sequence number.
	LastSeq uint64
}

// MsgKind labels the message for accounting.
func (StatusMsg) MsgKind() string { return "moara.status" }

// ProbeMsg asks a group tree's root for the current query cost; it is
// routed via the overlay to the root (§6.3 "size probes").
type ProbeMsg struct {
	QID     QueryID
	Group   string
	Attr    string
	ReplyTo ids.ID
}

// MsgKind labels the message for accounting.
func (ProbeMsg) MsgKind() string { return "moara.probe" }

// ProbeRespMsg answers a size probe with the estimated message cost of
// querying the group (2·np, or a system-size-based estimate for cold
// trees).
type ProbeRespMsg struct {
	QID   QueryID
	Group string
	Cost  float64
}

// MsgKind labels the message for accounting.
func (ProbeRespMsg) MsgKind() string { return "moara.probe" }

// ---------------------------------------------------------------------
// Standing queries (install-once, epoch-driven re-aggregation)

// SubscribeMsg installs (or renews) a standing query at one group
// tree's root. It is routed through the overlay like SubQueryMsg; the
// root then disseminates the subscription down-tree with InstallMsg.
// The front-end re-sends it periodically as a liveness renewal, which
// also re-installs the subscription if the tree root moved.
type SubscribeMsg struct {
	// SID identifies the subscription (unique per origin front-end).
	SID QueryID
	// Group is the canonical group predicate whose tree carries the
	// subscription; "*:<attr>" selects the global tree.
	Group string
	// Eval is the full predicate each member evaluates per epoch;
	// empty means "same as Group".
	Eval string
	// Attr is the query attribute re-read every epoch.
	Attr string
	// Spec is the aggregation function.
	Spec aggregate.Spec
	// GroupBy keys the per-epoch in-tree aggregation (empty = scalar).
	GroupBy string
	// Period is the epoch length.
	Period time.Duration
	// Gen is the front-end's renewal round counter. Installs cascade it
	// down-tree; a node ignores installs older than the newest round it
	// has seen, so after a tree repair the stale chains hanging off a
	// dead interior node cannot keep stealing children from the rebuilt
	// tree (see InstallMsg.Gen).
	Gen uint64
	// MinEpoch is the newest root epoch the front-end has seen for this
	// tree. A root taking over after a failover fast-forwards its epoch
	// counter past it, keeping Sample.RootEpoch monotone across root
	// deaths — a backward jump in the delivered stream always means a
	// real fault, never a failover.
	MinEpoch uint64
	// ReplyTo is the front-end that receives one SampleMsg per epoch.
	ReplyTo ids.ID
}

// MsgKind labels the message for accounting.
func (SubscribeMsg) MsgKind() string { return "moara.install" }

// InstallMsg disseminates a subscription down a group tree, parent to
// child (or across an SQP jump). It is re-sent as a periodic down-tree
// liveness refresh, and immediately to nodes that newly enter the
// sender's query target set, so the subscription tree tracks the
// adaptive group tree without re-dissemination per epoch.
type InstallMsg struct {
	SID     QueryID
	Group   string
	Eval    string
	Attr    string
	Spec    aggregate.Spec
	GroupBy string
	Period  time.Duration
	// Gen is the renewal round this install belongs to (cascaded from
	// SubscribeMsg.Gen). A receiver drops installs from older rounds —
	// after a root or interior death, the orphaned old chain keeps
	// refreshing its stale edges until its leases expire, and without
	// the round gate those refreshes would fight the repaired tree for
	// children indefinitely. A round-advancing install that changes the
	// parent also retracts the child's contribution from the old parent
	// (an empty replace-semantics report), so a member is never carried
	// along two paths across rounds.
	Gen   uint64
	Level int
	// Jump marks a separate-query-plane shortcut: the receiver was
	// reached by bypassing its tree parent (§5); epoch reports flow
	// back along the shortcut.
	Jump bool
	// ReplyTo is the installing node — where the receiver's per-epoch
	// reports go.
	ReplyTo ids.ID
}

// MsgKind labels the message for accounting.
func (InstallMsg) MsgKind() string { return "moara.install" }

// EpochReportMsg pushes one subtree's per-epoch partial aggregate up
// the subscription tree — the standing-query analog of ResponseMsg,
// carrying the same keyed GroupedState payloads, but without any
// downward dissemination: one message per tree edge per epoch.
type EpochReportMsg struct {
	SID   QueryID
	Group string
	// Epoch is the sender's local epoch counter (observability only;
	// parents batch whatever reports arrived since their last tick).
	Epoch uint64
	// State is the subtree's keyed partial aggregate.
	State aggregate.State
	// Contributors counts the subtree members folded into State this
	// epoch (including attribute-less members), like
	// ResponseMsg.Contributors.
	Contributors int64
	// Np/Unknown piggyback the subtree's query-plane size, like
	// ResponseMsg: lazy cost maintenance (§6.3) keeps working — and
	// cover re-probes stay meaningful — under pure standing load.
	Np      int
	Unknown float64
}

// MsgKind labels the message for accounting.
func (EpochReportMsg) MsgKind() string { return "moara.epoch" }

// SampleMsg streams one epoch's aggregate from a group tree's root to
// the subscribing front-end.
type SampleMsg struct {
	SID   QueryID
	Group string
	Epoch uint64
	// At is the root's clock at emission; on a shared clock (the
	// simulator) the front-end derives the delivery lag from it.
	At time.Duration
	// State is the whole tree's keyed aggregate for the epoch.
	State aggregate.State
	// Contributors counts the members that reached this epoch's
	// aggregate (see ResponseMsg.Contributors).
	Contributors int64
	// Expected is the root's estimate of the population its tree
	// currently reaches (np + cold-region estimate); with Contributors
	// it gives the sample's completeness indicator.
	Expected float64
}

// MsgKind labels the message for accounting.
func (SampleMsg) MsgKind() string { return "moara.sample" }

// CancelMsg tears a subscription down. The front-end routes it through
// the overlay to each group tree's root; nodes forward it parent to
// child; and any node receiving an EpochReportMsg or SampleMsg for a
// subscription it does not hold answers with one, so orphaned state
// self-destructs ahead of the idle-timeout GC.
type CancelMsg struct {
	SID   QueryID
	Group string
}

// MsgKind labels the message for accounting.
func (CancelMsg) MsgKind() string { return "moara.cancel" }

// ---------------------------------------------------------------------
// Wire coalescing

// BatchMsg is a coalesced bundle of messages for one destination: the
// per-destination outbox collects everything a node emits to the same
// neighbor within Config.CoalesceWindow and ships it as one wire
// message. Receivers unpack transparently (Node.Handle dispatches each
// item in order), and message accounting counts the items as logical
// messages while the batch itself counts once as a wire message — Q
// standing queries sharing a tree edge cost one wire message per epoch.
type BatchMsg struct {
	Items []any
}

// MsgKind labels the batch envelope for wire-level accounting; the
// items inside keep their own kinds for logical accounting.
func (BatchMsg) MsgKind() string { return "moara.batch" }

// Unpack exposes the bundled messages (simnet.Batch); the simulator
// uses it to count logical messages inside one wire transmission.
func (b BatchMsg) Unpack() []any { return b.Items }

// Release hands the batch's item buffer back to the free list the
// outbox and the batch decoder draw from. Call it once nothing reads the
// batch again: Node.Handle does after dispatching the items, and the TCP
// agent after writing the frame (after handing back the items' state
// holds, which Release does not touch). A batch that is never released
// leaves its buffer to the garbage collector.
func (b BatchMsg) Release() { putBatchBuf(b.Items) }

// batchBufs is the free list of BatchMsg item buffers, shared by every
// node in the process: a sender fills a buffer and its receiver, on the
// sharded simulator often another goroutine, empties it.
var batchBufs struct {
	sync.Mutex
	free [][]any
}

// maxBatchBufs bounds the free list; buffers past it go to the GC. An
// epoch burst puts one buffer per sending node in flight at once, so the
// bound sits well above the simulated populations (10k nodes).
const maxBatchBufs = 1 << 16

// takeBatchBuf returns an empty buffer with room for n items, from the
// free list when its newest buffer is large enough.
func takeBatchBuf(n int) []any {
	batchBufs.Lock()
	if k := len(batchBufs.free); k > 0 && cap(batchBufs.free[k-1]) >= n {
		b := batchBufs.free[k-1]
		batchBufs.free[k-1] = nil
		batchBufs.free = batchBufs.free[:k-1]
		batchBufs.Unlock()
		return b
	}
	batchBufs.Unlock()
	return make([]any, 0, n)
}

// putBatchBuf clears b, so the list pins no message, and files it.
func putBatchBuf(b []any) {
	if cap(b) == 0 {
		return
	}
	clear(b)
	batchBufs.Lock()
	if len(batchBufs.free) < maxBatchBufs {
		batchBufs.free = append(batchBufs.free, b[:0])
	}
	batchBufs.Unlock()
}
