package pastry

import (
	"time"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/simnet"
)

// leafSetSize is the number of leaf-set entries kept per side.
const leafSetSize = 8

// Config tunes an overlay node.
type Config struct {
	// HeartbeatEvery enables leaf-set liveness probing when > 0.
	// Large-scale simulations leave it disabled, mirroring the paper's
	// exclusion of DHT maintenance traffic.
	HeartbeatEvery time.Duration
	// HeartbeatMiss is the number of consecutive missed heartbeats
	// after which a neighbor is declared dead (default 3).
	HeartbeatMiss int
}

func (c Config) withDefaults() Config {
	if c.HeartbeatMiss == 0 {
		c.HeartbeatMiss = 3
	}
	return c
}

// DeliverFunc receives payloads routed to this node as the key's owner.
type DeliverFunc func(key ids.ID, payload any)

// Node is one overlay participant. It is not safe for concurrent use;
// drive it from a single goroutine (the simulator loop or a per-node
// serialization layer).
type Node struct {
	env  simnet.Env
	cfg  Config
	self ids.ID

	rt   RoutingTable
	leaf *LeafSet

	// Deliver is invoked when a routed payload reaches its key's owner.
	Deliver DeliverFunc
	// OnNodeRemoved is invoked whenever a node is purged from routing
	// state — by local heartbeat detection or by a gossiped obituary.
	// The Moara layer hooks it to drop per-group child state and
	// standing-subscription reports for the dead node, so a stale
	// partial aggregate can never be merged past the purge.
	OnNodeRemoved func(dead ids.ID)

	hbMisses map[ids.ID]int
	hbRound  int
	hb       simnet.Timer
	hbOn     bool
	join     simnet.Timer
	joined   bool
	gen      int
	// estCache memoizes EstimateSize against the leaf-set version: the
	// adaptation layer consults the estimate per unreported child per
	// recompute, far more often than the leaf set changes.
	estCache   float64
	estVersion int
	// ksCache memoizes knownSample against the (routing table, leaf
	// set) versions: the anti-entropy tick and the obituary flood
	// enumerate known peers far more often than routing state changes.
	// Rebuilds allocate fresh so in-flight gossip holding the previous
	// sample stays intact.
	ksCache []ids.ID
	ksRT    int
	ksLeaf  int
	// dead holds death certificates: recently failed nodes that must
	// not be re-learned from stale gossip.
	dead map[ids.ID]time.Duration
	// announced tracks which peers this node has introduced itself to,
	// so discovery gossip converges instead of looping.
	announced map[ids.ID]bool
}

// New creates an overlay node bound to env.
func New(env simnet.Env, cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		env:        env,
		cfg:        cfg,
		self:       env.Self(),
		leaf:       NewLeafSet(env.Self(), leafSetSize),
		estVersion: -1,
		hbMisses:   make(map[ids.ID]int),
		dead:       make(map[ids.ID]time.Duration),
		announced:  make(map[ids.ID]bool),
	}
	return n
}

// Self returns the node's identifier.
func (n *Node) Self() ids.ID { return n.self }

// Close stops background timers.
func (n *Node) Close() {
	n.stopHeartbeats()
	n.join.Stop()
}

// ---------------------------------------------------------------------
// Messages

// RouteMsg carries an application payload toward the owner of Key.
type RouteMsg struct {
	Key     ids.ID
	Payload any
	Hops    int
	// Maint marks overlay-maintenance payloads (slot repair), keeping
	// their hops out of the query-layer route accounting.
	Maint bool
}

// MsgKind labels the message for accounting.
func (m RouteMsg) MsgKind() string {
	if m.Maint {
		return "overlay.maint"
	}
	return "overlay.route"
}

// JoinRequest is routed toward the joiner's ID, accumulating routing
// rows from every hop.
type JoinRequest struct {
	Joiner ids.ID
	Rows   []ids.ID // flattened candidate entries collected en route
	Hops   int
}

// MsgKind labels the message for accounting.
func (JoinRequest) MsgKind() string { return "overlay.join" }

// JoinReply returns accumulated state to the joiner.
type JoinReply struct {
	Rows []ids.ID
	Leaf []ids.ID
}

// MsgKind labels the message for accounting.
func (JoinReply) MsgKind() string { return "overlay.join" }

// Announce tells existing nodes about a newly joined node.
type Announce struct {
	ID ids.ID
}

// MsgKind labels the message for accounting.
func (Announce) MsgKind() string { return "overlay.announce" }

// AnnounceAck shares the receiver's neighbors back with the announcer.
type AnnounceAck struct {
	Known []ids.ID
}

// MsgKind labels the message for accounting.
func (AnnounceAck) MsgKind() string { return "overlay.announce" }

// Heartbeat probes a leaf-set neighbor.
type Heartbeat struct{ Ack bool }

// MsgKind labels the message for accounting.
func (Heartbeat) MsgKind() string { return "overlay.hb" }

// Obituary gossips a death certificate: the node that detects a failure
// (heartbeat misses on a leaf-set neighbor) floods it to its known
// peers; each receiver purges the dead node from routing state and
// forwards the obituary exactly once, so the purge that §7 delegates to
// FreePastry propagates cluster-wide through the liveness path instead
// of requiring global knowledge.
type Obituary struct {
	Dead ids.ID
}

// MsgKind labels the message for accounting.
func (Obituary) MsgKind() string { return "overlay.obit" }

// RepairProbe seeks a replacement for a purged routing-table slot: it is
// routed toward the dead node's identifier, so it lands on the ring
// region the corpse used to own — exactly the neighborhood (and, for
// broadcast trees, the orphaned subtree) the prober lost reachability
// to. The region's new owner introduces itself and its neighbors back
// to the prober, refilling the slot without waiting for background
// gossip.
type RepairProbe struct {
	Origin ids.ID
}

// MsgKind labels the message for accounting (overlay maintenance, like
// the obituary flood — not query-layer traffic).
func (RepairProbe) MsgKind() string { return "overlay.repair" }

// ---------------------------------------------------------------------
// Routing

// NextHop computes the next overlay hop toward key. self=true means this
// node is the key's owner (root).
func (n *Node) NextHop(key ids.ID) (next ids.ID, self bool) {
	if key == n.self {
		return n.self, true
	}
	// Leaf-set range: deliver to the numerically closest member.
	if n.leaf.Covers(key) {
		c := n.leaf.Closest(key)
		if c == n.self {
			return n.self, true
		}
		return c, false
	}
	l := ids.CommonPrefixLen(n.self, key)
	if e := n.rt.Get(l, key.Digit(l)); !e.IsZero() {
		return e, false
	}
	// Rare case: scan all known nodes for one strictly closer to key
	// with at least the same prefix length.
	best := n.self
	consider := func(x ids.ID) {
		if ids.CommonPrefixLen(x, key) >= l && ids.CloserToKey(key, x, best) {
			best = x
		}
	}
	for _, x := range n.rt.Entries() {
		consider(x)
	}
	for _, x := range n.leaf.Members() {
		consider(x)
	}
	if best == n.self {
		return n.self, true
	}
	return best, false
}

// Route sends payload toward the owner of key, delivering locally when
// this node is the owner.
func (n *Node) Route(key ids.ID, payload any) {
	n.routeMsg(RouteMsg{Key: key, Payload: payload})
}

func (n *Node) routeMsg(m RouteMsg) {
	next, isSelf := n.NextHop(m.Key)
	if isSelf {
		if rp, ok := m.Payload.(RepairProbe); ok {
			n.handleRepairProbe(rp)
			return
		}
		if n.Deliver != nil {
			n.Deliver(m.Key, m.Payload)
		}
		return
	}
	m.Hops++
	if m.Hops > ids.Digits+2*leafSetSize {
		// Routing loop under pathological state; drop.
		return
	}
	n.env.Send(next, m)
}

// BroadcastTarget is one child edge in the prefix-constrained broadcast
// tree: the recipient and the level it becomes responsible for.
type BroadcastTarget struct {
	ID    ids.ID
	Level int
}

// BroadcastTargets enumerates this node's children when it participates
// in a broadcast at the given level: every routing-table entry in rows
// >= level. With complete tables the targets partition the node's
// region of the identifier space, so a broadcast from a tree root
// reaches every live node exactly once.
//
// Under churn, tables are only eventually complete, and a node can be
// known solely by its ring neighbors while the routing slot that should
// delegate its sub-region sits empty — silently excluding it from every
// dissemination. The leaf-set backstop closes exactly that hole: a leaf
// member inside this node's region whose slot is empty is covered
// directly. With complete tables the slot is never empty (the member
// itself is a candidate), so the backstop adds no edges and the exact
// partition — and every message-cost property built on it — is
// unchanged.
func (n *Node) BroadcastTargets(level int) []BroadcastTarget {
	var out []BroadcastTarget
	for r := level; r < ids.Digits; r++ {
		row := n.rt.rows[r]
		if row == nil {
			continue
		}
		for _, id := range row {
			if id.IsZero() || id == n.self {
				continue
			}
			out = append(out, BroadcastTarget{ID: id, Level: r + 1})
		}
	}
	var backstopped map[[2]int]bool
	for _, m := range n.leaf.Members() {
		l := ids.CommonPrefixLen(n.self, m)
		if l < level || !n.rt.Get(l, m.Digit(l)).IsZero() {
			continue
		}
		// One backstop target per empty slot: a second leaf member of
		// the same region lies inside the first one's dissemination
		// region and would be double-covered.
		slot := [2]int{l, m.Digit(l)}
		if backstopped[slot] {
			continue
		}
		if backstopped == nil {
			backstopped = make(map[[2]int]bool)
		}
		backstopped[slot] = true
		out = append(out, BroadcastTarget{ID: m, Level: l + 1})
	}
	return out
}

// deadTTL is how long a death certificate blocks re-installation.
const deadTTL = time.Minute

// Install adds a known-live node to routing state. Recently failed
// nodes are rejected so stale gossip cannot resurrect them.
func (n *Node) Install(id ids.ID) {
	if at, isDead := n.dead[id]; isDead {
		if n.env.Now()-at < deadTTL {
			return
		}
		delete(n.dead, id)
	}
	a := n.rt.Install(n.self, id)
	b := n.leaf.Install(id)
	if a || b {
		n.gen++
	}
}

// RemoveNode purges a failed node from routing state and notifies the
// application layer. The notification fires even when the node held no
// routing entry: the application may track peers (tree children, SQP
// jump targets) the overlay does not.
func (n *Node) RemoveNode(dead ids.ID) {
	a := n.rt.Remove(n.self, dead)
	b := n.leaf.Remove(dead)
	delete(n.hbMisses, dead)
	delete(n.announced, dead)
	if a || b {
		n.gen++
	}
	if a && n.joined {
		// The purged slot covered a region of the identifier space this
		// node can no longer reach — for a broadcast tree, an orphaned
		// subtree. Probe the dead node's ring region for a live
		// replacement instead of waiting for background gossip.
		n.routeMsg(RouteMsg{Key: dead, Payload: RepairProbe{Origin: n.self}, Maint: true})
	}
	if n.OnNodeRemoved != nil {
		n.OnNodeRemoved(dead)
	}
}

// handleRepairProbe answers a slot-repair probe as the new owner of the
// dead node's region: introduce ourselves first-hand (refilling the
// prober's slot when our prefix matches) and share our neighborhood —
// the corpse's old leaf set, i.e. its orphans — so the prober can pick
// whichever candidate fits the slot.
func (n *Node) handleRepairProbe(rp RepairProbe) {
	if rp.Origin == n.self {
		return
	}
	n.env.Send(rp.Origin, Announce{ID: n.self})
	n.env.Send(rp.Origin, AnnounceAck{Known: n.knownSample()})
}

// Gen is a generation counter bumped on every routing-state change;
// callers use it to invalidate caches derived from the table.
func (n *Node) Gen() int { return n.gen }

// EstimateSize estimates the total overlay population from leaf-set
// density: the leaf set spans a known fraction of the ring, so the ring
// holds roughly members/spanFraction nodes. Moara uses the estimate to
// cost never-queried (cold) trees.
func (n *Node) EstimateSize() float64 {
	if v := n.leaf.Version(); n.estVersion == v {
		return n.estCache
	}
	n.estVersion = n.leaf.Version()
	n.estCache = n.estimateSize()
	return n.estCache
}

func (n *Node) estimateSize() float64 {
	members := n.leaf.Members()
	if len(members) == 0 {
		return 1
	}
	// The widest reach on each side bounds the arc the leaf set covers;
	// members/arc extrapolates to the full ring.
	var maxSucc, maxPred float64
	for _, m := range members {
		s := ringGap(n.self, m).Fraction()
		p := ringGap(m, n.self).Fraction()
		if s < p {
			if s > maxSucc {
				maxSucc = s
			}
		} else {
			if p > maxPred {
				maxPred = p
			}
		}
	}
	arc := maxSucc + maxPred
	if arc <= 0 {
		return float64(len(members) + 1)
	}
	return float64(len(members)+1) / arc
}

// ---------------------------------------------------------------------
// Join protocol

// joinRetryEvery is how often an unanswered join handshake is retried.
const joinRetryEvery = 2 * time.Second

// Join bootstraps via an existing overlay member, retrying until the
// handshake completes: a JoinRequest routed through a not-yet-purged
// corpse is dropped silently, and without the retry the node would sit
// outside the overlay forever.
func (n *Node) Join(bootstrap ids.ID) {
	n.env.Send(bootstrap, JoinRequest{Joiner: n.self})
	n.armJoinRetry(bootstrap)
}

func (n *Node) armJoinRetry(bootstrap ids.ID) {
	n.env.Arm(joinRetryEvery, func() {
		if n.joined {
			return
		}
		// Retry via any peer learned from a partial handshake, falling
		// back to the original bootstrap.
		target := bootstrap
		if ks := n.knownSample(); len(ks) > 0 {
			target = ks[n.env.Rand().Intn(len(ks))]
		}
		n.env.Send(target, JoinRequest{Joiner: n.self})
		n.armJoinRetry(bootstrap)
	}, &n.join)
}

// Rejoin re-enters the overlay after a crash-recovery: liveness state is
// reset (the heartbeat loop died with the crash), the join handshake
// re-runs via bootstrap, and the announced set is cleared so the
// epidemic discovery re-introduces this node first-hand to every peer it
// encounters — which is what clears the death certificates the cluster
// installed when this node was declared failed.
func (n *Node) Rejoin(bootstrap ids.ID) {
	n.stopHeartbeats()
	clear(n.hbMisses)
	n.announced = make(map[ids.ID]bool)
	n.joined = false
	n.Join(bootstrap)
}

// noteAlive clears a death certificate on first-hand evidence of life: a
// message received directly from the certified node. Second-hand gossip
// (Announce/AnnounceAck listings) cannot clear certificates — only the
// node itself can refute its own obituary.
func (n *Node) noteAlive(from ids.ID) {
	if len(n.dead) > 0 {
		delete(n.dead, from)
	}
}

// Handle processes overlay messages. It reports whether the message was
// an overlay message (false means the caller should interpret it).
func (n *Node) Handle(from ids.ID, m any) bool {
	if from != n.self {
		n.noteAlive(from)
	}
	switch msg := m.(type) {
	case RouteMsg:
		n.routeMsg(msg)
	case JoinRequest:
		n.handleJoinRequest(msg)
	case JoinReply:
		n.handleJoinReply(msg)
	case Announce:
		n.Install(msg.ID)
		n.env.Send(msg.ID, AnnounceAck{Known: n.knownSample()})
	case AnnounceAck:
		for _, id := range msg.Known {
			if id == n.self {
				continue
			}
			if at, isDead := n.dead[id]; isDead && n.env.Now()-at < deadTTL {
				// Gossip says a certified-dead node is alive. Second-hand
				// word cannot clear the certificate, but a probe gives
				// the node the chance to refute it first-hand: a live
				// peer acks, noteAlive clears the certificate, and the
				// next gossip mention installs it. Without this, a
				// recovered node stays invisible to every certificate
				// holder its rejoin announcements missed until the
				// certificate expires.
				n.env.Send(id, Heartbeat{})
				continue
			}
			n.Install(id)
			// Epidemic discovery: introduce ourselves to every newly
			// learned peer exactly once, so late joiners become
			// visible cluster-wide and routing holes close.
			if n.joined && !n.announced[id] {
				n.announced[id] = true
				n.env.Send(id, Announce{ID: n.self})
			}
		}
	case Heartbeat:
		n.handleHeartbeat(from, msg)
	case Obituary:
		n.handleObituary(msg)
	default:
		return false
	}
	return true
}

// handleObituary processes a gossiped death certificate: purge, certify,
// and forward exactly once (receivers that already hold a live
// certificate stop the flood). A node hearing of its own death refutes
// it by re-announcing itself instead.
func (n *Node) handleObituary(m Obituary) {
	if m.Dead == n.self {
		for _, id := range n.knownSample() {
			n.env.Send(id, Announce{ID: n.self})
		}
		return
	}
	if at, ok := n.dead[m.Dead]; ok && n.env.Now()-at < deadTTL {
		return
	}
	n.dead[m.Dead] = n.env.Now()
	n.RemoveNode(m.Dead)
	for _, id := range n.knownSample() {
		n.env.Send(id, m)
	}
}

func (n *Node) handleJoinRequest(m JoinRequest) {
	// Contribute the row the joiner will use at this hop.
	l := ids.CommonPrefixLen(n.self, m.Joiner)
	if l < ids.Digits {
		row := n.rt.Row(l)
		for c := 0; c < ids.Radix; c++ {
			if !row[c].IsZero() {
				m.Rows = append(m.Rows, row[c])
			}
		}
	}
	m.Rows = append(m.Rows, n.self)
	next, isSelf := n.NextHop(m.Joiner)
	if isSelf || next == m.Joiner {
		// This node is the joiner's closest existing neighbor: reply
		// with accumulated rows plus the local leaf set.
		n.env.Send(m.Joiner, JoinReply{Rows: m.Rows, Leaf: append(n.leaf.Members(), n.self)})
		return
	}
	m.Hops++
	if m.Hops > ids.Digits {
		n.env.Send(m.Joiner, JoinReply{Rows: m.Rows, Leaf: append(n.leaf.Members(), n.self)})
		return
	}
	n.env.Send(next, m)
}

func (n *Node) handleJoinReply(m JoinReply) {
	for _, id := range m.Rows {
		n.Install(id)
	}
	for _, id := range m.Leaf {
		n.Install(id)
	}
	wasJoined := n.joined
	n.joined = true
	// Tell everyone we know about ourselves so they can install us.
	for _, id := range n.knownSample() {
		n.announced[id] = true
		n.env.Send(id, Announce{ID: n.self})
	}
	if !wasJoined {
		n.startHeartbeats()
	}
}

// knownSample lists every peer in routing state: the table's entries
// (each id occupies exactly one slot — its common-prefix row and digit
// column — so the table is duplicate-free), then leaf members not
// already present via their unique table slot. Order matches the
// pre-optimization map-based dedup: table row-major, then leaf.
func (n *Node) knownSample() []ids.ID {
	if n.ksCache != nil && n.ksRT == n.rt.Version() && n.ksLeaf == n.leaf.Version() {
		return n.ksCache
	}
	rtEntries := n.rt.Entries()
	members := n.leaf.Members()
	out := make([]ids.ID, 0, len(rtEntries)+len(members))
	out = append(out, rtEntries...)
	for _, id := range members {
		r := ids.CommonPrefixLen(n.self, id)
		if r < ids.Digits && n.rt.Get(r, id.Digit(r)) == id {
			continue
		}
		out = append(out, id)
	}
	n.ksCache, n.ksRT, n.ksLeaf = out, n.rt.Version(), n.leaf.Version()
	return out
}

// ---------------------------------------------------------------------
// Liveness

func (n *Node) startHeartbeats() {
	if n.cfg.HeartbeatEvery <= 0 || n.hbOn {
		return
	}
	n.hbOn = true
	var tick func()
	tick = func() {
		for _, id := range n.leaf.Members() {
			n.hbMisses[id]++
			if n.hbMisses[id] > n.cfg.HeartbeatMiss {
				n.declareDead(id)
				continue
			}
			n.env.Send(id, Heartbeat{})
		}
		// Routing-table liveness: leaf members are probed every tick,
		// but a corpse can also sit in a routing slot — a node that was
		// down when the obituary circulated (its own crash-recovery, a
		// racing rejoin) keeps delegating a whole region to it, silently
		// breaking every dissemination through that slot. Sweep the
		// table entries on a slower cadence (every 4th tick, once per
		// entry, leaf members excluded — they are probed above) so such
		// corpses are re-detected and purged within a bounded number of
		// rounds without double-counting misses.
		n.hbRound++
		if n.hbRound%4 == 0 {
			for _, id := range n.rt.Entries() {
				if n.leaf.Contains(id) {
					continue
				}
				n.hbMisses[id]++
				if n.hbMisses[id] > n.cfg.HeartbeatMiss {
					n.declareDead(id)
					continue
				}
				n.env.Send(id, Heartbeat{})
			}
		}
		// Anti-entropy: share membership knowledge with one random
		// known peer per tick. Churn opens broadcast-partition holes —
		// a node can be known by its ring neighbors yet invisible to
		// the representative whose routing slot should cover it; the
		// epidemic exchange diffuses membership until every region's
		// representative learns its occupants again.
		if ks := n.knownSample(); len(ks) > 0 {
			peer := ks[n.env.Rand().Intn(len(ks))]
			// Copy: ks is the shared knownSample cache (also aliased by
			// in-flight gossip); appending into its spare capacity would
			// write into memory other messages are reading.
			known := make([]ids.ID, 0, len(ks)+1)
			known = append(append(known, ks...), n.self)
			n.env.Send(peer, AnnounceAck{Known: known})
		}
		n.env.Arm(n.cfg.HeartbeatEvery, tick, &n.hb)
	}
	n.env.Arm(n.cfg.HeartbeatEvery, tick, &n.hb)
}

func (n *Node) stopHeartbeats() {
	n.hb.Stop()
	n.hbOn = false
}

func (n *Node) handleHeartbeat(from ids.ID, m Heartbeat) {
	if m.Ack {
		n.hbMisses[from] = 0
		return
	}
	n.Install(from)
	n.env.Send(from, Heartbeat{Ack: true})
}

func (n *Node) declareDead(deadID ids.ID) {
	n.RemoveNode(deadID)
	n.dead[deadID] = n.env.Now()
	// Gossip the death certificate so the purge propagates beyond this
	// node's leaf set: routing-table entries are not heartbeat-monitored,
	// so without the obituary flood an interior node's death would leave
	// stale entries cluster-wide.
	for _, id := range n.knownSample() {
		n.env.Send(id, Obituary{Dead: deadID})
	}
	// Leaf-set repair: ask the remaining members for their neighbors
	// to refill the set.
	for _, id := range n.leaf.Members() {
		n.env.Send(id, Announce{ID: n.self})
	}
}
