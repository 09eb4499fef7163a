// Package core implements the Moara node: group aggregation trees carved
// out of DHT broadcast trees, the sat/update/prune dynamic-maintenance
// state machine (§4), the separate query plane (§5), per-tree query-cost
// estimation, and the composite-query front-end (§6).
package core

import "time"

// Mode selects the adaptation policy; the non-default modes implement
// the paper's comparison baselines by pinning the policy's update flag.
type Mode uint8

const (
	// ModeAdaptive is Moara's dynamic adaptation policy (§4).
	ModeAdaptive Mode = iota
	// ModeGlobal pins every node in NO-UPDATE: group state is kept, but
	// each node advertises (NO-PRUNE, {self}), so every query floods
	// the broadcast tree and no status flows ("Global" in Fig. 9, the
	// SDIMS tree of Fig. 12a).
	ModeGlobal
	// ModeAlwaysUpdate pins every node in UPDATE state, eagerly
	// propagating every membership change ("Moara (Always-Update)").
	ModeAlwaysUpdate
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeGlobal:
		return "global"
	case ModeAlwaysUpdate:
		return "always-update"
	default:
		return "adaptive"
	}
}

// CoverPolicy selects how the front-end picks among candidate covers
// (§6.3). The non-default policies are ablation switches used by the
// evaluation harness.
type CoverPolicy uint8

const (
	// CoverCheapest is Moara's policy: probe costs, pick the cheapest
	// cover.
	CoverCheapest CoverPolicy = iota
	// CoverAll queries every group of every cover (a planner without
	// cover selection).
	CoverAll
	// CoverDearest inverts the choice (worst-case cover), bounding the
	// value of the probes.
	CoverDearest
)

// Config tunes a Moara node. The zero value plus Defaults() matches the
// paper's implementation choices.
type Config struct {
	// Mode selects the adaptive policy (§4) or a baseline that pins it:
	// Always-Update, or Global (NO-UPDATE everywhere: queries flood the
	// broadcast tree, no status flows).
	Mode Mode
	// Covers selects the cover-choice policy (ablation knob).
	Covers CoverPolicy
	// Threshold is the separate-query-plane threshold (§5). 1 disables
	// the SQP (plain pruned trees); the paper finds 2 captures most of
	// the benefit.
	Threshold int
	// KUpdate is the event-window length used while in UPDATE state
	// (paper default 1). A node keeps its newest 16 events, so a longer
	// window acts as 16; a negative one counts no event.
	KUpdate int
	// KNoUpdate is the event-window length used while in NO-UPDATE
	// state (paper default 3), capped like KUpdate to [0, 16].
	KNoUpdate int
	// ChildTimeout bounds how long a node waits for a child's query
	// response before aggregating without it (§7).
	ChildTimeout time.Duration
	// SeenTTL is how long query IDs are remembered for duplicate
	// elimination and answer-once accounting (§6.2; paper: 5 minutes).
	// The memory expires by generation, swapped by the GC timer, so an
	// ID is kept at least SeenTTL and at most 2·SeenTTL plus one GC
	// period (SeenTTL/2, or StateTTL/2 when smaller; two periods when
	// that does not divide SeenTTL). There is no separate knob for the
	// upper bound: it follows from the lower one and the GC period,
	// and only the lower bound is a correctness promise.
	SeenTTL time.Duration
	// StateTTL garbage-collects predicate state idle for this long
	// while in NO-UPDATE (0 disables GC).
	StateTTL time.Duration
	// QueryTimeout bounds a front-end query end to end.
	QueryTimeout time.Duration
	// MaxGroupKeys caps the distinct keys a grouped query's keyed
	// accumulator holds at any node; past it, contributions spill into
	// the aggregate.OtherKey bucket (memory protection against
	// high-cardinality group-by attributes). Negative disables the cap.
	MaxGroupKeys int
	// SubTTL is the standing-query idle timeout: a node drops a
	// subscription that has not been renewed (by its parent's install
	// refresh, or — at the root — by the subscribing front-end) for
	// this long, so crashed front-ends cannot leak subscription state.
	SubTTL time.Duration
	// SubRenewInterval is how often a front-end renews its standing
	// queries (re-routing the install to the tree root, re-probing
	// composite covers) and how often the renewed install is refreshed
	// down-tree. Must be well below SubTTL; default SubTTL/3.
	SubRenewInterval time.Duration
	// CoalesceWindow is the Nagle-style per-destination outbox flush
	// window: messages a node emits to the same neighbor within the
	// window ship as one wire-level BatchMsg, so Q concurrent queries
	// traversing the same trees cost ~one wire message per tree edge
	// instead of Q. Zero (the default) waits for no window. On the
	// simulator the flush runs after the current event, at the same
	// virtual instant, so it merges everything a node sends in one
	// burst. The TCP agent has no such defer: its flush is a zero-delay
	// real timer, and every handler turn that takes the core lock before
	// the timer does joins the same flush. A standing epoch is one burst
	// on both runtimes: the node's epoch clock ticks every entry due in
	// one timer event and flushes the outbox at its end. A positive
	// window trades up to that much extra latency per hop for coalescing
	// across bursts. CoalesceOff disables the outbox entirely.
	CoalesceWindow time.Duration
}

// CoalesceOff disables the per-destination outbox: every message is
// sent individually, one wire message per logical message.
const CoalesceOff time.Duration = -1

// Defaults fills unset fields with the paper's parameter choices.
func (c Config) Defaults() Config {
	if c.Threshold == 0 {
		c.Threshold = 2
	}
	if c.KUpdate == 0 {
		c.KUpdate = 1
	}
	if c.KNoUpdate == 0 {
		c.KNoUpdate = 3
	}
	if c.ChildTimeout == 0 {
		c.ChildTimeout = 2 * time.Second
	}
	if c.SeenTTL == 0 {
		c.SeenTTL = 5 * time.Minute
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 15 * time.Second
	}
	switch {
	case c.MaxGroupKeys == 0:
		c.MaxGroupKeys = 1024
	case c.MaxGroupKeys < 0:
		c.MaxGroupKeys = 0
	}
	if c.SubTTL == 0 {
		c.SubTTL = 45 * time.Second
	}
	if c.SubRenewInterval == 0 {
		c.SubRenewInterval = c.SubTTL / 3
	}
	return c
}
