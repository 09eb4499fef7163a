package core

import (
	"sort"
	"time"
)

// TreeInfo is a read-only snapshot of one group tree's local state,
// for operational introspection (the shell's "trees" command and
// debugging).
type TreeInfo struct {
	// Group is the canonical group predicate.
	Group string
	// Level is this node's depth in the tree (-1 if unknown).
	Level int
	// HasParent reports whether a tree parent is known.
	HasParent bool
	// SatLocal reports local predicate satisfaction.
	SatLocal bool
	// Sat is Procedure 1's aggregate satisfiability.
	Sat bool
	// Update reports UPDATE (true) vs NO-UPDATE state.
	Update bool
	// Prune reports whether this branch is advertised prunable.
	Prune bool
	// QSetSize is the current query-target count.
	QSetSize int
	// Children is the number of children with recorded state.
	Children int
	// Np is the subtree's query-plane size estimate.
	Np int
	// LastSeq is the newest observed query sequence number.
	LastSeq uint64
}

// Trees snapshots every group tree this node currently holds state
// for, sorted by group for stable display.
func (n *Node) Trees() []TreeInfo {
	out := make([]TreeInfo, 0, len(n.preds))
	for canon, ps := range n.preds {
		out = append(out, TreeInfo{
			Group:     canon,
			Level:     ps.level,
			HasParent: ps.hasParent,
			SatLocal:  ps.satLocal,
			Sat:       ps.sat,
			Update:    ps.update,
			Prune:     ps.prune,
			QSetSize:  len(ps.qSet),
			Children:  len(ps.children),
			Np:        ps.np,
			LastSeq:   ps.lastSeq,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out
}

// Remembered reports how many query IDs the node's answer-once memory
// (§6.2) holds: the seen-window size. An ID is kept at least SeenTTL
// and at most about twice that (see Config.SeenTTL).
func (n *Node) Remembered() int { return n.ledger.size() }

// SubInfo is a read-only snapshot of one standing-query subscription
// entry at a node (shell introspection and lifecycle tests).
type SubInfo struct {
	// SID identifies the subscription.
	SID QueryID
	// Group is the tree the entry lives on.
	Group string
	// Root marks the tree root (streams samples to the front-end).
	Root bool
	// Period is the epoch length.
	Period time.Duration
	// Epoch is the local epoch counter.
	Epoch uint64
	// Children is the number of children with a buffered epoch report.
	Children int
	// Targets is the number of children this node has installed.
	Targets int
	// Parent is the short ID of the node reports flow to ("" at the
	// root).
	Parent string
	// Orphaned marks a subscription whose parent was purged as dead
	// and which is pulling directly to the root until re-adopted.
	Orphaned bool
	// Gen is the newest renewal round seen.
	Gen uint64
	// Contributors is the member count of the node's latest report: the
	// local contribution that report carried (none when another tree of
	// a composite cover claims this node) plus buffered child reports.
	Contributors int64
	// Rebuilds counts the reports whose subtree state was built anew
	// because an input moved, Reuses those that re-sent the retained
	// state; Reuses/(Rebuilds+Reuses) is the entry's merge-skip rate.
	Rebuilds, Reuses uint64
	// Reporters lists the short IDs of children with a buffered report
	// (sorted; debugging and shell introspection).
	Reporters []string
}

// Subs snapshots every subscription entry this node holds, sorted by
// group then subscription for stable display.
func (n *Node) Subs() []SubInfo {
	out := make([]SubInfo, 0, len(n.subs))
	for _, sub := range n.subs {
		parent := ""
		if !sub.root {
			parent = sub.parent.Short()
		}
		contrib := sub.builtSelf
		targets := 0
		reporters := make([]string, 0, len(sub.kids))
		for _, s := range sub.kids {
			if s.expected {
				targets++
			}
			if s.has {
				contrib += s.contrib
				reporters = append(reporters, s.id.Short())
			}
		}
		sort.Strings(reporters)
		out = append(out, SubInfo{
			SID:          sub.sid,
			Group:        sub.ge.spec.canon,
			Root:         sub.root,
			Period:       sub.period,
			Epoch:        sub.epoch,
			Children:     len(reporters),
			Targets:      targets,
			Parent:       parent,
			Orphaned:     sub.orphaned,
			Gen:          sub.gen,
			Contributors: contrib,
			Rebuilds:     sub.rebuilds,
			Reuses:       sub.reuses,
			Reporters:    reporters,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Group != out[j].Group {
			return out[i].Group < out[j].Group
		}
		return out[i].SID.String() < out[j].SID.String()
	})
	return out
}
