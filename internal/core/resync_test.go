package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/simnet"
)

// TestStandingResyncAfterLostReport loses one full epoch report: a child
// rewrites its attribute, rebuilds, and the full report that carries the
// new state never reaches its parent. The child's next report is
// unchanged, naming a report the parent's slot does not hold, so the
// parent files nothing from it and asks the child, once, for a full
// report; the child sends one without rebuilding, and the stream reaches
// the exact answer and keeps it. No sample counts a member twice on the
// way, and none folds a value that was never written.
func TestStandingResyncAfterLostReport(t *testing.T) {
	const n, period = 16, 200 * time.Millisecond
	var (
		child, parent ids.ID
		dropNext      bool
		dropped       int
		fulls, asks   int // after the drop: full reports child→parent, installs parent→child
	)
	net := simnet.New(simnet.Options{Seed: 5, Latency: simnet.Uniform(5*time.Millisecond, 15*time.Millisecond),
		Drop: func(from, to ids.ID, m any) bool {
			switch m := m.(type) {
			case *EpochReportMsg:
				if from != child || to != parent || m.Since != 0 {
					return false
				}
				if dropNext {
					dropNext = false
					dropped++
					return true
				}
				if dropped > 0 {
					fulls++
				}
			case InstallMsg:
				if from == parent && to == child && dropped > 0 {
					asks++
				}
			}
			return false
		}})
	members := make([]ids.ID, n)
	for i := range members {
		// Hashed ids, so that the short form SubInfo.Parent names one node.
		members[i] = ids.FromKey(fmt.Sprintf("resync-%d", i))
	}
	oracle := pastry.NewOracle(members)
	nodes := make([]*Node, n)
	index := make(map[string]int, n)
	want := int64(0)
	for i, id := range members {
		env := net.AddNode(id)
		// No renewal inside the run, and no coalescing: a renewal sends
		// every child an install, and a batch would carry the lost
		// report's neighbours with it.
		nodes[i] = NewNode(env, Config{SubTTL: time.Hour, SubRenewInterval: time.Hour, CoalesceWindow: CoalesceOff},
			pastry.Config{})
		env.BindHandler(nodes[i])
		oracle.Fill(nodes[i].Overlay())
		nodes[i].Store().SetInt("v", int64(i+1))
		want += int64(i + 1)
		index[id.Short()] = i
	}
	var samples []Sample
	mustSubscribe(t, nodes[0], "sum(v) every 200ms", func(s Sample) { samples = append(samples, s) })
	net.RunFor(20 * period)

	// The child: a reporting entry, and the deepest one, so that the lost
	// state has the longest way up.
	c, depth := -1, 0
	for i, nd := range nodes {
		for _, si := range nd.Subs() {
			d := 0
			for at := si; !at.Root; d++ {
				if d > n {
					t.Fatalf("node %d: parent chain cycles", i)
				}
				at = nodes[index[at.Parent]].Subs()[0]
			}
			if d > depth {
				c, depth = i, d
			}
		}
	}
	if c < 0 {
		t.Fatal("no node reports to a parent")
	}
	si := nodes[c].Subs()[0]
	child, parent = members[c], members[index[si.Parent]]
	rebuilds := si.Rebuilds

	old := want
	dropNext = true
	nodes[c].Store().SetInt("v", int64(c+1)+1000)
	want += 1000
	warm := len(samples)
	net.RunFor(time.Duration(depth+6) * period)

	if dropped != 1 {
		t.Fatalf("%d full reports dropped, want 1", dropped)
	}
	if asks != 1 || fulls != 1 {
		t.Errorf("after the lost report: %d installs asked for a full report and %d full reports came, want 1 and 1", asks, fulls)
	}
	if got := nodes[c].Subs()[0].Rebuilds - rebuilds; got != 1 {
		t.Errorf("the child rebuilt %d times, want once, for the write: a request for a full report re-sends the retained state", got)
	}
	// Before the full report lands, the parent still folds the child's
	// old state, and for at most one epoch, once its stale sweep dropped
	// that state, none; from then on every sample is exact.
	seenNew, gaps := false, 0
	for _, s := range samples[warm:] {
		v, _ := s.Result.Agg.Value.AsInt()
		switch {
		case s.Contributors > n:
			t.Fatalf("epoch %d: %d contributors of %d members", s.Epoch, s.Contributors, n)
		case s.Contributors == n && v == want:
			seenNew = true
		case !seenNew && s.Contributors == n && v == old:
		case !seenNew && gaps == 0:
			gaps++
		default:
			t.Fatalf("epoch %d: sum %d from %d contributors, want %d (or %d before the write arrives) from %d",
				s.Epoch, v, s.Contributors, want, old, n)
		}
	}
	if !seenNew {
		t.Fatalf("the write at node %d (depth %d) never reached the stream", c, depth)
	}
}

// TestRoutedRetractionAfterFullReport: an orphan that pulled its subtree
// to the tree root through the overlay is adopted by the root itself. It
// retracts the pulled copy through the overlay and sends its eager full
// report directly, and here the routed retraction arrives second. The
// retraction is numbered below the full report, so the root's slot keeps
// the full report's state instead of emptying.
func TestRoutedRetractionAfterFullReport(t *testing.T) {
	const period = 100 * time.Millisecond
	var (
		hold bool
		held []any
	)
	net := simnet.New(simnet.Options{Seed: 3, Drop: func(_, _ ids.ID, m any) bool {
		if rm, ok := m.(pastry.RouteMsg); ok {
			_, ok = rm.Payload.(*EpochReportMsg)
			if hold && ok {
				held = append(held, m)
			}
			return hold && ok
		}
		if _, ok := m.(*EpochReportMsg); hold && ok {
			held = append(held, m)
			return true
		}
		return false
	}})
	members := []ids.ID{ids.FromKey("retract-a"), ids.FromKey("retract-b")}
	oracle := pastry.NewOracle(members)
	nodes := make([]*Node, len(members))
	for i, id := range members {
		env := net.AddNode(id)
		nodes[i] = NewNode(env, Config{SubTTL: time.Hour, SubRenewInterval: time.Hour, CoalesceWindow: CoalesceOff},
			pastry.Config{})
		env.BindHandler(nodes[i])
		oracle.Fill(nodes[i].Overlay())
		nodes[i].Store().SetInt("v", int64(i+1))
	}
	mustSubscribe(t, nodes[0], "sum(v) every 100ms", func(Sample) {})
	net.RunFor(10 * period)
	root, child := nodes[0], nodes[1]
	if !root.Subs()[0].Root {
		root, child = child, root
	}
	entry := func(n *Node) *subState { return n.groups[n.Subs()[0].Group].subs[0] }
	rs, cs := entry(root), entry(child)
	slot := func() childSlot {
		i, found := rs.kids.find(child.self)
		if !found {
			t.Fatal("the root holds no slot for its child")
		}
		return rs.kids[i]
	}

	// The child's parent is purged as dead: it pulls to the root.
	cs.orphaned = true
	net.RunFor(2 * period)
	if s := slot(); !cs.pulled || !s.has || s.state.Nodes() != 1 {
		t.Fatalf("pulled %v, slot %+v: want the root to file the orphan's pulled report", cs.pulled, s)
	}
	pulled := slot().seq

	// The root adopts the orphan; hold what the child sends it.
	hold = true
	child.Handle(root.self, root.install(rs, SetEntry{ID: child.self, Level: cs.level}))
	hold = false
	var full, retraction *EpochReportMsg
	var route pastry.RouteMsg
	for _, m := range held {
		switch m := m.(type) {
		case pastry.RouteMsg:
			route, retraction = m, m.Payload.(*EpochReportMsg)
		case *EpochReportMsg:
			full = m
		}
	}
	if full == nil || retraction == nil || full.Since != 0 || retraction.State.Nodes() != 0 {
		t.Fatalf("held %+v: want a routed retraction and a direct full report", held)
	}
	rseq, fseq := retraction.Seq, full.Seq
	root.Handle(child.self, full)
	root.Handle(child.self, route)
	if s := slot(); !s.has || s.seq != fseq || s.state == nil || s.state.Nodes() != 1 {
		t.Fatalf("after the late retraction the root's slot holds %+v, want full report %d with the child's state", s, fseq)
	}
	if !(pulled < rseq && rseq < fseq) {
		t.Fatalf("pulled report %d, retraction %d, full report %d: want them numbered in send order", pulled, rseq, fseq)
	}
}
