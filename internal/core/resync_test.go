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

// TestOrphanWaitsForItsNewParent kills an interior node of a standing
// tree and purges it everywhere, as an obituary would. Its children are
// orphans: a child reports only to its current parent, so between the
// purge and the install that adopts it an orphan sends no epoch report
// at all, though it keeps ticking. The adopting installs are held back
// for three epochs to make that window long. Once they are handed over,
// each orphan's eager full report lands in its new parent's slot, and
// from then on no sample counts a member twice: the stream settles on the
// exact answer over the live nodes.
func TestOrphanWaitsForItsNewParent(t *testing.T) {
	const n, period = 64, 200 * time.Millisecond
	type held struct {
		from, to ids.ID
		m        InstallMsg
	}
	var (
		orphans  = map[ids.ID]bool{}
		holding  bool
		installs []held
		silent   int // reports an orphan sent while orphaned
		eager    = map[ids.ID]uint64{}
		nodes    []*Node
		index    = map[ids.ID]int{}
	)
	net := simnet.New(simnet.Options{Seed: 11, Latency: simnet.Uniform(5*time.Millisecond, 15*time.Millisecond),
		Drop: func(from, to ids.ID, m any) bool {
			if !orphans[from] && !orphans[to] {
				return false
			}
			switch m := m.(type) {
			case InstallMsg:
				if holding && orphans[to] {
					installs = append(installs, held{from, to, m})
					return true
				}
			case *EpochReportMsg:
				if orphans[from] && nodes[index[from]].Subs()[0].Orphaned {
					silent++
				}
				if orphans[from] && m.Since == 0 && eager[from] == 0 && !holding {
					eager[from] = m.Seq
				}
			case pastry.RouteMsg:
				if _, ok := m.Payload.(*EpochReportMsg); ok && orphans[from] {
					silent++
				}
			}
			return false
		}})
	members := make([]ids.ID, n)
	for i := range members {
		members[i] = ids.FromKey(fmt.Sprintf("orphan-%d", i))
	}
	oracle := pastry.NewOracle(members)
	nodes = make([]*Node, n)
	short := make(map[string]int, n)
	for i, id := range members {
		env := net.AddNode(id)
		nodes[i] = NewNode(env, Config{SubTTL: time.Hour, SubRenewInterval: time.Hour, CoalesceWindow: CoalesceOff},
			pastry.Config{})
		env.BindHandler(nodes[i])
		oracle.Fill(nodes[i].Overlay())
		nodes[i].Store().SetInt("v", int64(i+1))
		index[id], short[id.Short()] = i, i
	}
	var samples []Sample
	mustSubscribe(t, nodes[0], "sum(v) every 200ms", func(s Sample) { samples = append(samples, s) })
	net.RunFor(20 * period)

	// The victim: the interior node (neither the root nor the
	// subscriber) whose largest child subtree is largest, so that an
	// orphan carries children of its own.
	below := make([]int, n)
	for _, nd := range nodes {
		for si := nd.Subs()[0]; !si.Root; {
			p := short[si.Parent]
			below[p]++
			si = nodes[p].Subs()[0]
		}
	}
	largest := make([]int, n)
	for i, nd := range nodes {
		if si := nd.Subs()[0]; !si.Root {
			p := short[si.Parent]
			largest[p] = max(largest[p], below[i]+1)
		}
	}
	victim := -1
	for i, nd := range nodes {
		if i != 0 && !nd.Subs()[0].Root && largest[i] > 0 && (victim < 0 || largest[i] > largest[victim]) {
			victim = i
		}
	}
	if victim < 0 || largest[victim] < 2 {
		t.Fatal("no interior node below the root with a grandchild")
	}
	dead := members[victim]
	want := int64(n*(n+1)/2 - (victim + 1))
	for i, nd := range nodes {
		if nd.Subs()[0].Parent == dead.Short() {
			orphans[members[i]] = true
		}
	}
	net.SetDown(dead, true)
	holding = true
	for i, nd := range nodes {
		if i != victim {
			nd.Overlay().RemoveNode(dead)
		}
	}
	for o := range orphans {
		if !nodes[index[o]].Subs()[0].Orphaned {
			t.Fatalf("the victim's child %s is not orphaned by the purge", o.Short())
		}
	}
	net.RunFor(3 * period)
	holding = false
	if silent != 0 {
		t.Fatalf("orphans sent %d epoch reports before any install adopted them, want none", silent)
	}
	adopted := map[ids.ID]bool{}
	for _, h := range installs {
		adopted[h.to] = true
	}
	for o := range orphans {
		if !nodes[index[o]].Subs()[0].Orphaned {
			t.Fatalf("orphan %s was adopted while its installs were held", o.Short())
		}
		if !adopted[o] {
			t.Fatalf("no install came for orphan %s", o.Short())
		}
	}

	warm := len(samples)
	for _, h := range installs {
		nodes[index[h.to]].Handle(h.from, h.m)
	}
	net.RunFor(20 * time.Millisecond)
	for o := range orphans {
		si := nodes[index[o]].Subs()[0]
		parent := nodes[short[si.Parent]]
		sub := parent.groups[si.Group].subs[0]
		i, found := sub.kids.find(o)
		if eager[o] == 0 || !found {
			t.Fatalf("orphan %s: eager full report %d, slot found %v: want the new parent to file it", o.Short(), eager[o], found)
		}
		if slot := sub.kids[i]; !slot.has || slot.seq != eager[o] {
			t.Fatalf("orphan %s: the new parent's slot holds report %d (has %v), want the eager full report %d", o.Short(), slot.seq, slot.has, eager[o])
		}
	}
	net.RunFor(10 * period)
	exact := false
	for _, s := range samples[warm:] {
		v, _ := s.Result.Agg.Value.AsInt()
		if s.Contributors > n-1 || v > want {
			t.Fatalf("epoch %d: sum %d from %d contributors, more than the %d live nodes' %d", s.Epoch, v, s.Contributors, n-1, want)
		}
		if exact && (s.Contributors != n-1 || v != want) {
			t.Fatalf("epoch %d: sum %d from %d contributors after the stream was exact", s.Epoch, v, s.Contributors)
		}
		exact = s.Contributors == n-1 && v == want
	}
	if !exact {
		t.Fatalf("the stream never reached sum %d over the %d live nodes", want, n-1)
	}
}

// TestLateRetractionLeavesTheSlot: a child retracts its subtree and then
// sends a full report, and the retraction arrives second. It is numbered
// below the full report, so the parent's slot keeps the full report's
// state instead of emptying.
func TestLateRetractionLeavesTheSlot(t *testing.T) {
	const period = 100 * time.Millisecond
	var (
		hold bool
		held []*EpochReportMsg
	)
	net := simnet.New(simnet.Options{Seed: 3, Drop: func(_, _ ids.ID, m any) bool {
		if em, ok := m.(*EpochReportMsg); hold && ok {
			held = append(held, em)
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

	hold = true
	child.retract(cs, root.self)
	child.sendReport(cs, net.Now())
	hold = false
	if len(held) != 2 || held[0].State.Nodes() != 0 || held[1].Since != 0 || held[1].State.Nodes() != 1 {
		t.Fatalf("held %+v: want a retraction, then a full report", held)
	}
	retraction, full := held[0], held[1]
	if retraction.Seq >= full.Seq {
		t.Fatalf("retraction %d, full report %d: want them numbered in send order", retraction.Seq, full.Seq)
	}
	fseq := full.Seq
	root.Handle(child.self, full)
	root.Handle(child.self, retraction)
	i, found := rs.kids.find(child.self)
	if !found {
		t.Fatal("the root holds no slot for its child")
	}
	if s := rs.kids[i]; !s.has || s.seq != fseq || s.state == nil || s.state.Nodes() != 1 {
		t.Fatalf("after the late retraction the root's slot holds %+v, want full report %d with the child's state", s, fseq)
	}
}
