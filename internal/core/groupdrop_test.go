package core

import (
	"testing"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/value"
)

// TestNonCanonicalSubscriptionDrops: an entry installed under a
// non-canonical spelling of its group lives on the canonical group's
// record. A cancel under that spelling, or a lapsed lease, drops it, and
// a re-install makes a fresh entry that ticks; a child's report under the
// canonical spelling is filed, not cancelled.
func TestNonCanonicalSubscriptionDrops(t *testing.T) {
	const period = 100 * time.Millisecond
	count := aggregate.Spec{Kind: aggregate.KindCount}
	for _, end := range []string{"cancel", "lease"} {
		t.Run(end, func(t *testing.T) {
			net, nodes := miniCluster(t, 1, Config{SubTTL: time.Second, SubRenewInterval: time.Minute})
			n := nodes[0]
			n.Store().SetBool("x", true)
			parent, _ := attachRecorder(net)
			sid := QueryID{Origin: parent, Num: 1}
			install := func(gen uint64) {
				n.Handle(parent, InstallMsg{SID: sid, Group: "x=true", Attr: "*", Spec: count,
					Period: period, Gen: gen, ReplyTo: parent})
			}
			install(1)
			net.RunFor(5 * period)
			if s := n.Subs(); len(s) != 1 || s[0].Group != "x = true" || s[0].Epoch == 0 {
				t.Fatalf("after the install: %+v, want one ticking entry on the canonical group", s)
			}
			if end == "cancel" {
				n.Handle(parent, CancelMsg{SID: sid, Group: "x=true"})
			} else {
				net.RunFor(2 * time.Second) // no renewal: the lease lapses
			}
			net.RunFor(period)
			if s := n.Subs(); len(s) != 0 {
				t.Fatalf("after the %s: %+v, want no entry", end, s)
			}
			install(2)
			net.RunFor(period)
			s := n.Subs()
			if len(s) != 1 {
				t.Fatalf("after the re-install: %+v, want one entry", s)
			}
			e := s[0].Epoch
			net.RunFor(3 * period)
			if s := n.Subs(); len(s) != 1 || s[0].Epoch < e+3 {
				t.Fatalf("re-installed entry: %+v, want its epoch to move from %d by 3", s, e)
			}
		})
	}

	t.Run("canonical-report", func(t *testing.T) {
		net, nodes := miniCluster(t, 1, Config{})
		n := nodes[0]
		n.Store().SetBool("x", true)
		fe, _ := attachRecorder(net)
		child := ids.FromKey("canonical-report-child")
		log := &recorder{}
		net.AddNode(child).BindHandler(log)
		sid := QueryID{Origin: fe, Num: 1}
		n.handleSubscribe(SubscribeMsg{SID: sid, Group: "x=true", Attr: "*", Spec: count,
			Period: period, Gen: 1, ReplyTo: fe})
		st := aggregate.NewGrouped(count, 0)
		st.AddKeyed(child, aggregate.ScalarKey, value.Int(1))
		n.Handle(child, &EpochReportMsg{SID: sid, Group: "x = true", Epoch: 1, State: st, Contributors: 1})
		if s := n.Subs(); len(s) != 1 || s[0].Children != 1 {
			t.Fatalf("entry %+v, want the child's report filed", s)
		}
		net.RunFor(period)
		if len(log.cancels) != 0 {
			t.Fatalf("the child was sent %+v for a report on its canonical group", log.cancels)
		}
	})
}

// tableSizes measures every per-group table of a node: the group table,
// the attribute index (attributes and listed records), the subscription
// entries, the epoch clock's list and the in-flight execs.
func tableSizes(n *Node) [6]int {
	listed := 0
	for _, l := range n.byAttr {
		listed += len(l)
	}
	return [6]int{len(n.groups), len(n.byAttr), listed, n.nsubs, len(n.ticking), len(n.execs)}
}

// TestGroupDropLeavesNoTrace: a group that had a tree (a query and a
// child's status), a subscription entry and a composite eval is dropped
// by the sweep once its entry is cancelled and it idles in NO-UPDATE for
// StateTTL, and every per-group table is back at its size before the
// group's first message. The ledger outlives the record, so a replay of
// the answered query adds nothing to the answer.
func TestGroupDropLeavesNoTrace(t *testing.T) {
	const ttl = time.Second
	net, nodes := miniCluster(t, 1, Config{StateTTL: ttl, SubTTL: time.Minute, SubRenewInterval: time.Minute})
	n := nodes[0]
	n.Store().SetInt("a", 1)
	n.Store().SetBool("x", true)
	n.Store().SetBool("y", true)
	parent, rec := attachRecorder(net)
	child := ids.FromKey("no-trace-child")
	net.AddNode(child).BindHandler(&recorder{})
	const group, eval = "x = true", "x = true and y = true"
	before := tableSizes(n)

	qm := sumQuery(parent, 1, group)
	qm.Eval = eval
	n.Handle(parent, ref(qm))
	n.Handle(child, &StatusMsg{Group: group, UpdateSet: []SetEntry{{ID: child, Level: 1}}, Np: 1})
	sid := QueryID{Origin: parent, Num: 2}
	n.Handle(parent, InstallMsg{SID: sid, Group: group, Eval: eval, Attr: "a",
		Spec: aggregate.Spec{Kind: aggregate.KindSum}, Period: 100 * time.Millisecond, Gen: 1, ReplyTo: parent})
	net.RunFor(time.Second)
	ps := n.groups[group]
	if ps == nil || len(ps.children) != 1 || len(ps.subs) != 1 || len(ps.evals) != 1 {
		t.Fatalf("group record %+v, want a child status, an entry and the composite eval", ps)
	}
	if len(rec.resps) != 1 || rec.resps[0].Contributors != 1 {
		t.Fatalf("responses %+v, want one answer from this node", rec.resps)
	}
	answer := rec.resps[0]

	n.Handle(parent, CancelMsg{SID: sid, Group: group})
	net.RunFor(3 * ttl)
	if got := tableSizes(n); got != before {
		t.Fatalf("tables (groups, attributes, indexed, entries, clock, execs) = %v, want %v as before the group's first message", got, before)
	}

	n.Handle(parent, ref(qm))
	net.RunFor(time.Second)
	if len(rec.resps) != 2 {
		t.Fatalf("replay: responses %+v, want a second one", rec.resps)
	}
	if r := rec.resps[1]; !r.Dup && (r.Contributors != 0 || r.State != nil && r.State.(*aggregate.GroupedState).Nodes() != 0) {
		t.Fatalf("replay answered %+v after %+v: it adds to the answer", r, answer)
	}
	if got := n.groups[group]; got == nil || got.id == ps.id {
		t.Fatalf("the replay's group record reuses the dropped record's id %d", ps.id)
	}
}
