package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/value"
)

// standingConfig shrinks the lease timings so lifecycle behavior is
// observable in a short simulated window.
func standingConfig() Config {
	return Config{
		SubTTL:           3 * time.Second,
		SubRenewInterval: time.Second,
	}
}

// subEntries counts subscription entries across the whole cluster.
func subEntries(nodes []*Node) int {
	total := 0
	for _, n := range nodes {
		total += len(n.Subs())
	}
	return total
}

// subEntriesFor counts cluster-wide subscription entries on one group.
func subEntriesFor(nodes []*Node, group string) int {
	total := 0
	for _, n := range nodes {
		for _, si := range n.Subs() {
			if si.Group == group {
				total++
			}
		}
	}
	return total
}

func mustSubscribe(t *testing.T, n *Node, text string, cb func(Sample)) QueryID {
	t.Helper()
	req, err := ParseRequest(text)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := n.Subscribe(req, cb)
	if err != nil {
		t.Fatal(err)
	}
	return sid
}

// TestStandingBasic drives one subset standing query end to end: the
// install disseminates once, warm epochs report the exact member
// count, and samples arrive once per period.
func TestStandingBasic(t *testing.T) {
	net, nodes := miniCluster(t, 32, standingConfig())
	for i, n := range nodes {
		n.Store().Set("g", value.Bool(i < 5))
	}
	var samples []Sample
	mustSubscribe(t, nodes[0], "count(*) where g = true every 200ms", func(s Sample) {
		samples = append(samples, s)
	})
	net.RunFor(4 * time.Second)
	if len(samples) < 10 {
		t.Fatalf("samples = %d, want ~20", len(samples))
	}
	warm := 0
	for i, s := range samples {
		if i > 0 && s.Epoch != samples[i-1].Epoch+1 {
			t.Fatalf("epoch %d follows %d", s.Epoch, samples[i-1].Epoch)
		}
		if s.ColdStart {
			continue
		}
		warm++
		if v, _ := s.Result.Agg.Value.AsInt(); v != 5 {
			t.Errorf("epoch %d: count = %d, want 5", s.Epoch, v)
		}
		if s.Result.Contributors != 5 {
			t.Errorf("epoch %d: contributors = %d", s.Epoch, s.Result.Contributors)
		}
	}
	if warm < 5 {
		t.Fatalf("warm samples = %d", warm)
	}
	if gap := samples[len(samples)-1].At - samples[len(samples)-2].At; gap < 150*time.Millisecond || gap > 400*time.Millisecond {
		t.Fatalf("sample gap = %v, want ~200ms", gap)
	}
}

// TestStandingTracksAttributeChanges checks that per-epoch local
// re-evaluation picks up membership and value changes without any
// re-installation.
func TestStandingTracksAttributeChanges(t *testing.T) {
	net, nodes := miniCluster(t, 16, standingConfig())
	for i, n := range nodes {
		n.Store().Set("g", value.Bool(i < 4))
		n.Store().Set("load", value.Int(10))
	}
	var last Sample
	mustSubscribe(t, nodes[0], "sum(load) where g = true every 100ms", func(s Sample) { last = s })
	net.RunFor(2 * time.Second)
	if v, _ := last.Result.Agg.Value.AsInt(); v != 40 {
		t.Fatalf("sum = %d, want 40", v)
	}
	// A member's value changes; the next epochs must reflect it.
	nodes[1].Store().Set("load", value.Int(60))
	net.RunFor(time.Second)
	if v, _ := last.Result.Agg.Value.AsInt(); v != 90 {
		t.Fatalf("sum after value change = %d, want 90", v)
	}
	// A node joins the group mid-stream.
	nodes[9].Store().Set("g", value.Bool(true))
	net.RunFor(2 * time.Second)
	if v, _ := last.Result.Agg.Value.AsInt(); v != 100 {
		t.Fatalf("sum after join = %d, want 100", v)
	}
}

// TestStandingIgnoresParentReport: mid re-parenting a node can install
// its own parent as a child. The parent's report already carries the
// node's subtree, so it is not filed.
func TestStandingIgnoresParentReport(t *testing.T) {
	net, nodes := miniCluster(t, 32, standingConfig())
	for _, n := range nodes {
		n.Store().Set("g", value.Bool(true))
	}
	mustSubscribe(t, nodes[0], "count(*) where g = true every 200ms", func(Sample) {})
	net.RunFor(2 * time.Second)
	for _, n := range nodes {
		for key, sub := range n.subs {
			if sub.root {
				continue
			}
			sub.kids.expect(sub.parent)
			n.Handle(sub.parent, EpochReportMsg{SID: key.sid, Group: key.group, Epoch: sub.epoch,
				State: aggregate.NewGrouped(sub.spec, 0), Contributors: 1000})
			if i, ok := sub.kids.find(sub.parent); ok && sub.kids[i].has {
				t.Fatalf("node %s filed its parent's report", n.Self().Short())
			}
			return
		}
	}
	t.Fatal("no non-root subscription entry")
}

// TestStandingCancelMidStream unsubscribes a live stream and verifies
// both that samples stop and that no node retains subscription state.
func TestStandingCancelMidStream(t *testing.T) {
	net, nodes := miniCluster(t, 32, standingConfig())
	for i, n := range nodes {
		n.Store().Set("g", value.Bool(i%3 == 0))
	}
	got := 0
	sid := mustSubscribe(t, nodes[0], "count(*) where g = true every 200ms", func(Sample) { got++ })
	net.RunFor(2 * time.Second)
	if got == 0 {
		t.Fatal("no samples before cancel")
	}
	if subEntries(nodes) == 0 {
		t.Fatal("no subscription state while live")
	}
	nodes[0].Unsubscribe(sid)
	// Let the cancel cascade (one hop per level) and in-flight reports
	// drain.
	net.RunFor(2 * time.Second)
	stopped := got
	net.RunFor(2 * time.Second)
	if got != stopped {
		t.Fatalf("samples kept arriving after unsubscribe: %d -> %d", stopped, got)
	}
	if n := subEntries(nodes); n != 0 {
		t.Fatalf("leaked %d subscription entries after cancel", n)
	}
}

// TestStandingFrontendDeathGC kills the subscribing front-end without
// any teardown protocol: lease renewals stop, the root's subscription
// expires, and every downstream entry is garbage-collected by the idle
// timeout (helped along by cancel-on-unknown-report).
func TestStandingFrontendDeathGC(t *testing.T) {
	net, nodes := miniCluster(t, 32, standingConfig())
	for i, n := range nodes {
		n.Store().Set("g", value.Bool(i%4 == 0))
	}
	mustSubscribe(t, nodes[0], "count(*) where g = true every 200ms", func(Sample) {})
	net.RunFor(2 * time.Second)
	if subEntries(nodes) == 0 {
		t.Fatal("no subscription state while live")
	}
	// Crash the front-end: no unsubscribe, no more renewals.
	nodes[0].Close()
	// SubTTL (3s) plus slack: everything must be gone.
	net.RunFor(8 * time.Second)
	if n := subEntries(nodes[1:]); n != 0 {
		t.Fatalf("leaked %d subscription entries after front-end death", n)
	}
}

// TestStandingCoverFlipReinstall exercises composite standing queries:
// the cover is chosen by size probes at install time, and the periodic
// renewal re-probes and re-installs onto a cheaper cover when relative
// group sizes flip, cancelling the old trees.
func TestStandingCoverFlipReinstall(t *testing.T) {
	net, nodes := miniCluster(t, 32, standingConfig())
	// Phase 1: a is tiny, b is large; the intersection is {0,1,2}.
	for i, n := range nodes {
		n.Store().Set("a", value.Bool(i < 3))
		n.Store().Set("b", value.Bool(i < 20))
	}
	var last Sample
	mustSubscribe(t, nodes[0], "count(*) where a = true and b = true every 200ms",
		func(s Sample) { last = s })
	net.RunFor(3 * time.Second)
	if v, _ := last.Result.Agg.Value.AsInt(); v != 3 {
		t.Fatalf("phase 1 count = %d, want 3", v)
	}
	if subEntriesFor(nodes, "a = true") == 0 {
		t.Fatal("phase 1: expected the subscription on the small group a")
	}
	if subEntriesFor(nodes, "b = true") != 0 {
		t.Fatal("phase 1: cover should not include b")
	}

	// Phase 2: sizes flip (intersection unchanged). Warm b's tree with
	// a few one-shot queries — the usual ambient load — so its status
	// plane adapts and the renewal's size probe sees its real cost.
	for i, n := range nodes {
		n.Store().Set("a", value.Bool(i < 20))
		n.Store().Set("b", value.Bool(i < 3))
	}
	req, err := ParseRequest("count(*) where b = true")
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 6; q++ {
		if res, err := runQuery(t, net, nodes[0], req); err != nil || res.Contributors != 3 {
			t.Fatalf("warm query %d: %v (res %+v)", q, err, res)
		}
		net.RunFor(300 * time.Millisecond)
	}
	// Renewals re-probe every second; give the flip and the old tree's
	// cancel cascade (plus the TTL backstop) time to settle.
	net.RunFor(8 * time.Second)
	if subEntriesFor(nodes, "b = true") == 0 {
		t.Fatal("phase 2: cover should have flipped to b")
	}
	if n := subEntriesFor(nodes, "a = true"); n != 0 {
		t.Fatalf("phase 2: %d stale entries left on a", n)
	}
	if last.ColdStart {
		t.Fatal("stream should be warm again after the flip")
	}
	if v, _ := last.Result.Agg.Value.AsInt(); v != 3 {
		t.Fatalf("phase 2 count = %d, want 3", v)
	}
}

// TestStandingGrouped checks that a grouped standing query streams
// per-key answers that track the group-by attribute.
func TestStandingGrouped(t *testing.T) {
	net, nodes := miniCluster(t, 24, standingConfig())
	for i, n := range nodes {
		n.Store().Set("slice", value.Str([]string{"s0", "s1", "s2"}[i%3]))
	}
	var last Sample
	mustSubscribe(t, nodes[0], "count(*) group by slice every 200ms", func(s Sample) { last = s })
	net.RunFor(3 * time.Second)
	if last.ColdStart {
		t.Fatal("stream still cold after 15 epochs")
	}
	if len(last.Result.Groups) != 3 {
		t.Fatalf("groups = %v", last.Result.Groups)
	}
	for k, r := range last.Result.Groups {
		if v, _ := r.Value.AsInt(); v != 8 {
			t.Errorf("%s = %d, want 8", k, v)
		}
	}
}

// TestStandingEmptyPlan checks that a provably empty standing query
// still ticks (empty samples) without touching the network.
func TestStandingEmptyPlan(t *testing.T) {
	net, nodes := miniCluster(t, 8, standingConfig())
	got := 0
	mustSubscribe(t, nodes[0], "count(*) where a = true and a = false every 100ms",
		func(s Sample) {
			got++
			if s.Result.Contributors != 0 || !s.Result.Stats.ShortCircuit {
				t.Errorf("empty plan sample: %+v", s.Result)
			}
		})
	before := subEntries(nodes)
	net.RunFor(time.Second)
	if got < 5 {
		t.Fatalf("empty-plan samples = %d", got)
	}
	if subEntries(nodes) != before {
		t.Fatal("empty plan must not install network state")
	}
}

// TestSubscribeValidation covers the rejection paths on both sides:
// Subscribe without a period, Execute with one.
func TestSubscribeValidation(t *testing.T) {
	_, nodes := miniCluster(t, 4, standingConfig())
	if _, err := nodes[0].Subscribe(Request{}, func(Sample) {}); err == nil {
		t.Error("invalid spec should fail")
	}
	req, err := ParseRequest("count(*)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].Subscribe(req, func(Sample) {}); err == nil {
		t.Error("subscribe without a period should fail")
	}
	req.Period = time.Second
	done := false
	nodes[0].Execute(req, func(_ Result, err error) {
		done = true
		if err == nil {
			t.Error("one-shot execute of a standing query should fail")
		}
	})
	if !done {
		t.Fatal("execute callback not invoked")
	}
}

// coalescedConfig is standingConfig with a wide Nagle window: half an
// epoch, so per-epoch reports, install refreshes, renewals, and cancels
// routinely share BatchMsg envelopes — the regime where a lost or
// re-ordered cancel would be most visible.
func coalescedConfig() Config {
	cfg := standingConfig()
	cfg.CoalesceWindow = 100 * time.Millisecond
	return cfg
}

// TestStandingCancelMidStreamCoalesced re-runs the mid-stream cancel
// lifecycle with aggressive wire coalescing: a second live subscription
// on the same tree keeps per-epoch EpochReportMsg traffic flowing, so
// the CancelMsg cascade of the unsubscribed query rides in the same
// batches — and must still tear down every entry while the survivor
// keeps streaming correct values.
func TestStandingCancelMidStreamCoalesced(t *testing.T) {
	net, nodes := miniCluster(t, 32, coalescedConfig())
	for i, n := range nodes {
		n.Store().Set("g", value.Bool(i%3 == 0))
	}
	gotA, gotB := 0, 0
	var lastB Sample
	sidA := mustSubscribe(t, nodes[0], "count(*) where g = true every 200ms", func(Sample) { gotA++ })
	mustSubscribe(t, nodes[1], "count(*) where g = true every 200ms", func(s Sample) { gotB++; lastB = s })
	net.RunFor(3 * time.Second)
	if gotA == 0 || gotB == 0 {
		t.Fatalf("no samples before cancel (A=%d B=%d)", gotA, gotB)
	}
	nodes[0].Unsubscribe(sidA)
	// Let the batched cancel cascade and in-flight reports drain.
	net.RunFor(2 * time.Second)
	stoppedA := gotA
	runningB := gotB
	net.RunFor(2 * time.Second)
	if gotA != stoppedA {
		t.Fatalf("cancelled stream kept delivering: %d -> %d", stoppedA, gotA)
	}
	if gotB <= runningB {
		t.Fatal("surviving stream stalled after the other was cancelled")
	}
	if v, _ := lastB.Result.Agg.Value.AsInt(); v != 11 {
		t.Fatalf("survivor count = %d, want 11", v)
	}
	for _, n := range nodes {
		for _, si := range n.Subs() {
			if si.SID == sidA {
				t.Fatalf("node %s leaked cancelled subscription state", n.Self().Short())
			}
		}
	}
}

// TestStandingTTLGCCoalesced crashes the front-end under the same wide
// coalescing window: lease renewals stop, and the TTL GC (helped by the
// batched cancel-on-unknown-report path) must still collect every
// subscription entry even though cancels and epoch reports share wire
// batches.
func TestStandingTTLGCCoalesced(t *testing.T) {
	net, nodes := miniCluster(t, 32, coalescedConfig())
	for i, n := range nodes {
		n.Store().Set("g", value.Bool(i%4 == 0))
	}
	mustSubscribe(t, nodes[0], "count(*) where g = true every 200ms", func(Sample) {})
	net.RunFor(2 * time.Second)
	if subEntries(nodes) == 0 {
		t.Fatal("no subscription state while live")
	}
	nodes[0].Close()
	// SubTTL (3s) plus slack: everything must be gone.
	net.RunFor(8 * time.Second)
	if n := subEntries(nodes[1:]); n != 0 {
		t.Fatalf("leaked %d subscription entries after front-end death under coalescing", n)
	}
}

// TestStandingClaimFollowsSubscriptionTable covers the composite-cover
// claim: a node reached through several trees of one subscription
// contributes on exactly one of them — the smallest group it holds an
// entry for — and Subs() reports it once, not once per tree. When the
// claiming entry goes away (its parent cancels the edge while the
// stream lives), the claim moves to the next tree at the node's next
// tick, and the stream never counts more members than exist.
func TestStandingClaimFollowsSubscriptionTable(t *testing.T) {
	const period = time.Second
	net, nodes := miniCluster(t, 48, Config{SubTTL: 10 * time.Minute, SubRenewInterval: 5 * time.Minute})
	members := int64(0)
	for i, n := range nodes {
		a, b, d := i%2 == 0, i%3 == 0, i%5 == 0
		n.Store().Set("a", value.Bool(a))
		n.Store().Set("b", value.Bool(b))
		n.Store().Set("d", value.Bool(d))
		if a || b || d {
			members++
		}
	}
	var samples []Sample
	sid := mustSubscribe(t, nodes[0], "count(*) where a = true or b = true or d = true every 1s",
		func(s Sample) { samples = append(samples, s) })
	net.RunFor(12 * period)
	groups := []string{"a = true", "b = true", "d = true"}
	// claims lists, per group in order, the local contribution of the
	// node's entry (-1 where it holds none).
	claims := func(n *Node) (out [3]int64) {
		for g, group := range groups {
			out[g] = -1
			if sub, ok := n.subs[subKey{sid, group}]; ok {
				out[g] = sub.builtSelf
			}
		}
		return out
	}
	// A member of all three groups that is a leaf of all three trees.
	var x *Node
	for i := len(nodes) - 1; i > 0 && x == nil; i-- {
		infos := nodes[i].Subs()
		leaf := len(infos) == len(groups)
		for _, si := range infos {
			leaf = leaf && !si.Root && si.Targets == 0 && si.Children == 0
		}
		if i%30 == 0 && leaf {
			x = nodes[i]
		}
	}
	if x == nil {
		t.Fatal("no member of all three groups is a leaf of all three trees")
	}
	if got := claims(x); got != [3]int64{1, 0, 0} {
		t.Fatalf("claims on (a, b, d) = %v, want the smallest group only", got)
	}
	var shown int64
	for _, si := range x.Subs() {
		shown += si.Contributors
	}
	if shown != 1 {
		t.Fatalf("Subs() shows %d contributions of a node on three trees, want 1", shown)
	}

	// The parent on the smallest tree cancels the edge.
	sub := x.subs[subKey{sid, groups[0]}]
	var parent *Node
	for _, n := range nodes {
		if n.self == sub.parent {
			parent = n
		}
	}
	psub := parent.subs[subKey{sid, groups[0]}]
	psub.kids.remove(x.self)
	psub.changed = true
	x.Handle(parent.self, CancelMsg{SID: sid, Group: groups[0]})
	if got := claims(x); got[0] != -1 {
		t.Fatalf("entry on %q survived its parent's cancel: %v", groups[0], got)
	}
	net.RunFor(period)
	if got := claims(x); got != [3]int64{-1, 1, 0} {
		t.Fatalf("one epoch after the drop, claims on (a, b, d) = %v, want the next tree", got)
	}
	net.RunFor(8 * period)
	for _, s := range samples {
		if s.Contributors > members {
			t.Errorf("epoch %d: %d contributors of %d members", s.Epoch, s.Contributors, members)
		}
	}
	last := samples[len(samples)-1]
	if v, _ := last.Result.Agg.Value.AsInt(); v != members || last.Contributors != members {
		t.Fatalf("after the claim moved: count %d, contributors %d, want %d", v, last.Contributors, members)
	}
}

// TestSampleGroupsSurviveShellReuse: the front-end hands its per-epoch
// accumulator back to the pool once a sample's results are read, so a
// delivered Sample.Result.Groups must not share its memory: reissuing
// the shell and refilling it with other keys and values leaves the
// delivered groups as they were.
func TestSampleGroupsSurviveShellReuse(t *testing.T) {
	net, nodes := miniCluster(t, 24, standingConfig())
	for i, n := range nodes {
		n.Store().Set("slice", value.Str([]string{"s0", "s1", "s2"}[i%3]))
		n.Store().Set("load", value.Float(float64(i)/4))
	}
	var last Sample
	mustSubscribe(t, nodes[0], "avg(load) group by slice every 200ms", func(s Sample) { last = s })
	net.RunFor(3 * time.Second)
	delivered := last.Result.Groups
	if len(delivered) != 3 {
		t.Fatalf("groups = %v", delivered)
	}
	want := fmt.Sprint(delivered)
	spec := aggregate.Spec{Kind: aggregate.KindAvg}
	for i := 0; i < 64; i++ {
		g := aggregate.NewGrouped(spec, 0)
		for k := 0; k < 8; k++ {
			g.AddKeyed(ids.FromUint64(uint64(k+1)), fmt.Sprintf("s%d", k), value.Float(1e6+float64(i*k)))
		}
		aggregate.Recycle(g)
	}
	net.RunFor(time.Second) // later epochs reissue the front-end's shells too
	if got := fmt.Sprint(delivered); got != want {
		t.Fatalf("delivered groups changed under pool reuse:\n got %s\nwant %s", got, want)
	}
}

// TestRejectedEpochReportsHandBackTheirHold: an epoch report that the
// receiver rejects still hands back the hold its message carries, so
// the sender's last Recycle returns the state to the pool. The three
// reject paths are an unknown subscription, a report from the entry's
// own parent (a re-parenting 2-cycle), and a report from a child the
// entry no longer installs.
func TestRejectedEpochReportsHandBackTheirHold(t *testing.T) {
	sender := ids.FromUint64(99)
	for _, tc := range []struct {
		name string
		// sub is the receiver's entry for the report, or nil for none.
		sub func(sid QueryID) *subState
	}{
		{"unknown-subscription", func(QueryID) *subState { return nil }},
		{"two-cycle", func(sid QueryID) *subState {
			return &subState{sid: sid, ge: &groupEntry{spec: globalGroup("v")}, parent: sender}
		}},
		{"not-installed", func(sid QueryID) *subState {
			return &subState{sid: sid, ge: &groupEntry{spec: globalGroup("v")}, parent: ids.FromUint64(98)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, nodes := miniCluster(t, 1, Config{})
			n := nodes[0]
			sid := QueryID{Origin: n.Self(), Num: 1}
			if sub := tc.sub(sid); sub != nil {
				n.subs[subKey{sid, sub.ge.spec.canon}] = sub
			}
			st := aggregate.NewGrouped(aggregate.Spec{Kind: aggregate.KindSum}, 0)
			st.AddKeyed(sender, "k", value.Int(1))
			st.Retain() // the sender's own hold
			st.Retain() // the message's hold
			n.Handle(sender, EpochReportMsg{SID: sid, Group: globalGroup("v").canon, Epoch: 1, State: st, Contributors: 1})
			aggregate.Recycle(st)
			if got := st.KeyCount(); got != 0 {
				t.Fatalf("state still holds %d keys after the sender's last hold went back: the rejected report kept its hold", got)
			}
		})
	}
}
