package core

import (
	"maps"
	"slices"
	"testing"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/predicate"
	"github.com/moara/moara/internal/simnet"
)

// recorder is a bare simulator endpoint standing in for a tree parent
// or child: it keeps every query response and cancel sent to it.
type recorder struct {
	resps   []ResponseMsg
	cancels []CancelMsg
}

func (r *recorder) Handle(from ids.ID, m any) {
	switch msg := m.(type) {
	case *BatchMsg:
		for _, it := range msg.Items {
			r.Handle(from, it)
		}
	case *ResponseMsg:
		r.resps = append(r.resps, *msg)
	case CancelMsg:
		r.cancels = append(r.cancels, msg)
	}
}

// attachRecorder registers a recorder on net under a fresh ID.
func attachRecorder(net *simnet.Network) (ids.ID, *recorder) {
	id := ids.FromKey("ledger-test-parent")
	rec := &recorder{}
	net.AddNode(id).BindHandler(rec)
	return id, rec
}

// ref hands a message to Handle as a pooled kind travels: by pointer,
// a fresh one per delivery, since Handle hands it back.
func ref[T any](m T) *T { return &m }

// sumQuery is a query for sum(a) over group, as a tree parent at from
// would forward it.
func sumQuery(from ids.ID, num uint64, group string) QueryMsg {
	return QueryMsg{
		QID:     QueryID{Origin: from, Num: num},
		Group:   group,
		Attr:    "a",
		Spec:    aggregate.Spec{Kind: aggregate.KindSum},
		ReplyTo: from,
	}
}

// TestLedgerReplaySameTree: a query arriving twice through the same
// tree is answered Dup the second time and not forwarded again.
func TestLedgerReplaySameTree(t *testing.T) {
	net, nodes := miniCluster(t, 16, Config{})
	for _, n := range nodes {
		n.Store().SetInt("a", 1)
	}
	parent, rec := attachRecorder(net)
	qm := sumQuery(parent, 1, globalGroup("a").canon)
	nodes[0].Handle(parent, ref(qm))
	net.RunFor(time.Second)
	if len(rec.resps) != 1 || rec.resps[0].Dup || rec.resps[0].Contributors != 16 {
		t.Fatalf("first arrival: responses %+v, want one answer from 16 contributors", rec.resps)
	}
	forwarded := net.Counter().Logical("moara.query")
	nodes[0].Handle(parent, ref(qm))
	net.RunFor(time.Second)
	if len(rec.resps) != 2 || !rec.resps[1].Dup {
		t.Fatalf("replay: responses %+v, want a Dup", rec.resps)
	}
	if got := net.Counter().Logical("moara.query"); got != forwarded {
		t.Fatalf("replay forwarded %d more queries", got-forwarded)
	}
}

// TestLedgerNonCanonicalGroup: a group spelled off its canonical form
// (a peer's bug, or a hostile frame) is the same tree as the canonical
// spelling, and its predicate state is collected like any other.
func TestLedgerNonCanonicalGroup(t *testing.T) {
	net, nodes := miniCluster(t, 1, Config{StateTTL: time.Second})
	n := nodes[0]
	n.Store().SetInt("a", 1)
	n.Store().SetBool("x", true)
	parent, rec := attachRecorder(net)
	n.Handle(parent, ref(sumQuery(parent, 1, "x=true")))
	n.Handle(parent, ref(sumQuery(parent, 1, "x = true")))
	net.RunFor(time.Second)
	if len(rec.resps) != 2 || rec.resps[0].Dup || !rec.resps[1].Dup {
		t.Fatalf("responses %+v, want an answer then a Dup", rec.resps)
	}
	if len(n.groups) != 1 || n.groups["x = true"] == nil {
		t.Fatalf("group table %v, want one record under the canonical form", slices.Collect(maps.Keys(n.groups)))
	}
	net.RunFor(10 * time.Second)
	if len(n.groups) != 0 {
		t.Fatalf("idle predicate state not collected: %d groups", len(n.groups))
	}
	n.Handle(parent, ref(sumQuery(parent, 2, "x=true")))
	net.RunFor(time.Second)
	if len(rec.resps) != 3 || rec.resps[2].Dup || rec.resps[2].Contributors != 1 {
		t.Fatalf("query after collection: %+v", rec.resps[2:])
	}
}

// TestLedgerTwoTreesAnswerOnce: a node on both trees of an `x or y`
// cover takes the query in each tree (and forwards it there) but
// contributes once, so the count and Contributors are exact.
func TestLedgerTwoTreesAnswerOnce(t *testing.T) {
	net, nodes := miniCluster(t, 24, Config{})
	want := int64(0)
	for i, n := range nodes {
		n.Store().SetBool("x", i%2 == 0)
		n.Store().SetBool("y", i%3 == 0)
		if i%2 == 0 || i%3 == 0 {
			want++
		}
	}
	req := Request{
		Attr: "*", Spec: aggregate.Spec{Kind: aggregate.KindCount},
		Pred: predicate.MustParse("x = true or y = true"),
	}
	res, err := runQuery(t, net, nodes[0], req)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Agg.Value.AsInt(); got != want || res.Contributors != want {
		t.Fatalf("count = %d from %d contributors, want %d from %d", got, res.Contributors, want, want)
	}
	for i, n := range nodes {
		if i%6 != 0 {
			continue
		}
		if len(n.ledger.cur) != 1 {
			t.Fatalf("node %d remembers %d queries, want 1", i, len(n.ledger.cur))
		}
		for _, r := range n.ledger.cur {
			if r.trees[0] == 0 || r.trees[1] == 0 || r.trees[2] != 0 || r.flags != recAnswered {
				t.Fatalf("node %d on both trees: record %+v, want two trees and one answer", i, r)
			}
		}
	}
}

// TestLedgerGenerationEdge: a rotation between two arrivals changes
// nothing — the second arrival through the same tree is still a replay,
// and a contribution claimed before the rotation is not made again
// through another tree after it.
func TestLedgerGenerationEdge(t *testing.T) {
	net, nodes := miniCluster(t, 1, Config{})
	n := nodes[0]
	n.Store().SetInt("a", 5)
	n.Store().SetBool("x", true)
	n.Store().SetBool("y", true)
	parent, rec := attachRecorder(net)
	viaX := sumQuery(parent, 1, "x = true")
	viaY := sumQuery(parent, 1, "y = true")
	rotate := func() { n.ledger.rotate(n.env.Now(), 0) }

	n.Handle(parent, ref(viaX))
	net.RunFor(time.Second)
	rotate()
	n.Handle(parent, ref(viaX))
	net.RunFor(time.Second)
	n.Handle(parent, ref(viaY))
	net.RunFor(time.Second)
	rotate()
	n.Handle(parent, ref(viaX))
	n.Handle(parent, ref(viaY))
	net.RunFor(time.Second)

	want := []struct {
		group   string
		dup     bool
		contrib int64
	}{
		{"x = true", false, 1},
		{"x = true", true, 0},  // replay across a rotation
		{"y = true", false, 0}, // second tree: forwarded, not answered again
		{"x = true", true, 0},  // both trees carried forward
		{"y = true", true, 0},
	}
	if len(rec.resps) != len(want) {
		t.Fatalf("got %d responses, want %d: %+v", len(rec.resps), len(want), rec.resps)
	}
	for i, w := range want {
		r := rec.resps[i]
		if r.Group != w.group || r.Dup != w.dup || r.Contributors != w.contrib {
			t.Fatalf("response %d = {%s dup=%v contributors=%d}, want {%s dup=%v contributors=%d}",
				i, r.Group, r.Dup, r.Contributors, w.group, w.dup, w.contrib)
		}
	}
	if got := n.Remembered(); got != 1 {
		t.Fatalf("Remembered = %d, want 1", got)
	}
}

// TestLedgerSpill: tree ids past the three inline slots, and ids too
// large for a slot, live in the spill map and survive rotation like
// inline ones.
func TestLedgerSpill(t *testing.T) {
	l := newLedger()
	qid := QueryID{Num: 7}
	gids := []uint32{0, 1, 70000, 2, 3}
	for _, g := range gids {
		if l.arrive(qid, g) {
			t.Fatalf("first arrival through %d reported as a replay", g)
		}
	}
	l.rotate(time.Second, 0)
	if !l.arrive(qid, 70000) || !l.arrive(qid, 3) || !l.arrive(qid, 1) {
		t.Fatal("replay through a spilled or inline tree not detected after rotation")
	}
	if l.arrive(qid, 4) || !l.claim(qid) {
		t.Fatal("new tree or first claim on a carried-forward record refused")
	}
	l.rotate(2*time.Second, 0)
	for _, g := range append(gids, 4) {
		if !l.arrive(qid, g) {
			t.Fatalf("tree %d forgotten after copy-forward and rotation", g)
		}
	}
	if l.claim(qid) {
		t.Fatal("second claim granted")
	}
	if l.size() != 1 {
		t.Fatalf("size = %d, want 1", l.size())
	}
	l.rotate(3*time.Second, 0)
	if !l.empty() {
		t.Fatal("record outlived two rotations without a touch")
	}
}

// TestLedgerWindowBounds: whatever the phase of the GC timer, a replay
// seenTTL−ε after the first arrival is answered Dup (§6.2's promise),
// and one after 2·seenTTL plus a GC period is answered afresh.
func TestLedgerWindowBounds(t *testing.T) {
	const ttl = seenTTL
	period := ttl / 2
	net, nodes := miniCluster(t, 1, Config{})
	n := nodes[0]
	n.Store().SetInt("a", 1)
	parent, rec := attachRecorder(net)
	group := globalGroup("a").canon
	const phases = 12
	for k := 0; k < phases; k++ {
		qm := sumQuery(parent, uint64(k+1), group)
		deliver := func() { n.Handle(parent, ref(qm)) }
		start := time.Duration(k) * ttl / 5
		net.Schedule(start, deliver)
		net.Schedule(start+ttl-time.Millisecond, deliver)
		net.Schedule(start+2*ttl+period+time.Millisecond, deliver)
	}
	net.RunFor(5 * ttl)
	dups := map[uint64][]bool{}
	for _, r := range rec.resps {
		dups[r.QID.Num] = append(dups[r.QID.Num], r.Dup)
	}
	for k := uint64(1); k <= phases; k++ {
		if d := dups[k]; len(d) != 3 || d[0] || !d[1] || d[2] {
			t.Fatalf("query %d: dup flags %v, want [false true false]", k, d)
		}
	}
}

// TestLedgerSoakBounded: under a stream of one-shots for 6·seenTTL no
// node remembers more queries than were issued in the last 2·seenTTL
// plus one GC period, and after 3·seenTTL of quiet it remembers none.
func TestLedgerSoakBounded(t *testing.T) {
	const ttl = seenTTL
	window := 2*ttl + ttl/2 + 100*time.Millisecond // + one query's flight
	net, nodes := miniCluster(t, 8, Config{})
	for _, n := range nodes {
		n.Store().SetInt("a", 1)
	}
	req := Request{Attr: "a", Spec: aggregate.Spec{Kind: aggregate.KindSum}}
	var issued []time.Duration
	peak := 0
	for i := 0; net.Now() < 6*ttl; i++ {
		issued = append(issued, net.Now())
		if _, err := runQuery(t, net, nodes[i%len(nodes)], req); err != nil {
			t.Fatal(err)
		}
		net.RunFor(ttl / 40)
		recent := 0
		for _, at := range issued {
			if net.Now()-at <= window {
				recent++
			}
		}
		for j, n := range nodes {
			r := n.Remembered()
			if r > recent {
				t.Fatalf("t=%v node %d remembers %d queries, only %d issued in the last %v",
					net.Now(), j, r, recent, window)
			}
			peak = max(peak, r)
		}
	}
	if peak == 0 {
		t.Fatal("no node ever remembered a query")
	}
	net.RunFor(3 * ttl)
	for j, n := range nodes {
		if r := n.Remembered(); r != 0 {
			t.Fatalf("node %d remembers %d queries after 3·seenTTL of quiet", j, r)
		}
	}
}

// incarnationEnv reports a fixed incarnation stamp, as the TCP
// transport does for an agent started at that instant.
type incarnationEnv struct {
	simnet.Env
	stamp uint64
}

func (e incarnationEnv) Incarnation() uint64 { return e.stamp }

// TestRestartQueriesAreNotReplays: a node restarted under its old ID
// numbers its queries from its incarnation, so peers that remember its
// previous life's query IDs answer its next query in full. Without an
// incarnation the restarted counter collides and the answer is lost.
func TestRestartQueriesAreNotReplays(t *testing.T) {
	net, nodes := miniCluster(t, 8, Config{})
	for _, n := range nodes {
		n.Store().SetInt("a", 1)
	}
	req := Request{Attr: "a", Spec: aggregate.Spec{Kind: aggregate.KindSum}}
	oracle := pastry.NewOracle(collectIDs(nodes))
	restart := func(env func(simnet.Env) simnet.Env) *Node {
		old := nodes[3]
		old.Close()
		net.RemoveNode(old.Self())
		raw := net.AddNode(old.Self())
		fresh := NewNode(env(raw), Config{}, pastry.Config{})
		raw.BindHandler(fresh)
		oracle.Fill(fresh.Overlay())
		fresh.Store().SetInt("a", 1)
		nodes[3] = fresh
		return fresh
	}
	sum := func(n *Node) (int64, int64) {
		res, err := runQuery(t, net, n, req)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := res.Agg.Value.AsInt()
		return v, res.Contributors
	}
	if v, c := sum(nodes[3]); v != 8 || c != 8 {
		t.Fatalf("before restart: sum %d from %d", v, c)
	}
	plain := restart(func(e simnet.Env) simnet.Env { return e })
	if v, c := sum(plain); v == 8 && c == 8 {
		t.Fatal("control: a restart without an incarnation did not collide; the test no longer exercises the ledger")
	}
	fresh := restart(func(e simnet.Env) simnet.Env { return incarnationEnv{e, 1 << 40} })
	for i := 0; i < 3; i++ {
		if v, c := sum(fresh); v != 8 || c != 8 {
			t.Fatalf("restarted query %d: sum %d from %d contributors, want 8 from 8", i, v, c)
		}
	}
}
