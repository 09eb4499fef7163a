package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/predicate"
	"github.com/moara/moara/internal/simnet"
	"github.com/moara/moara/internal/value"
)

// specOf gives every registered kind the parameters it needs.
func specOf(kind aggregate.Kind) aggregate.Spec {
	switch kind {
	case aggregate.KindTopK:
		return aggregate.Spec{Kind: kind, K: 3}
	case aggregate.KindTopKeys:
		return aggregate.Spec{Kind: kind, K: 4}
	case aggregate.KindQuantile:
		return aggregate.Spec{Kind: kind, Q: 0.99}
	}
	return aggregate.Spec{Kind: kind}
}

// childPartial is child j's fixed partial: 400 values from 400 distinct
// members over two group keys, with ties (min/max witnesses), decimal
// fractions (float sums) and enough values to compact a quantile sketch.
func childPartial(spec aggregate.Spec, j int) *aggregate.GroupedState {
	g := aggregate.NewGrouped(spec, 0)
	rng := rand.New(rand.NewSource(int64(j) + 1))
	for i := 0; i < 400; i++ {
		v := float64(rng.Intn(50)) + 0.1*float64(rng.Intn(10))
		g.AddKeyed(ids.FromUint64(uint64(1000*(j+1)+i)), []string{"a", "b"}[i%2], value.Float(v))
	}
	return g
}

// answer is what a parent can read off a ResponseMsg: the message with
// its state reduced to results (pooled shells differ in spare capacity,
// never in content).
type answer struct {
	Dup          bool
	Contributors int64
	Np           int
	Unknown      float64
	Nodes        int64
	Total        aggregate.Result
	Groups       map[string]aggregate.Result
}

func answerOf(rm ResponseMsg) answer {
	a := answer{Dup: rm.Dup, Contributors: rm.Contributors, Np: rm.Np, Unknown: rm.Unknown}
	if g, ok := rm.State.(*aggregate.GroupedState); ok {
		a.Nodes, a.Total, a.Groups = g.Nodes(), g.Result(), g.Results()
	}
	return a
}

// permutations lists every order of 0..k-1.
func permutations(k int) [][]int {
	if k == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(k - 1) {
		for at := 0; at <= len(p); at++ {
			out = append(out, slices.Insert(slices.Clone(p), at, k-1))
		}
	}
	return out
}

// oneShotRelay is a cluster whose first node, at the root of the global
// v tree, forwards to four children. The children are down, so only the
// test answers for them; a recorder plays the relay's parent.
type oneShotRelay struct {
	net    *simnet.Network
	relay  *Node
	parent ids.ID
	rec    *recorder
}

func newOneShotRelay(t *testing.T) *oneShotRelay {
	t.Helper()
	net, nodes := miniCluster(t, 6, Config{})
	for _, n := range nodes[1:] {
		net.SetDown(n.Self(), true)
	}
	nodes[0].Store().SetFloat("v", 24.5)
	parent, rec := attachRecorder(net)
	return &oneShotRelay{net: net, relay: nodes[0], parent: parent, rec: rec}
}

// query hands the relay a query and returns the children it waits on.
func (r *oneShotRelay) query(t *testing.T, spec aggregate.Spec) (QueryMsg, []ids.ID) {
	t.Helper()
	qm := QueryMsg{
		QID:     QueryID{Origin: r.parent, Num: 1},
		Group:   globalGroup("v").canon,
		Attr:    "v",
		Spec:    spec,
		ReplyTo: r.parent,
	}
	r.relay.Handle(r.parent, qm)
	ex := r.relay.execs[execKey{qm.QID, qm.Group}]
	if ex == nil {
		t.Fatal("relay did not wait on any child")
	}
	var kids []ids.ID
	for _, s := range ex.kids {
		kids = append(kids, s.id)
	}
	if len(kids) != 4 {
		t.Fatalf("relay forwards to %d children, want 4", len(kids))
	}
	return qm, kids
}

// respond hands the relay child j's answer to qm.
func (r *oneShotRelay) respond(qm QueryMsg, kids []ids.ID, j int) {
	r.relay.Handle(kids[j], ResponseMsg{
		QID:          qm.QID,
		Group:        qm.Group,
		State:        childPartial(qm.Spec, j),
		Contributors: 400,
		Np:           100 + j,
		Unknown:      0.25 * float64(j),
	})
}

// upward runs the network long enough for a timeout and returns the
// relay's one answer to its parent.
func (r *oneShotRelay) upward(t *testing.T) ResponseMsg {
	t.Helper()
	r.net.RunFor(3 * time.Second)
	if len(r.rec.resps) != 1 {
		t.Fatalf("relay sent %d responses, want 1", len(r.rec.resps))
	}
	return r.rec.resps[0]
}

// TestOneShotArrivalOrder drives one relay by hand: a query, then four
// children's fixed partials in all 24 orders, for every registered kind.
// The relay's answer must not depend on the order — also when the last
// response misses the child timeout, where it must equal the answer of
// every other order with the same late child. Over sockets the arrival
// order is not reproducible, so this is what makes a one-shot answer a
// function of the tree and the data.
func TestOneShotArrivalOrder(t *testing.T) {
	orders := permutations(4)
	for _, kind := range aggregate.Kinds() {
		spec := specOf(kind)
		t.Run(kind.String(), func(t *testing.T) {
			var want answer
			for i, order := range orders {
				r := newOneShotRelay(t)
				qm, kids := r.query(t, spec)
				for _, j := range order {
					r.respond(qm, kids, j)
				}
				got := answerOf(r.upward(t))
				if got.Contributors != 1+4*400 {
					t.Fatalf("order %v: %d contributors, want %d", order, got.Contributors, 1+4*400)
				}
				if i == 0 {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("order %v answers %+v,\norder %v answered %+v", order, got, orders[0], want)
				}
			}
		})
		t.Run(kind.String()+"/timeout", func(t *testing.T) {
			wantByLate := map[int]answer{}
			for _, order := range orders {
				r := newOneShotRelay(t)
				qm, kids := r.query(t, spec)
				for _, j := range order[:3] {
					r.respond(qm, kids, j)
				}
				got := answerOf(r.upward(t))
				late := order[3]
				r.respond(qm, kids, late)
				r.net.RunFor(time.Second)
				if len(r.rec.resps) != 1 {
					t.Fatalf("order %v: the late response produced a second answer", order)
				}
				if got.Contributors != 1+3*400 {
					t.Fatalf("order %v: %d contributors, want %d", order, got.Contributors, 1+3*400)
				}
				if want, ok := wantByLate[late]; !ok {
					wantByLate[late] = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("order %v (child %d late) answers %+v, another order answered %+v", order, late, got, want)
				}
			}
		})
	}
	t.Run("purge", func(t *testing.T) {
		// A child that answered and then died still counts; a child
		// that died before answering is no longer waited for, and when it
		// was the last one the purge itself finishes the aggregation.
		spec := aggregate.Spec{Kind: aggregate.KindCount}
		for _, diesLast := range []bool{false, true} {
			r := newOneShotRelay(t)
			qm, kids := r.query(t, spec)
			r.respond(qm, kids, 0)
			r.relay.onPeerRemoved(kids[0])
			if !diesLast {
				r.relay.onPeerRemoved(kids[1])
			}
			r.respond(qm, kids, 2)
			r.respond(qm, kids, 3)
			if diesLast {
				r.relay.onPeerRemoved(kids[1])
			}
			r.net.RunFor(100 * time.Millisecond)
			if len(r.rec.resps) != 1 {
				t.Fatalf("diesLast=%v: %d answers before the child timeout, want 1", diesLast, len(r.rec.resps))
			}
			got := answerOf(r.rec.resps[0])
			if got.Contributors != 1+3*400 || got.Nodes != 1+3*400 {
				t.Fatalf("diesLast=%v: %d contributors, %d counted, want %d of each",
					diesLast, got.Contributors, got.Nodes, 1+3*400)
			}
		}
	})
}

// TestFrontEndArrivalOrder: the front end merges the answers of a
// composite cover's trees in canon order, so the order the roots answer
// in does not reach the Result.
func TestFrontEndArrivalOrder(t *testing.T) {
	cases := []struct {
		spec aggregate.Spec
		pred string
	}{
		{specOf(aggregate.KindQuantile), "a = true or b = true"},
		{specOf(aggregate.KindSum), "a = true or b = true or d = true"},
	}
	for _, tc := range cases {
		var want Result
		for i, order := range permutations(strings.Count(tc.pred, " or ") + 1) {
			_, nodes := miniCluster(t, 4, Config{})
			n := nodes[0]
			req := Request{Attr: "v", Spec: tc.spec, Pred: predicate.MustParse(tc.pred)}
			plan, err := n.fe.planRequest(req, false)
			if err != nil {
				t.Fatal(err)
			}
			var got []Result
			fq := &feQuery{
				qid: n.nextQID(), req: req, plan: plan, costs: map[string]float64{},
				cb: func(r Result, err error) {
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, r)
				},
			}
			n.fe.pending[fq.qid] = fq
			n.fe.startSubQueries(fq)
			if len(fq.answers) != len(order) {
				t.Fatalf("%s: cover has %d trees, want %d", tc.pred, len(fq.answers), len(order))
			}
			for _, j := range order {
				n.Handle(ids.FromKey("root"), ResponseMsg{
					QID:          fq.qid,
					Group:        fq.answers[j].Group,
					State:        childPartial(tc.spec, j),
					Contributors: 400,
					Np:           50 + j,
					Unknown:      0.1,
				})
			}
			if len(got) != 1 || got[0].Contributors != int64(400*len(order)) {
				t.Fatalf("%s, order %v: results %+v, want one from %d contributors", tc.pred, order, got, 400*len(order))
			}
			if i == 0 {
				want = got[0]
			} else if !reflect.DeepEqual(got[0], want) {
				t.Fatalf("%s: roots answering in order %v changed the result:\n%+v\nwant %+v", tc.pred, order, got[0], want)
			}
		}
	}
}

// TestChildTable covers the table's bookkeeping: slots stay in id order
// whatever order they are added in; filing and replacing a partial
// report whether the slot moved; the expected flag goes from expect to
// answered; remove drops a child; fold merges in id order; and a
// subscription's cancel cascade runs in id order.
func TestChildTable(t *testing.T) {
	id := make([]ids.ID, 4)
	for i := range id {
		id[i] = ids.FromUint64(uint64(7919 * (i + 1)))
	}
	slices.SortFunc(id, ids.Cmp)
	a, b, c, d := id[0], id[1], id[2], id[3]
	spec := aggregate.Spec{Kind: aggregate.KindMax}
	tied := func(node ids.ID) *aggregate.GroupedState {
		g := aggregate.NewGrouped(spec, 0)
		g.AddKeyed(node, aggregate.ScalarKey, value.Int(10))
		return g
	}
	slotIDs := func(tb childTable) []ids.ID {
		var out []ids.ID
		for _, s := range tb {
			out = append(out, s.id)
		}
		return out
	}

	var tb childTable
	if !tb.expect(c) || !tb.expect(a) || tb.expect(c) {
		t.Fatal("expect must report only newly expected children")
	}
	if got := slotIDs(tb); !slices.Equal(got, []ids.ID{a, c}) {
		t.Fatalf("slots %v, want [a c]", got)
	}
	if !tb.waiting() {
		t.Fatal("two expected children, nothing waiting")
	}

	// File a reporter that was never expected, between the two.
	sb := tied(b)
	sb.Retain() // the reporting child keeps the state it sent
	i, found := tb.find(b)
	if found || !tb.file(i, found, childSlot{id: b, state: sb, contrib: 1}) {
		t.Fatal("a new reporter's slot must be filed and count as moved")
	}
	// Re-filing the same state only refreshes; a different one moves.
	sb.Retain()
	i, found = tb.find(b)
	if tb.file(i, found, childSlot{id: b, state: sb, contrib: 1, epoch: 2}) {
		t.Fatal("re-filing the held state must not count as moved")
	}
	if tb[i].epoch != 2 {
		t.Fatal("re-filing must refresh the slot")
	}
	// Filing keeps the expected flag it is handed.
	i, found = tb.find(c)
	if !tb.file(i, found, childSlot{id: c, expected: true, state: tied(c), contrib: 1}) || !tb[i].expected {
		t.Fatal("an expected child's first partial must move the slot and keep it expected")
	}
	i, found = tb.find(a)
	tb.file(i, found, childSlot{id: a, state: tied(a), contrib: 1})
	if tb[i].expected || !tb.waiting() {
		t.Fatal("a one-shot child that answered is no longer expected; c still is")
	}

	// fold: the tied maximum's witness is the first one merged.
	acc := aggregate.NewGrouped(spec, 0)
	tb.fold(acc)
	if w := acc.Result().Entries[0].Node; w != a || acc.Nodes() != 3 {
		t.Fatalf("fold: witness %v of %d, want the smallest id of 3", w.Short(), acc.Nodes())
	}

	// remove drops edge and partial alike.
	if !tb.remove(b) || tb.remove(d) {
		t.Fatal("remove must report whether a partial was held")
	}
	if got := slotIDs(tb); !slices.Equal(got, []ids.ID{a, c}) {
		t.Fatalf("slots %v, want [a c]", got)
	}
	tb.reset()
	if len(tb) != 0 {
		t.Fatal("reset left slots behind")
	}

	// Cascade: the cancel goes to installed and reporting children
	// alike, in id order, whatever order they were installed in.
	_, nodes := miniCluster(t, 1, Config{})
	n := nodes[0]
	sub := &subState{sid: QueryID{Origin: n.Self(), Num: 1}, ge: &groupEntry{spec: globalGroup("v")}}
	n.subs[subKey{sub.sid, sub.ge.spec.canon}] = sub
	sub.kids.expect(d)
	sub.kids.expect(b)
	i, found = sub.kids.find(c)
	sub.kids.file(i, found, childSlot{id: c, state: tied(c)})
	i, found = sub.kids.find(a)
	sub.kids.file(i, found, childSlot{id: a, state: tied(a)})
	n.dropSub(sub, true)
	if got := n.outTo; !slices.Equal(got, []ids.ID{a, b, c, d}) {
		t.Fatalf("cancel cascade went to %v, want id order", got)
	}
}
