package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/predicate"
	"github.com/moara/moara/internal/value"
)

func testGroup() groupSpec {
	return simpleGroup(predicate.MustParse("a = 1").(predicate.Simple))
}

func flatRegion(int) float64 { return 1 }

// TestStateMachineInvariants checks §4's three invariants under random
// event sequences:
//
//	update ∧ sat   ⇒ ¬prune
//	update ∧ ¬sat  ⇒ prune
//	¬update        ⇒ ¬prune
func TestStateMachineInvariants(t *testing.T) {
	self := ids.FromUint64(1)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		ps := newPredState(groupSpec{canon: "a = 1", attr: "a"})
		ps.level = 1
		var structural []pastry.BroadcastTarget
		for i := 0; i < rng.Intn(4); i++ {
			structural = append(structural, pastry.BroadcastTarget{
				ID:    ids.FromUint64(uint64(100 + i)),
				Level: 2,
			})
		}
		for step := 0; step < 60; step++ {
			switch rng.Intn(4) {
			case 0: // local flip
				ps.satLocal = !ps.satLocal
			case 1: // child status
				if len(structural) > 0 {
					id := structural[rng.Intn(len(structural))].ID
					if rng.Intn(2) == 0 {
						setChild(ps, id, childState{Prune: true})
					} else {
						setChild(ps, id, childState{
							UpdateSet: []SetEntry{{ID: id, Level: 2}},
							Np:        1,
						})
					}
				}
			case 2: // query
				ps.recordQueryEvent(self)
			case 3: // missed queries
				ps.recordMissed(rng.Intn(3), self)
			}
			changed := ps.recompute(structural, 2, self, flatRegion)
			if changed {
				ps.recordEvent(evChange)
			}
			ps.runPolicy(ModeAdaptive, 1, 3)

			switch {
			case ps.update && ps.sat && ps.prune:
				t.Fatalf("invariant violated: UPDATE ∧ SAT ⇒ ¬PRUNE (step %d)", step)
			case ps.update && !ps.sat && !ps.prune:
				t.Fatalf("invariant violated: UPDATE ∧ ¬SAT ⇒ PRUNE (step %d)", step)
			case !ps.update && ps.prune:
				t.Fatalf("invariant violated: ¬UPDATE ⇒ ¬PRUNE (step %d)", step)
			}
			// §4's liveness invariant: a node either keeps receiving
			// queries (parent view NO-PRUNE) or reports status. In
			// wireView terms: pruned ⇒ we are in UPDATE (will send
			// status on change).
			if prune, set := ps.wireView(self); prune {
				if !ps.update {
					t.Fatal("pruned wire view while in NO-UPDATE")
				}
				if len(set) != 0 {
					t.Fatal("pruned wire view must carry an empty updateSet")
				}
			}
		}
	}
}

// TestSatFollowsChildrenAndLocal mirrors Procedure 1: sat is set iff
// the local predicate holds, any child is unreported, or any child is
// NO-PRUNE.
func TestSatFollowsChildrenAndLocal(t *testing.T) {
	self := ids.FromUint64(1)
	child := ids.FromUint64(2)
	structural := []pastry.BroadcastTarget{{ID: child, Level: 2}}

	ps := newPredState(groupSpec{canon: "a = 1", attr: "a"})
	ps.level = 1

	// Unreported child counts as NO-PRUNE (default).
	ps.recompute(structural, 2, self, flatRegion)
	if !ps.sat {
		t.Fatal("unreported child must imply SAT")
	}
	// Child prunes; no local satisfaction -> NO-SAT.
	setChild(ps, child, childState{Prune: true})
	ps.recompute(structural, 2, self, flatRegion)
	if ps.sat {
		t.Fatal("pruned child and unsatisfied local must imply NO-SAT")
	}
	// Local satisfaction flips it back.
	ps.satLocal = true
	ps.recompute(structural, 2, self, flatRegion)
	if !ps.sat {
		t.Fatal("local satisfaction must imply SAT")
	}
	// Child reports an updateSet -> stays SAT even without local.
	ps.satLocal = false
	setChild(ps, child, childState{UpdateSet: []SetEntry{{ID: child, Level: 2}}, Np: 1})
	ps.recompute(structural, 2, self, flatRegion)
	if !ps.sat {
		t.Fatal("NO-PRUNE child must imply SAT")
	}
}

// TestSQPThresholdCollapse mirrors §5: updateSet is the full qSet below
// threshold and {self} at or above it.
func TestSQPThresholdCollapse(t *testing.T) {
	self := ids.FromUint64(1)
	mk := func(n int) []pastry.BroadcastTarget {
		var out []pastry.BroadcastTarget
		for i := 0; i < n; i++ {
			out = append(out, pastry.BroadcastTarget{ID: ids.FromUint64(uint64(10 + i)), Level: 2})
		}
		return out
	}
	for _, tc := range []struct {
		children  int
		threshold int
		wantSelf  bool
	}{
		{1, 2, false}, // |qSet|=1 < 2: pass through
		{2, 2, true},  // |qSet|=2 >= 2: collapse to {self}
		{3, 4, false},
		{4, 4, true},
		{1, 1, true}, // threshold=1 always collapses non-empty sets
	} {
		ps := newPredState(groupSpec{canon: "a = 1", attr: "a"})
		ps.level = 1
		structural := mk(tc.children)
		for _, bt := range structural {
			setChild(ps, bt.ID, childState{
				UpdateSet: []SetEntry{{ID: bt.ID, Level: bt.Level}},
				Np:        1,
			})
		}
		ps.recompute(structural, tc.threshold, self, flatRegion)
		gotSelf := len(ps.updateSet) == 1 && ps.updateSet[0].ID == self
		if gotSelf != tc.wantSelf {
			t.Errorf("children=%d threshold=%d: updateSet=%v (self-collapse=%v, want %v)",
				tc.children, tc.threshold, ps.updateSet, gotSelf, tc.wantSelf)
		}
	}
}

// TestAdaptationPolicyRules replays §4's transition table: 2qn < c
// moves to NO-UPDATE, 2qn > c moves to UPDATE, ties hold.
func TestAdaptationPolicyRules(t *testing.T) {
	self := ids.FromUint64(1)
	ps := newPredState(groupSpec{canon: "a = 1", attr: "a"})
	ps.level = 1

	// Initially NO-UPDATE (Procedure 2).
	if ps.update {
		t.Fatal("initial state must be NO-UPDATE")
	}
	// One query while out of the updateSet: qn=1, c=0 -> UPDATE.
	ps.recordQueryEvent(self)
	ps.runPolicy(ModeAdaptive, 1, 3)
	if !ps.update {
		t.Fatal("2qn > c must move to UPDATE")
	}
	// One change with kUpdate=1 window: c=1, qn=0 -> NO-UPDATE.
	ps.recordEvent(evChange)
	ps.runPolicy(ModeAdaptive, 1, 3)
	if ps.update {
		t.Fatal("2qn < c must move to NO-UPDATE")
	}
	// In NO-UPDATE (window 3): a query arrives: window [change, qn]:
	// 2*1 > 1 -> back to UPDATE.
	ps.recordQueryEvent(self)
	ps.runPolicy(ModeAdaptive, 1, 3)
	if !ps.update {
		t.Fatal("query after change within window must re-enter UPDATE")
	}
}

// TestModePins verifies the baseline modes pin the update flag.
func TestModePins(t *testing.T) {
	self := ids.FromUint64(1)
	ps := newPredState(groupSpec{canon: "a = 1", attr: "a"})
	ps.recordEvent(evChange)
	ps.recordEvent(evChange)
	ps.runPolicy(ModeAlwaysUpdate, 1, 3)
	if !ps.update {
		t.Fatal("Always-Update must pin UPDATE")
	}
	ps.recordQueryEvent(self)
	ps.runPolicy(ModeGlobal, 1, 3)
	if ps.update {
		t.Fatal("Global must pin NO-UPDATE")
	}
}

// TestPolicyWindowClamp: the policy window is clamped to [0, maxWindow].
// A window longer than the kept events reads exactly the kept events, and
// a negative one reads none: unclamped, it sliced past the end of the
// window and panicked on a node's first policy run.
func TestPolicyWindowClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	long := newPredState(groupSpec{canon: "a = 1", attr: "a"})
	capped := newPredState(groupSpec{canon: "a = 1", attr: "a"})
	for step := 0; step < 500; step++ {
		r := rng.Intn(3)
		for _, ps := range []*predState{long, capped} {
			switch r {
			case 0:
				ps.recordEvent(evChange)
			case 1:
				ps.recordEvent(evQueryIn)
			default:
				ps.recordEvent(evQueryOut)
			}
		}
		long.runPolicy(ModeAdaptive, 32, 32)
		capped.runPolicy(ModeAdaptive, maxWindow, maxWindow)
		if long.update != capped.update {
			t.Fatalf("step %d: window 32 moved to update=%v, window %d to %v", step, long.update, maxWindow, capped.update)
		}
		qn, qs, c := long.counters(32, 32)
		if step >= maxWindow && qn+qs+c != maxWindow {
			t.Fatalf("step %d: window 32 counted %d events, want the %d kept", step, qn+qs+c, maxWindow)
		}
	}
	if qn, qs, c := long.counters(-1, -1); qn+qs+c != 0 {
		t.Fatalf("a negative window counted %d events", qn+qs+c)
	}

	// End to end: one-shot and standing traffic under KNoUpdate = -1.
	net, nodes := miniCluster(t, 16, Config{KNoUpdate: -1, KUpdate: 32})
	for i, n := range nodes {
		n.Store().Set("g", value.Bool(i%2 == 0))
	}
	req, err := ParseRequest("count(*) where g = true")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runQuery(t, net, nodes[0], req)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Agg.Value.AsInt(); v != 8 {
		t.Fatalf("count = %d, want 8", v)
	}
	var last Sample
	mustSubscribe(t, nodes[3], "count(*) where g = true every 100ms", func(s Sample) { last = s })
	net.RunFor(2 * time.Second)
	if v, _ := last.Result.Agg.Value.AsInt(); v != 8 {
		t.Fatalf("standing count = %d, want 8", v)
	}
}

// TestSeqCatchUp verifies the §4 sequence-number mechanism: gaps count
// as missed queries in the event window.
func TestSeqCatchUp(t *testing.T) {
	self := ids.FromUint64(1)
	ps := newPredState(groupSpec{canon: "a = 1", attr: "a"})
	ps.lastSeq = 5

	if missed := ps.observeSeq(6, self); missed != 0 {
		t.Fatalf("consecutive seq should miss 0, got %d", missed)
	}
	if missed := ps.observeSeq(10, self); missed != 3 {
		t.Fatalf("seq 6->10 should miss 3, got %d", missed)
	}
	if ps.lastSeq != 10 {
		t.Fatalf("lastSeq = %d, want 10", ps.lastSeq)
	}
	// learnSeq (child piggyback): every query up to seq was missed.
	if missed := ps.learnSeq(12, self); missed != 2 {
		t.Fatalf("learnSeq 10->12 should miss 2, got %d", missed)
	}
	// Stale information is ignored.
	if missed := ps.learnSeq(4, self); missed != 0 {
		t.Fatalf("stale seq should miss 0, got %d", missed)
	}
}

// TestNpCounting verifies the §6.3 cost aggregate: np counts the
// receiving nodes of the query plane.
func TestNpCounting(t *testing.T) {
	self := ids.FromUint64(1)
	c1, c2, c3 := ids.FromUint64(11), ids.FromUint64(12), ids.FromUint64(13)
	structural := []pastry.BroadcastTarget{{ID: c1, Level: 2}, {ID: c2, Level: 2}, {ID: c3, Level: 2}}

	ps := newPredState(groupSpec{canon: "a = 1", attr: "a"})
	ps.level = 1
	setChild(ps, c1, childState{UpdateSet: []SetEntry{{ID: c1, Level: 2}}, Np: 4})
	setChild(ps, c2, childState{Prune: true})
	setChild(ps, c3, childState{UpdateSet: []SetEntry{{ID: c3, Level: 2}}, Np: 2})
	ps.recompute(structural, 8, self, flatRegion)
	// Children np: 4 + 0 + 2 = 6; self in NO-UPDATE receives queries: +1.
	if ps.np != 7 {
		t.Fatalf("np = %d, want 7", ps.np)
	}
	if ps.unknown != 0 {
		t.Fatalf("unknown = %v, want 0", ps.unknown)
	}
	// An unreported structural child contributes to the unknown mass.
	ps.children.remove(c3)
	ps.recompute(structural, 8, self, flatRegion)
	if ps.unknown != 1 {
		t.Fatalf("unknown = %v, want 1", ps.unknown)
	}
}

// TestRecomputeAdoptedChildrenInIDOrder: adopted (non-structural)
// children enter qSet in ascending id order, whatever order the map of
// children yields them in. qSet is the send order of disseminate and
// pushInstalls, and each simulated send draws its latency in call order.
func TestRecomputeAdoptedChildrenInIDOrder(t *testing.T) {
	self := ids.FromUint64(1)
	outOfOrder := 0
	for trial := 0; trial < 64; trial++ {
		ps := newPredState(groupSpec{canon: "a = 1", attr: "a"})
		ps.level = 1
		for k := 4; k >= 1; k-- {
			id := ids.FromUint64(uint64(100*trial + k))
			setChild(ps, id, childState{UpdateSet: []SetEntry{{ID: id, Level: 2}}, Np: 1})
		}
		ps.recompute(nil, 8, self, flatRegion)
		if len(ps.qSet) != 4 {
			t.Fatalf("trial %d: qSet %v, want the 4 adopted children", trial, ps.qSet)
		}
		for i := 1; i < len(ps.qSet); i++ {
			if !ids.Less(ps.qSet[i-1].ID, ps.qSet[i].ID) {
				outOfOrder++
				break
			}
		}
	}
	if outOfOrder > 0 {
		t.Fatalf("%d of 64 predStates list their adopted children out of id order", outOfOrder)
	}
}

// TestGroupSpecRoundTrip checks wire-canon round-tripping, including
// the global pseudo-group.
func TestGroupSpecRoundTrip(t *testing.T) {
	g := testGroup()
	back, err := parseGroupSpec(g.canon)
	if err != nil {
		t.Fatal(err)
	}
	if back.canon != g.canon || back.attr != g.attr {
		t.Fatalf("round trip %+v -> %+v", g, back)
	}
	glob := globalGroup("cpu")
	back, err = parseGroupSpec(glob.canon)
	if err != nil {
		t.Fatal(err)
	}
	if back.expr != nil || back.attr != "cpu" {
		t.Fatalf("global round trip: %+v", back)
	}
	if _, err := parseGroupSpec("a = 1 and b = 2"); err == nil {
		t.Fatal("composite predicates are not valid groups")
	}
}

// TestEvalLocal checks group predicate evaluation against a store.
func TestEvalLocal(t *testing.T) {
	g := testGroup()
	ps := newPredState(g)
	get := predicate.GetterFunc(func(name string) value.Value {
		if name == "a" {
			return value.Int(1)
		}
		return value.Value{}
	})
	if !ps.evalLocal(get) || !ps.satLocal {
		t.Fatal("a=1 should satisfy and report change")
	}
	if ps.evalLocal(get) {
		t.Fatal("unchanged satisfaction should not report change")
	}
	// Global groups always satisfy.
	gs := newPredState(globalGroup("x"))
	if !gs.evalLocal(get) || !gs.satLocal {
		t.Fatal("global group must always be satisfied")
	}
}

// setChild files cs as child id's status, as handleStatus does.
func setChild(ps *predState, id ids.ID, cs childState) {
	cs.id = id
	dst, _ := ps.children.put(id)
	*dst = cs
}
