package pastry

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/moara/moara/internal/ids"
)

func TestRoutingTableInstallRemove(t *testing.T) {
	owner := ids.MustHex("a0000000000000000000000000000000")
	var rt RoutingTable

	peer := ids.MustHex("b0000000000000000000000000000000") // differs at digit 0
	if !rt.Install(owner, peer) {
		t.Fatal("install failed")
	}
	if rt.Get(0, 0xb) != peer {
		t.Fatal("slot not filled")
	}
	// Second candidate for the same slot does not evict.
	peer2 := ids.MustHex("b1000000000000000000000000000000")
	if rt.Install(owner, peer2) {
		t.Fatal("occupied slot should not be replaced")
	}
	// Self and zero are rejected.
	if rt.Install(owner, owner) || rt.Install(owner, ids.Zero) {
		t.Fatal("self/zero installed")
	}
	// Deeper row.
	deep := ids.MustHex("a5000000000000000000000000000000") // shares 1 digit
	rt.Install(owner, deep)
	if rt.Get(1, 5) != deep {
		t.Fatal("deep slot not filled")
	}
	if !rt.Remove(owner, peer) || !rt.Get(0, 0xb).IsZero() {
		t.Fatal("remove failed")
	}
	if rt.Remove(owner, peer) {
		t.Fatal("double remove reported success")
	}
	if got := len(rt.Entries()); got != 1 {
		t.Fatalf("entries = %d", got)
	}
}

// denseTable is the reference routing table, every row allocated up
// front.
type denseTable struct {
	rows    [ids.Digits][ids.Radix]ids.ID
	version int
}

func (d *denseTable) set(r, c int, id ids.ID) {
	d.rows[r][c] = id
	d.version++
}

func (d *denseTable) install(owner, cand ids.ID) bool {
	if cand == owner || cand.IsZero() {
		return false
	}
	r := ids.CommonPrefixLen(owner, cand)
	if r >= ids.Digits || !d.rows[r][cand.Digit(r)].IsZero() {
		return false
	}
	d.set(r, cand.Digit(r), cand)
	return true
}

func (d *denseTable) remove(owner, dead ids.ID) bool {
	if dead.IsZero() {
		return false
	}
	r := ids.CommonPrefixLen(owner, dead)
	if r >= ids.Digits || d.rows[r][dead.Digit(r)] != dead {
		return false
	}
	d.set(r, dead.Digit(r), ids.Zero)
	return true
}

func (d *denseTable) entries() []ids.ID {
	var out []ids.ID
	for r := range d.rows {
		for _, id := range d.rows[r] {
			if !id.IsZero() {
				out = append(out, id)
			}
		}
	}
	return out
}

// TestRoutingTableMatchesDense runs seeded random Install/Remove/Set
// sequences against the dense reference: lazily allocated rows must be
// invisible to every reader — Get, Row, Entries (row-major order
// included) and Version — and a row never written must stay
// unallocated.
func TestRoutingTableMatchesDense(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		owner := ids.Random(rng)
		// candidate shares a random prefix of up to 7 digits with owner,
		// so installs land in the first rows the way real tables fill;
		// owner and zero turn up now and then.
		candidate := func() ids.ID {
			switch rng.Intn(20) {
			case 0:
				return owner
			case 1:
				return ids.Zero
			}
			id, shared := ids.Random(rng), rng.Intn(8)
			for d := 0; d < shared; d++ {
				id = id.WithDigit(d, owner.Digit(d))
			}
			return id
		}
		var (
			rt      RoutingTable
			ref     denseTable
			written [ids.Digits]bool
		)
		for step := 0; step < 400; step++ {
			var got, want bool
			switch op := rng.Intn(10); {
			case op < 6:
				id := candidate()
				got, want = rt.Install(owner, id), ref.install(owner, id)
				if want {
					written[ids.CommonPrefixLen(owner, id)] = true
				}
			case op < 9:
				dead := candidate()
				if es := ref.entries(); len(es) > 0 && rng.Intn(2) == 0 {
					dead = es[rng.Intn(len(es))]
				}
				got, want = rt.Remove(owner, dead), ref.remove(owner, dead)
			default:
				r, c := rng.Intn(8), rng.Intn(ids.Radix)
				id := ids.Zero
				if rng.Intn(4) > 0 {
					id = candidate()
				}
				rt.Set(r, c, id)
				ref.set(r, c, id)
				written[r] = true
			}
			if got != want {
				t.Fatalf("seed %d step %d: changed = %v, dense reference says %v", seed, step, got, want)
			}
			if rt.Version() != ref.version {
				t.Fatalf("seed %d step %d: version %d, want %d", seed, step, rt.Version(), ref.version)
			}
			for r := 0; r < ids.Digits; r++ {
				if rt.Row(r) != ref.rows[r] {
					t.Fatalf("seed %d step %d: row %d differs", seed, step, r)
				}
				for c := 0; c < ids.Radix; c++ {
					if rt.Get(r, c) != ref.rows[r][c] {
						t.Fatalf("seed %d step %d: Get(%d, %d) differs", seed, step, r, c)
					}
				}
				if allocated := rt.rows[r] != nil; allocated != written[r] {
					t.Fatalf("seed %d step %d: row %d allocated = %v, written = %v", seed, step, r, allocated, written[r])
				}
			}
			if es, want := rt.Entries(), ref.entries(); !slices.Equal(es, want) {
				t.Fatalf("seed %d step %d: entries %v, want %v", seed, step, es, want)
			}
		}
	}
}

func TestLeafSetKeepsClosest(t *testing.T) {
	owner := ids.FromUint64(1000)
	ls := NewLeafSet(owner, 2)
	for _, v := range []uint64{1001, 1002, 1003, 999, 998, 997} {
		ls.Install(ids.FromUint64(v))
	}
	members := ls.Members()
	sort.Slice(members, func(i, j int) bool { return ids.Less(members[i], members[j]) })
	want := []uint64{998, 999, 1001, 1002}
	if len(members) != len(want) {
		t.Fatalf("members = %d (%v)", len(members), members)
	}
	for i, m := range members {
		if m != ids.FromUint64(want[i]) {
			t.Fatalf("member %d = %s, want %d", i, m.Short(), want[i])
		}
	}
	if ls.Contains(ids.FromUint64(997)) {
		t.Fatal("distant node kept in leaf set")
	}
	if !ls.Remove(ids.FromUint64(998)) {
		t.Fatal("remove failed")
	}
}

func TestLeafSetClosest(t *testing.T) {
	owner := ids.FromUint64(1000)
	ls := NewLeafSet(owner, 4)
	for _, v := range []uint64{900, 950, 1050, 1100} {
		ls.Install(ids.FromUint64(v))
	}
	if got := ls.Closest(ids.FromUint64(1060)); got != ids.FromUint64(1050) {
		t.Fatalf("closest = %s", got.Short())
	}
	if got := ls.Closest(ids.FromUint64(1001)); got != owner {
		t.Fatalf("closest to self-adjacent key = %s, want owner", got.Short())
	}
}

func TestOracleOwnerMatchesBruteForce(t *testing.T) {
	members := make([]ids.ID, 120)
	for i := range members {
		members[i] = ids.FromKey(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	o := NewOracle(members)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		key := ids.Random(rng)
		want := members[0]
		for _, m := range members[1:] {
			if ids.CloserToKey(key, m, want) {
				want = m
			}
		}
		if got := o.Owner(key); got != want {
			t.Fatalf("owner(%s) = %s, want %s", key.Short(), got.Short(), want.Short())
		}
	}
}

func TestEstimateSize(t *testing.T) {
	for _, n := range []int{50, 500, 5000} {
		_, nodes, members := buildOracleNodes(t, n)
		est := nodes[members[0]].EstimateSize()
		if est < float64(n)/4 || est > float64(n)*4 {
			t.Errorf("n=%d: estimate %v off by more than 4x", n, est)
		}
	}
}

func TestJoinProtocolBuildsRoutableOverlay(t *testing.T) {
	// Protocol-mode join is exercised end to end through the cluster
	// package; here we check the join accumulates routing state.
	o, nodes, members := buildOracleNodes(t, 50)
	_ = o
	joined := 0
	for _, id := range members {
		if nodes[id].joined {
			joined++
		}
	}
	if joined != 50 {
		t.Fatalf("joined = %d", joined)
	}
	for _, id := range members[:5] {
		if got := len(nodes[id].rt.Entries()); got == 0 {
			t.Fatalf("node %s has empty table", id.Short())
		}
		if got := len(nodes[id].leaf.Members()); got == 0 {
			t.Fatalf("node %s has empty leaf set", id.Short())
		}
	}
}

func TestRemoveNodePurgesState(t *testing.T) {
	_, nodes, members := buildOracleNodes(t, 30)
	n := nodes[members[0]]
	entries := n.rt.Entries()
	if len(entries) == 0 {
		t.Skip("no entries")
	}
	gen := n.Gen()
	n.RemoveNode(entries[0])
	if n.Gen() == gen {
		t.Fatal("generation not bumped on removal")
	}
	for _, e := range n.rt.Entries() {
		if e == entries[0] {
			t.Fatal("dead node still in table")
		}
	}
}
