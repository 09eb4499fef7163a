package aggregate

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/value"
	"github.com/moara/moara/internal/wirefmt"
)

func keyOf(i int, nKeys int) string { return fmt.Sprintf("k%02d", i%nKeys) }

// TestGroupedScalarSpecialCase: an ungrouped query through the keyed
// engine (everything under ScalarKey) must equal the plain scalar state.
func TestGroupedScalarSpecialCase(t *testing.T) {
	for _, spec := range allSpecs() {
		g := NewGrouped(spec, 0)
		flat := spec.New()
		for i := 1; i <= 20; i++ {
			n := ids.FromUint64(uint64(i))
			v := value.Int(int64(i * 3 % 17))
			g.Add(n, v)
			flat.Add(n, v)
		}
		if !resultsEqual(g.Result(), flat.Result()) {
			t.Errorf("%v: grouped scalar %v != flat %v", spec, g.Result(), flat.Result())
		}
		if g.Nodes() != flat.Nodes() {
			t.Errorf("%v: nodes %d != %d", spec, g.Nodes(), flat.Nodes())
		}
		if g.KeyCount() != 1 || g.Truncated() {
			t.Errorf("%v: scalar state should hold exactly the one key", spec)
		}
	}
}

// TestGroupedPartialAggregationLaw extends the §3.1 merge law to the
// keyed engine: per-key results must be independent of how contributions
// are split across merged states.
func TestGroupedPartialAggregationLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, spec := range allSpecs() {
		const n, nKeys = 60, 7
		flat := NewGrouped(spec, 0)
		a, b := NewGrouped(spec, 0), NewGrouped(spec, 0)
		split := rng.Intn(n)
		for i := 0; i < n; i++ {
			node := ids.FromUint64(uint64(i + 1))
			key := keyOf(rng.Intn(nKeys*3), nKeys)
			v := value.Int(int64(rng.Intn(100)))
			flat.AddKeyed(node, key, v)
			if i < split {
				a.AddKeyed(node, key, v)
			} else {
				b.AddKeyed(node, key, v)
			}
		}
		if err := a.Merge(b); err != nil {
			t.Fatalf("%v: merge: %v", spec, err)
		}
		fr, ar := flat.Results(), a.Results()
		if len(fr) != len(ar) {
			t.Fatalf("%v: key sets differ: %d vs %d", spec, len(fr), len(ar))
		}
		for k, want := range fr {
			if !resultsEqual(ar[k], want) {
				t.Errorf("%v key %q: split %v != flat %v", spec, k, ar[k], want)
			}
		}
		if !resultsEqual(a.Result(), flat.Result()) {
			t.Errorf("%v: grand total differs", spec)
		}
	}
}

// TestGroupedCapSpill: past the cap, the lexicographically smallest keys
// stay exact and the remainder lands in Other, with the grand total
// unaffected.
func TestGroupedCapSpill(t *testing.T) {
	spec := Spec{Kind: KindSum}
	g := NewGrouped(spec, 3)
	total := int64(0)
	// Insert keys in descending order so eviction (not just overflow
	// routing) is exercised: each smaller newcomer demotes the largest.
	for i := 9; i >= 0; i-- {
		v := int64(i + 1)
		g.AddKeyed(ids.FromUint64(uint64(i+1)), keyOf(i, 10), value.Int(v))
		total += v
	}
	if !g.Truncated() {
		t.Fatal("cap 3 with 10 keys should truncate")
	}
	if got := g.KeyCount(); got != 3 {
		t.Fatalf("KeyCount = %d, want 3", got)
	}
	wantKeys := []string{"k00", "k01", "k02"}
	for i, k := range g.Keys() {
		if k != wantKeys[i] {
			t.Fatalf("Keys() = %v, want %v", g.Keys(), wantKeys)
		}
	}
	res := g.Results()
	for i, k := range wantKeys {
		if got, _ := res[k].Value.AsInt(); got != int64(i+1) {
			t.Errorf("%s = %v, want %d", k, res[k].Value, i+1)
		}
	}
	// k03..k09 spilled: 4+5+...+10 = 49.
	if got, _ := res[OtherKey].Value.AsInt(); got != 49 {
		t.Errorf("other = %v, want 49", res[OtherKey].Value)
	}
	if got, _ := g.Result().Value.AsInt(); got != total {
		t.Errorf("grand total = %v, want %d", g.Result().Value, total)
	}
	if g.Nodes() != 10 {
		t.Errorf("nodes = %d, want 10", g.Nodes())
	}
}

// TestGroupedMergeRespectsCap: merging states whose union exceeds the
// cap spills into Other rather than growing without bound.
func TestGroupedMergeRespectsCap(t *testing.T) {
	spec := Spec{Kind: KindCount}
	a, b := NewGrouped(spec, 4), NewGrouped(spec, 4)
	for i := 0; i < 4; i++ {
		a.AddKeyed(ids.FromUint64(uint64(i+1)), keyOf(i, 8), value.Int(1))
		b.AddKeyed(ids.FromUint64(uint64(i+100)), keyOf(i+4, 8), value.Int(1))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.KeyCount() != 4 {
		t.Fatalf("KeyCount = %d, want 4", a.KeyCount())
	}
	if !a.Truncated() {
		t.Fatal("merge past cap should truncate")
	}
	if a.Nodes() != 8 {
		t.Fatalf("nodes = %d, want 8", a.Nodes())
	}
}

// TestGroupedMergeErrors: spec and type mismatches are rejected.
func TestGroupedMergeErrors(t *testing.T) {
	g := NewGrouped(Spec{Kind: KindSum}, 0)
	if err := g.Merge(&SumState{}); err == nil {
		t.Fatal("merging a scalar state into the keyed engine should fail")
	}
	if err := g.Merge(NewGrouped(Spec{Kind: KindCount}, 0)); err == nil {
		t.Fatal("merging mismatched specs should fail")
	}
}

// TestGroupedWireRoundTrip: the keyed state survives its columnar
// layout intact, including nested per-key states and the spill bucket.
func TestGroupedWireRoundTrip(t *testing.T) {
	g := NewGrouped(Spec{Kind: KindAvg}, 2)
	for i := 0; i < 8; i++ {
		g.AddKeyed(ids.FromUint64(uint64(i+1)), keyOf(i, 4), value.Float(float64(i)))
	}
	if g.Spilled == 0 {
		t.Fatal("the sample did not spill")
	}
	b, err := appendState(nil, g)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, rest, err := readState(b)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v (%d bytes left)", err, len(rest))
	}
	if !reflect.DeepEqual(out, State(g)) {
		t.Fatalf("round trip mangled state:\n got %#v\nwant %#v", out, g)
	}
}

// TestParseSpecErrors is the table-driven error corpus for the
// function-name parser.
func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"top-3",
		"topx",
		"top-0",
		"sum()",
		"minmax",
		"grouped",
		"avg ustale",
	}
	for _, in := range bad {
		if sp, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) = %v, should fail", in, sp)
		}
	}
}

// TestGroupedDecodeRejectsBadKeyColumn: a key column is a sorted set
// bounded by the state's own cap. A repeated key would silently replace
// its first slot's contributions, so decode rejects it as corrupt, like
// keys out of order and more keys than the cap.
func TestGroupedDecodeRejectsBadKeyColumn(t *testing.T) {
	body := func(cap int, keys ...string) []byte {
		c := wirefmt.Codec{B: []byte{wireGrouped}}
		spec, limit, spilled, one := Spec{Kind: KindCount}, int64(cap), int64(0), int64(1)
		WireSpec(&c, &spec)
		c.Varint(&limit)
		c.Varint(&spilled)
		c.B = append(c.B, wireNilState)
		c.Len(len(keys), false, 1)
		for i := range keys {
			c.String(&keys[i])
		}
		for range keys {
			c.Varint(&one)
		}
		return c.B
	}
	if _, _, err := readState(body(2, "a", "b")); err != nil {
		t.Fatalf("a valid key column: %v", err)
	}
	for name, b := range map[string][]byte{
		"duplicate":  body(0, "a", "a"),
		"descending": body(0, "b", "a"),
		"over cap":   body(1, "a", "b"),
	} {
		if st, _, err := readState(b); !errors.Is(err, wirefmt.ErrCorrupt) {
			t.Errorf("%s: decoded %v, err %v; want ErrCorrupt", name, st, err)
		}
	}
}

// refGrouped is the map-backed keyed state the columns replaced, kept as
// the reference their semantics are held to: a key is created on demand;
// at the cap the largest held key is demoted into Other to admit a
// smaller newcomer, and a key above it goes straight to Other; a merge
// folds the other state's keys in ascending order, then its Other.
type refGrouped struct {
	spec    Spec
	cap     int
	groups  map[string]State
	other   State
	spilled int64
}

func newRef(spec Spec, cap int) *refGrouped {
	return &refGrouped{spec: spec, cap: cap, groups: map[string]State{}}
}

func (r *refGrouped) otherState() State {
	if r.other == nil {
		r.other = freshState(r.spec)
	}
	return r.other
}

func (r *refGrouped) slot(key string) (State, bool) {
	if st, ok := r.groups[key]; ok {
		return st, false
	}
	if r.cap > 0 && len(r.groups) >= r.cap {
		max := slices.Max(slices.Collect(maps.Keys(r.groups)))
		r.spilled++
		if key >= max {
			return r.otherState(), false
		}
		_ = r.otherState().Merge(r.groups[max])
		delete(r.groups, max)
	}
	st := freshState(r.spec)
	r.groups[key] = st
	return st, true
}

func (r *refGrouped) addKeyed(node ids.ID, key string, v value.Value) {
	if !v.IsValid() {
		return
	}
	st, created := r.slot(key)
	st.Add(node, v)
	if created && st.Nodes() == 0 {
		delete(r.groups, key)
	}
}

func (r *refGrouped) merge(o *refGrouped) {
	for _, k := range slices.Sorted(maps.Keys(o.groups)) {
		st, _ := r.slot(k)
		_ = st.Merge(o.groups[k])
	}
	if o.other != nil {
		_ = r.otherState().Merge(o.other)
	}
	r.spilled += o.spilled
}

// TestGroupedMatchesMapReference drives the columnar state and the map
// reference through the same random AddKeyed/Merge/Recycle sequences,
// for every registered kind under several caps, and requires every
// observable — keys, per-key and total results, contributions, spill
// count and the Other bucket — to be identical bit for bit. Float sums
// make the order of the folds into Other visible.
func TestGroupedMatchesMapReference(t *testing.T) {
	keys := []string{ScalarKey, NullKey, "a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	for _, kind := range Kinds() {
		spec := specFor(kind)
		for _, cap := range []int{0, 1, 3, 6} {
			for seed := int64(0); seed < 50; seed++ {
				rng := rand.New(rand.NewSource(seed*131 + int64(cap)*7 + int64(kind)))
				const n = 3
				cols, refs := make([]*GroupedState, n), make([]*refGrouped, n)
				for i := range cols {
					cols[i], refs[i] = NewGrouped(spec, cap), newRef(spec, cap)
				}
				for step := 0; step < 40; step++ {
					i := rng.Intn(n)
					switch op := rng.Intn(10); {
					case op < 6:
						node := ids.FromUint64(uint64(rng.Intn(50) + 1))
						key := keys[rng.Intn(len(keys))]
						var v value.Value
						switch rng.Intn(4) {
						case 0:
							v = value.Int(int64(rng.Intn(20)))
						case 1:
							v = value.Float(rng.Float64()*10 - 3)
						case 2:
							v = value.Str(keys[rng.Intn(len(keys))])
						default:
							v = value.Bool(rng.Intn(2) == 0)
						}
						cols[i].AddKeyed(node, key, v)
						refs[i].addKeyed(node, key, v)
					case op < 9:
						j := (i + 1 + rng.Intn(n-1)) % n
						if err := cols[i].Merge(cols[j]); err != nil {
							t.Fatal(err)
						}
						refs[i].merge(refs[j])
					default:
						Recycle(cols[i])
						cols[i], refs[i] = NewGrouped(spec, cap), newRef(spec, cap)
					}
					if err := sameAsRef(cols[i], refs[i]); err != nil {
						t.Fatalf("%v cap %d seed %d step %d: %v", spec, cap, seed, step, err)
					}
				}
			}
		}
	}
}

func sameAsRef(g *GroupedState, r *refGrouped) error {
	if want := slices.Sorted(maps.Keys(r.groups)); !slices.Equal(g.Keys(), want) {
		return fmt.Errorf("keys %q, want %q", g.Keys(), want)
	}
	want := make(map[string]Result, len(r.groups)+1)
	total := freshState(r.spec)
	var nodes int64
	for _, k := range slices.Sorted(maps.Keys(r.groups)) {
		want[k] = r.groups[k].Result()
		_ = total.Merge(r.groups[k])
		nodes += r.groups[k].Nodes()
	}
	if r.other != nil {
		want[OtherKey] = r.other.Result()
		_ = total.Merge(r.other)
		nodes += r.other.Nodes()
	}
	switch {
	case !reflect.DeepEqual(g.Results(), want):
		return fmt.Errorf("results %v, want %v", g.Results(), want)
	case !reflect.DeepEqual(g.Result(), total.Result()):
		return fmt.Errorf("total %v, want %v", g.Result(), total.Result())
	case g.Nodes() != nodes:
		return fmt.Errorf("nodes %d, want %d", g.Nodes(), nodes)
	case g.Spilled != r.spilled || g.Truncated() != (r.other != nil || r.spilled > 0):
		return fmt.Errorf("spilled %d (truncated %v), want %d", g.Spilled, g.Truncated(), r.spilled)
	case (g.Other == nil) != (r.other == nil):
		return fmt.Errorf("other bucket %v, want %v", g.Other, r.other)
	}
	return nil
}
