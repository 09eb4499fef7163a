package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/value"
)

// TestPartialAggregationLawKillSubsets is the §3.1 partial-aggregation
// law extended to arbitrary kill subsets, checked at the state level:
// for random survivor subsets of a random population, merging the
// survivors' per-node partial states — in random tree shapes — must
// equal direct aggregation over the survivors, for every aggregate kind
// including the keyed GroupedState. This is the algebraic half of the
// churn-resilience argument: whatever subset of the tree survives a
// crash wave, the states that do reach the root compose to the exact
// aggregate over the nodes they represent.
func TestPartialAggregationLawKillSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := []Spec{
		{Kind: KindSum}, {Kind: KindCount}, {Kind: KindMin}, {Kind: KindMax},
		{Kind: KindAvg}, {Kind: KindStd}, {Kind: KindTopK, K: 3}, {Kind: KindEnum},
		// Merge-shape-exact sketch kinds ride the same oracle: HLL
		// registers merge by pointwise max, and the union/collect spill
		// policies keep shape-invariant survivor sets, so their Results
		// are byte-deterministic too. (Quantile and topkeys are only
		// bound-preserving; they get their own harness below.)
		{Kind: KindDCount}, {Kind: KindUnion}, {Kind: KindCollect},
	}
	for trial := 0; trial < 60; trial++ {
		n := 8 + rng.Intn(56)
		nodes := make([]ids.ID, n)
		vals := make([]value.Value, n)
		keys := make([]string, n)
		for i := range nodes {
			nodes[i] = ids.FromKey(fmt.Sprintf("n-%d-%d", trial, i))
			vals[i] = value.Int(int64(rng.Intn(500)))
			keys[i] = fmt.Sprintf("k%d", rng.Intn(5))
		}
		// Random survivor subset (possibly empty).
		var survivors []int
		for i := 0; i < n; i++ {
			if rng.Intn(3) != 0 {
				survivors = append(survivors, i)
			}
		}
		for _, spec := range kinds {
			grouped := rng.Intn(2) == 0
			keyOf := func(i int) string {
				if grouped {
					return keys[i]
				}
				return ScalarKey
			}
			// Per-survivor partial states, merged in a random tree
			// shape: repeatedly merge a random state into another until
			// one remains.
			parts := make([]*GroupedState, 0, len(survivors))
			for _, i := range survivors {
				st := NewGrouped(spec, 0)
				st.AddKeyed(nodes[i], keyOf(i), vals[i])
				parts = append(parts, st)
			}
			for len(parts) > 1 {
				i := rng.Intn(len(parts))
				j := rng.Intn(len(parts) - 1)
				if j >= i {
					j++
				}
				if err := parts[i].Merge(parts[j]); err != nil {
					t.Fatalf("merge: %v", err)
				}
				parts[j] = parts[len(parts)-1]
				parts = parts[:len(parts)-1]
			}
			merged := NewGrouped(spec, 0)
			if len(parts) == 1 {
				merged = parts[0]
			}
			// Oracle: direct aggregation over the survivors.
			direct := NewGrouped(spec, 0)
			for _, i := range survivors {
				direct.AddKeyed(nodes[i], keyOf(i), vals[i])
			}
			if got, want := merged.Nodes(), direct.Nodes(); got != want {
				t.Fatalf("trial %d %v: merged nodes %d, direct %d", trial, spec, got, want)
			}
			if got, want := merged.Nodes(), int64(len(survivors)); got != want {
				t.Fatalf("trial %d %v: contributions %d, survivors %d", trial, spec, got, want)
			}
			gr, dr := merged.Result(), direct.Result()
			if !value.Equal(gr.Value, dr.Value) {
				t.Fatalf("trial %d %v (grouped=%v): merged %v, direct %v over %d survivors",
					trial, spec, grouped, gr.Value, dr.Value, len(survivors))
			}
			if len(gr.Entries) != len(dr.Entries) {
				t.Fatalf("trial %d %v: merged %d entries, direct %d", trial, spec, len(gr.Entries), len(dr.Entries))
			}
			mg, dg := merged.Results(), direct.Results()
			if len(mg) != len(dg) {
				t.Fatalf("trial %d %v: merged %d groups, direct %d", trial, spec, len(mg), len(dg))
			}
			for k, dv := range dg {
				if !value.Equal(mg[k].Value, dv.Value) {
					t.Fatalf("trial %d %v: group %s merged %v, direct %v", trial, spec, k, mg[k].Value, dv.Value)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Generic merge-law harness over the registry: every registered kind —
// current and future — gets the partial-aggregation laws for free. For
// exact kinds (Approximate reports false, plus the merge-shape-exact
// dcount) any random partition of the population, merged in any random
// tree shape, must reproduce the single-state ingest Result bit for
// bit, in any merge order. For the bound-preserving sketches (quantile,
// topkeys) the law is weaker by design — mergeability means the error
// bound survives arbitrary merge trees — so the harness checks the
// merged Result against a ground-truth oracle within the published
// bound instead of against the single-state bytes.

// specFor builds a representative parameterized Spec for a kind.
func specFor(k Kind) Spec {
	switch k {
	case KindTopK:
		return Spec{Kind: k, K: 3}
	case KindTopKeys:
		return Spec{Kind: k, K: 4}
	case KindQuantile:
		return Spec{Kind: k, Q: 0.9}
	}
	return Spec{Kind: k}
}

// mergeShapeExact reports whether a kind's Result must be identical
// across merge shapes: everything except the rank/frequency sketches
// (whose compaction paths legitimately depend on the tree) and min/max
// (whose witness node on a tied extreme is first-seen, hence
// order-dependent — the extreme value itself is still exact).
func mergeShapeExact(k Kind) bool {
	switch k {
	case KindQuantile, KindTopKeys, KindMin, KindMax:
		return false
	}
	return true
}

// reduceRandom merges parts pairwise in a random tree shape until one
// state remains.
func reduceRandom(t *testing.T, rng *rand.Rand, parts []State) State {
	t.Helper()
	for len(parts) > 1 {
		i := rng.Intn(len(parts))
		j := rng.Intn(len(parts) - 1)
		if j >= i {
			j++
		}
		if err := parts[i].Merge(parts[j]); err != nil {
			t.Fatalf("merge: %v", err)
		}
		parts[j] = parts[len(parts)-1]
		parts = parts[:len(parts)-1]
	}
	return parts[0]
}

func TestMergeLawAllRegisteredKinds(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(0); seed < 25; seed++ {
				rng := rand.New(rand.NewSource(seed*1000 + int64(kind)))
				spec := specFor(kind)
				n := 30 + rng.Intn(200)
				nodes := make([]ids.ID, n)
				vals := make([]value.Value, n)
				for i := range nodes {
					nodes[i] = ids.FromKey(fmt.Sprintf("ml-%d-%d", seed, i))
					// A skewed small-range integer mix keeps heavy
					// hitters and duplicate set members interesting.
					if rng.Intn(4) == 0 {
						vals[i] = value.Float(float64(rng.Intn(40)) + 0.5)
					} else {
						vals[i] = value.Int(int64(rng.Intn(12) * rng.Intn(12)))
					}
				}
				direct := spec.New()
				for i := range nodes {
					direct.Add(nodes[i], vals[i])
				}
				// Random partition of the population into 1..8 parts,
				// each ingested separately.
				p := 1 + rng.Intn(8)
				assign := make([]int, n)
				for i := range assign {
					assign[i] = rng.Intn(p)
				}
				buildParts := func() []State {
					parts := make([]State, p)
					for i := range parts {
						parts[i] = spec.New()
					}
					for i := range nodes {
						parts[assign[i]].Add(nodes[i], vals[i])
					}
					return parts
				}
				merged := reduceRandom(t, rng, buildParts())
				if got, want := merged.Nodes(), direct.Nodes(); got != want {
					t.Fatalf("seed %d: merged nodes %d, direct %d", seed, got, want)
				}
				checkMergeLaw(t, seed, spec, merged, direct, vals)
				if mergeShapeExact(kind) {
					// Merge-order invariance: a second, differently
					// shaped merge tree must reproduce the same Result.
					again := reduceRandom(t, rng, buildParts())
					if !reflect.DeepEqual(again.Result(), merged.Result()) {
						t.Fatalf("seed %d: merge order changed the result:\n got %#v\nwant %#v",
							seed, again.Result(), merged.Result())
					}
				}
			}
		})
	}
}

// checkMergeLaw compares a merged-partition state against single-state
// ingest (exact kinds) or against ground truth within the sketch's
// published bound (quantile: rank error; topkeys: count error).
func checkMergeLaw(t *testing.T, seed int64, spec Spec, merged, direct State, vals []value.Value) {
	t.Helper()
	switch spec.Kind {
	case KindQuantile:
		checkQuantileBound(t, seed, spec.Q, merged, vals, "merged")
		checkQuantileBound(t, seed, spec.Q, direct, vals, "direct")
	case KindTopKeys:
		checkTopKeysBound(t, seed, spec.K, merged, vals, "merged")
		checkTopKeysBound(t, seed, spec.K, direct, vals, "direct")
	case KindMin, KindMax:
		// The extreme value is exact; the witness node on a tied value
		// is first-seen and therefore legitimately order-dependent.
		mr, dr := merged.Result(), direct.Result()
		if !value.Equal(mr.Value, dr.Value) || len(mr.Entries) != len(dr.Entries) {
			t.Fatalf("seed %d %v: merged %v != direct %v", seed, spec, mr, dr)
		}
	default:
		if !reflect.DeepEqual(merged.Result(), direct.Result()) {
			t.Fatalf("seed %d %v: merged result != direct:\n got %#v\nwant %#v",
				seed, spec, merged.Result(), direct.Result())
		}
	}
}

// checkQuantileBound asserts that the state's answer has true rank
// within epsilon of the target rank. quantCap=256 keeps worst-case rank
// error well under 2% at these sizes; 5% leaves deterministic headroom.
func checkQuantileBound(t *testing.T, seed int64, q float64, st State, vals []value.Value, label string) {
	t.Helper()
	var sorted []float64
	for _, v := range vals {
		if f, ok := v.AsFloat(); ok {
			sorted = append(sorted, f)
		}
	}
	slices.Sort(sorted)
	res := st.Result()
	got, ok := res.Value.AsFloat()
	if !ok {
		t.Fatalf("seed %d: %s quantile result not numeric: %#v", seed, label, res)
	}
	n := float64(len(sorted))
	// The answer's feasible rank range: [number of items < got,
	// number of items <= got].
	lo := float64(sort.SearchFloat64s(sorted, got))
	hi := float64(sort.SearchFloat64s(sorted, math.Nextafter(got, math.Inf(1))))
	if hi <= lo {
		t.Fatalf("seed %d: %s quantile answer %v is not a data point", seed, label, got)
	}
	target := q * n
	const eps = 0.05
	if hi < target-eps*n || lo > target+eps*n {
		t.Fatalf("seed %d: %s quantile rank [%v,%v] outside target %v ± %v",
			seed, label, lo, hi, target, eps*n)
	}
}

// checkTopKeysBound asserts the Misra-Gries guarantees: every reported
// count is an undercount by at most N/(K+1), and every key whose true
// frequency exceeds N/(K+1) is reported.
func checkTopKeysBound(t *testing.T, seed int64, k int, st State, vals []value.Value, label string) {
	t.Helper()
	truth := make(map[string]int64)
	var n int64
	for _, v := range vals {
		if v.IsValid() {
			truth[v.Key()]++
			n++
		}
	}
	bound := n / int64(k+1)
	res := st.Result()
	reported := make(map[string]int64, len(res.Counts))
	for _, kc := range res.Counts {
		reported[kc.Key] = kc.Count
		tc, ok := truth[kc.Key]
		if !ok {
			t.Fatalf("seed %d: %s reported phantom key %q", seed, label, kc.Key)
		}
		if kc.Count > tc || kc.Count < tc-bound {
			t.Fatalf("seed %d: %s key %q count %d outside [%d, %d]",
				seed, label, kc.Key, kc.Count, tc-bound, tc)
		}
	}
	for key, tc := range truth {
		if tc > bound {
			if _, ok := reported[key]; !ok {
				t.Fatalf("seed %d: %s heavy hitter %q (count %d > N/(K+1)=%d) missing",
					seed, label, key, tc, bound)
			}
		}
	}
}

// TestRecyclePoolRoundTripAllKinds dirties a state of every registered
// kind, recycles it, and checks that (a) the next state the pool hands
// out is indistinguishable from a factory-fresh one, and (b) parameter
// fields (K, Q) are re-stamped from the requesting spec, not inherited
// from the recycled carcass.
func TestRecyclePoolRoundTripAllKinds(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			spec := specFor(kind)
			dirty := spec.New()
			for i := 0; i < 400; i++ {
				dirty.Add(ids.FromKey(fmt.Sprintf("rc-%d", i)), value.Int(int64(i%60)))
			}
			Recycle(dirty)
			got := spec.New()
			if got.Nodes() != 0 {
				t.Fatalf("pooled state not empty: %d nodes", got.Nodes())
			}
			want := freshState(spec)
			if !reflect.DeepEqual(got.Result(), want.Result()) {
				t.Fatalf("pooled empty result differs from fresh:\n got %#v\nwant %#v",
					got.Result(), want.Result())
			}
			// Ingest equivalence after recycling.
			for i := 0; i < 50; i++ {
				v := value.Int(int64(i % 7))
				node := ids.FromKey(fmt.Sprintf("rc2-%d", i))
				got.Add(node, v)
				want.Add(node, v)
			}
			if !reflect.DeepEqual(got.Result(), want.Result()) {
				t.Fatalf("recycled state diverged after ingest:\n got %#v\nwant %#v",
					got.Result(), want.Result())
			}
			Recycle(got)
			// Parameter re-stamp: request a different K/Q from the pool.
			switch kind {
			case KindTopK, KindTopKeys:
				spec2 := Spec{Kind: kind, K: spec.K + 3}
				re := spec2.New()
				switch s := re.(type) {
				case *TopKState:
					if s.K != spec2.K {
						t.Fatalf("pooled TopKState K = %d, want %d", s.K, spec2.K)
					}
				case *TopKeysState:
					if s.K != spec2.K {
						t.Fatalf("pooled TopKeysState K = %d, want %d", s.K, spec2.K)
					}
				}
				Recycle(re)
			case KindQuantile:
				spec2 := Spec{Kind: kind, Q: 0.5}
				re := spec2.New()
				if s, ok := re.(*QuantileState); ok && s.Q != 0.5 {
					t.Fatalf("pooled QuantileState Q = %v, want 0.5", s.Q)
				}
				Recycle(re)
			}
		})
	}
}

// TestMergeIsPureAllRegisteredKinds is the law the standing-query epoch
// loop leans on when it re-sends last epoch's subtree state instead of
// rebuilding it: folding the same local value and the same child states,
// in the same order, into a fresh accumulator gives a deeply equal state
// every time. Merge is a pure function of its inputs — no clock, no
// hidden random source in the quantile compactor, nothing carried over
// from a pooled shell — and leaves its argument untouched (the children
// here are merged twice). TestMergeLawAllRegisteredKinds above says the
// rebuilt state is the right one; this says the rebuild may be skipped.
func TestMergeIsPureAllRegisteredKinds(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				rng := rand.New(rand.NewSource(seed*977 + int64(kind)))
				spec := specFor(kind)
				// Enough values per child that the quantile sketch
				// compacts inside the child and again in the merge.
				children := make([]*GroupedState, 2+rng.Intn(5))
				for c := range children {
					children[c] = NewGrouped(spec, 6)
					for i, n := 0, 100+rng.Intn(500); i < n; i++ {
						node := ids.FromKey(fmt.Sprintf("pure-%d-%d-%d", seed, c, i))
						key := fmt.Sprintf("k%d", rng.Intn(9))
						children[c].AddKeyed(node, key, value.Float(float64(rng.Intn(4000))/8))
					}
				}
				self := ids.FromKey(fmt.Sprintf("pure-%d-self", seed))
				build := func() *GroupedState {
					g := NewGrouped(spec, 6)
					g.AddKeyed(self, "k3", value.Float(12.5))
					for _, child := range children {
						if err := g.Merge(child); err != nil {
							t.Fatal(err)
						}
					}
					return g
				}
				first := build()
				// Dirty the pools in between: the second build draws
				// recycled shells and sub-states.
				Recycle(build())
				second := build()
				if !sameState(reflect.ValueOf(first), reflect.ValueOf(second)) || !reflect.DeepEqual(first.Results(), second.Results()) {
					t.Fatalf("seed %d: two merges of the same children differ:\n got %#v\nwant %#v", seed, second.Results(), first.Results())
				}
			}
		})
	}
}

// sameState is reflect.DeepEqual minus what a recycled shell keeps for
// its next user and no reader can see: an empty slice or map equals a
// nil one, and empty elements at the end of a slice (the quantile
// sketch's drained upper levels) equal no elements.
func sameState(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Interface, reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameState(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameState(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() || !sameState(it.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() > b.Len() {
			a, b = b, a
		}
		for i := 0; i < b.Len(); i++ {
			if i < a.Len() {
				if !sameState(a.Index(i), b.Index(i)) {
					return false
				}
			} else if e := b.Index(i); e.Kind() != reflect.Slice || e.Len() != 0 {
				return false
			}
		}
		return true
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return a.Float() == b.Float()
	case reflect.String:
		return a.String() == b.String()
	}
	return false
}
