package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/value"
)

// Statistical error-bound tests: the sketches' approximation contracts,
// checked across ≥ 20 seeds each. Everything here is deterministic —
// fixed seeds through math/rand's stable Go 1 source — so the bounds
// are chosen against theory (with headroom), not tuned to flakiness.

// hllStdErr is the HyperLogLog standard error for hllM registers.
var hllStdErr = 1.04 / math.Sqrt(float64(hllM))

// ingestPartitioned splits vals across parts leaf states and merges
// them in a random tree shape, as an aggregation tree would.
func ingestPartitioned(t *testing.T, rng *rand.Rand, spec Spec, vals []value.Value, parts int) State {
	t.Helper()
	states := make([]State, parts)
	for i := range states {
		states[i] = spec.New()
	}
	for i, v := range vals {
		states[rng.Intn(parts)].Add(ids.FromKey(fmt.Sprintf("ip-%d", i)), v)
	}
	return reduceRandom(t, rng, states)
}

// TestHLLErrorBound checks dcount's relative error against the theory:
// each seed's estimate within 3σ of truth (σ = 1.04/√m ≈ 2.3% at
// m=2048), and the root-mean-square error across seeds within ~1.3σ —
// i.e. the estimator is actually performing at its advertised accuracy,
// not just squeaking under a loose cap.
func TestHLLErrorBound(t *testing.T) {
	const seeds = 25
	var sumSq float64
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		truth := 3000 + rng.Intn(30000)
		vals := make([]value.Value, 0, truth)
		base := seed * 1_000_000
		for i := 0; i < truth; i++ {
			vals = append(vals, value.Int(base+int64(i)))
		}
		st := ingestPartitioned(t, rng, Spec{Kind: KindDCount}, vals, 1+rng.Intn(64))
		est, _ := st.Result().Value.AsFloat()
		relErr := (est - float64(truth)) / float64(truth)
		if math.Abs(relErr) > 3*hllStdErr {
			t.Errorf("seed %d: cardinality %d estimated %v (rel err %.4f > 3σ=%.4f)",
				seed, truth, est, relErr, 3*hllStdErr)
		}
		sumSq += relErr * relErr
	}
	if rms := math.Sqrt(sumSq / seeds); rms > 1.3*hllStdErr {
		t.Errorf("rms relative error %.4f across %d seeds, want ≤ 1.3σ = %.4f",
			rms, seeds, 1.3*hllStdErr)
	}
}

// TestHLLSmallRange checks the linear-counting regime: at leaf scale
// (what every per-node epoch report holds) the estimate is essentially
// exact, and the state stays in its cheap sparse form.
func TestHLLSmallRange(t *testing.T) {
	for _, truth := range []int{1, 2, 10, 50, hllSparseLimit - 1} {
		st := &DCountState{}
		for i := 0; i < truth; i++ {
			st.Add(ids.FromKey("n"), value.Int(int64(i)))
		}
		if st.Dense != nil {
			t.Fatalf("cardinality %d promoted to dense below the sparse limit", truth)
		}
		est, _ := st.Result().Value.AsInt()
		if diff := math.Abs(float64(est) - float64(truth)); diff > 1+0.02*float64(truth) {
			t.Errorf("cardinality %d estimated %d", truth, est)
		}
	}
}

// TestHLLPromotionEquivalence checks that sparse→dense promotion is
// representation-only: a dense-promoted state, a never-promoted ingest
// of the same values, and every sparse/dense merge combination all
// report the identical estimate.
func TestHLLPromotionEquivalence(t *testing.T) {
	mk := func(lo, hi int) *DCountState {
		st := &DCountState{}
		for i := lo; i < hi; i++ {
			st.Add(ids.FromKey("n"), value.Int(int64(i)))
		}
		return st
	}
	big := mk(0, 4000) // promoted
	if big.Dense == nil {
		t.Fatal("4000 distinct values did not promote")
	}
	small := mk(0, 100) // sparse
	if small.Dense != nil {
		t.Fatal("100 distinct values promoted")
	}
	// Subset merge must not change the estimate (registers are maxes).
	before := big.Result()
	if err := big.Merge(small); err != nil {
		t.Fatal(err)
	}
	if got := big.Result(); got.Value != before.Value {
		t.Errorf("merging a subset changed the estimate: %v -> %v", before.Value, got.Value)
	}
	// sparse.Merge(dense) forces promotion and must equal dense-side
	// ingest of the union.
	sp := mk(4000, 4100)
	if err := sp.Merge(mk(0, 4000)); err != nil {
		t.Fatal(err)
	}
	direct := mk(0, 4100)
	if sp.Result().Value != direct.Result().Value {
		t.Errorf("sparse∪dense merge %v != direct %v", sp.Result().Value, direct.Result().Value)
	}
}

// TestQuantileErrorBound checks rank error over merge trees: for q in
// {0.5, 0.95, 0.99}, the answer's true rank stays within 2% of target
// across ≥ 20 seeds, at N well past several compaction cascades.
func TestQuantileErrorBound(t *testing.T) {
	const (
		seeds = 21
		n     = 20000
		eps   = 0.02
	)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		q := q
		t.Run(fmt.Sprintf("q%v", q), func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(7000 + seed))
				vals := make([]value.Value, n)
				sorted := make([]float64, n)
				for i := range vals {
					// Heavy-tailed latencies: the regime p99 exists for.
					f := math.Exp(rng.NormFloat64())
					vals[i] = value.Float(f)
					sorted[i] = f
				}
				sort.Float64s(sorted)
				st := ingestPartitioned(t, rng, Spec{Kind: KindQuantile, Q: q}, vals, 1+rng.Intn(200))
				got, ok := st.Result().Value.AsFloat()
				if !ok {
					t.Fatalf("seed %d: non-numeric quantile result", seed)
				}
				lo := float64(sort.SearchFloat64s(sorted, got))
				hi := float64(sort.SearchFloat64s(sorted, math.Nextafter(got, math.Inf(1))))
				target := q * n
				if hi < target-eps*n || lo > target+eps*n {
					t.Errorf("seed %d q=%v: answer rank [%v,%v], target %v ± %v",
						seed, q, lo, hi, target, eps*n)
				}
			}
		})
	}
}

// TestTopKeysErrorBound checks Misra-Gries on a Zipf workload across
// ≥ 20 seeds: reported counts undercount truth by at most N/(K+1), the
// head of the distribution is always reported, and the top-1 key is
// ranked first.
func TestTopKeysErrorBound(t *testing.T) {
	const (
		seeds = 21
		n     = 20000
		k     = 8
	)
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		zipf := rand.NewZipf(rng, 1.3, 1, 5000)
		truth := make(map[string]int64)
		vals := make([]value.Value, n)
		for i := range vals {
			v := value.Int(int64(zipf.Uint64()))
			vals[i] = v
			truth[v.Key()]++
		}
		st := ingestPartitioned(t, rng, Spec{Kind: KindTopKeys, K: k}, vals, 1+rng.Intn(100))
		res := st.Result()
		bound := int64(n) / int64(k+1)
		seen := make(map[string]bool, len(res.Counts))
		for i, kc := range res.Counts {
			seen[kc.Key] = true
			tc := truth[kc.Key]
			if kc.Count > tc || kc.Count < tc-bound {
				t.Errorf("seed %d: key %q count %d outside [%d, %d]",
					seed, kc.Key, kc.Count, tc-bound, tc)
			}
			if i > 0 && kc.Count > res.Counts[i-1].Count {
				t.Errorf("seed %d: counts not sorted at %d", seed, i)
			}
		}
		for key, tc := range truth {
			if tc > bound && !seen[key] {
				t.Errorf("seed %d: heavy hitter %q (count %d > %d) missing", seed, key, tc, bound)
			}
		}
		// Zipf(1.3) concentrates ~30%+ of mass on key "0"; the sketch
		// must both report it and rank it first.
		if len(res.Counts) == 0 || res.Counts[0].Key != "0" {
			t.Errorf("seed %d: top key = %v, want 0", seed, res.Counts)
		}
	}
}

// TestTopKeysSizedByContents: K comes unbounded from the query text
// (topkeys(host, 1048576)), so the counter map must be sized by the
// keys it holds, not by K. Two one-value states merged stay far below
// what a K-sized map would cost (over 100 MB at K = 2^20).
func TestTopKeysSizedByContents(t *testing.T) {
	spec := Spec{Kind: KindTopKeys, K: 1 << 20}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, b := spec.New(), spec.New()
	a.Add(ids.FromUint64(1), value.Str("x"))
	b.Add(ids.FromUint64(2), value.Str("y"))
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("two one-value topkeys states at K=2^20 allocated %d bytes, want < 1 MB", grew)
	}
	if got := len(a.Result().Counts); got != 2 {
		t.Errorf("merged state holds %d keys, want 2", got)
	}
}

// TestUnionCollectSpill pins the cap-with-spill contracts: the SetCap
// smallest keys (union) / node IDs (collect) survive exactly, the spill
// is flagged (union) or exactly countable (collect), and survivors are
// identical whether ingested directly or merged from partitions.
func TestUnionCollectSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := SetCap * 3
	vals := make([]value.Value, n)
	for i := range vals {
		vals[i] = value.Str(fmt.Sprintf("key-%04d", rng.Intn(1000)))
	}
	t.Run("union", func(t *testing.T) {
		st := ingestPartitioned(t, rand.New(rand.NewSource(12)), Spec{Kind: KindUnion}, vals, 16)
		u := st.(*UnionState)
		if len(u.Keys) != SetCap || !u.Dropped {
			t.Fatalf("union kept %d keys, dropped=%v; want %d, true", len(u.Keys), u.Dropped, SetCap)
		}
		distinct := map[string]bool{}
		for _, v := range vals {
			distinct[v.Key()] = true
		}
		all := make([]string, 0, len(distinct))
		for k := range distinct {
			all = append(all, k)
		}
		sort.Strings(all)
		for i, k := range u.Keys {
			if k != all[i] {
				t.Fatalf("survivor %d = %q, want %q (the %d smallest keys exactly)", i, k, all[i], SetCap)
			}
		}
		if got, want := u.Nodes(), int64(n); got != want {
			t.Fatalf("union N = %d, want %d", got, want)
		}
	})
	t.Run("collect", func(t *testing.T) {
		st := ingestPartitioned(t, rand.New(rand.NewSource(13)), Spec{Kind: KindCollect}, vals, 16)
		c := st.(*CollectState)
		if len(c.Entries) != SetCap {
			t.Fatalf("collect kept %d entries, want %d", len(c.Entries), SetCap)
		}
		if got := c.Result(); got.Value != value.Int(int64(n)) {
			t.Fatalf("collect total = %v, want %d (spilled = N - kept = %d)",
				got.Value, n, n-SetCap)
		}
		// Survivors are the smallest node IDs, in order.
		for i := 1; i < len(c.Entries); i++ {
			if !ids.Less(c.Entries[i-1].Node, c.Entries[i].Node) {
				t.Fatalf("collect entries not in node-ID order at %d", i)
			}
		}
	})
	t.Run("union-under-cap", func(t *testing.T) {
		st := Spec{Kind: KindUnion}.New()
		st.Add(ids.FromKey("a"), value.Int(2))
		st.Add(ids.FromKey("b"), value.Int(1))
		st.Add(ids.FromKey("c"), value.Int(2)) // duplicate key
		u := st.(*UnionState)
		if len(u.Keys) != 2 || u.Dropped {
			t.Fatalf("union = %v dropped=%v, want 2 keys kept", u.Keys, u.Dropped)
		}
		if got := u.Result(); got.Value != value.Int(2) || len(got.Entries) != 2 {
			t.Fatalf("union result = %v", got)
		}
	})
}

// TestSketchStateBounded pins the headline property the bench figure
// measures: sketch state size is bounded as cardinality grows, where
// the exact enum equivalent grows linearly. The proxy here is the
// in-memory footprint of the mergeable pieces (registers, compactor
// slots, counters) rather than wire bytes — the experiment publishes
// the gob-encoded version of the same fact.
func TestSketchStateBounded(t *testing.T) {
	cards := []int{1000, 10000, 50000}
	sizes := make([]int, len(cards))
	for ci, card := range cards {
		st := &DCountState{}
		for i := 0; i < card; i++ {
			st.Add(ids.FromKey("n"), value.Int(int64(i)))
		}
		switch {
		case st.Dense != nil:
			sizes[ci] = len(st.Dense)
		default:
			sizes[ci] = 3 * len(st.Sparse)
		}
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > hllM {
			t.Fatalf("dcount state at cardinality %d = %d bytes, want ≤ %d", cards[i], sizes[i], hllM)
		}
	}
	// Quantile: levels stay capped.
	qs := &QuantileState{Q: 0.99}
	for i := 0; i < 100000; i++ {
		qs.Add(ids.FromKey("n"), value.Float(float64(i)))
	}
	items := 0
	for _, lvl := range qs.Levels {
		if len(lvl) > quantCap {
			t.Fatalf("quantile level over cap: %d > %d", len(lvl), quantCap)
		}
		items += len(lvl)
	}
	if items > quantCap*len(qs.Levels) {
		t.Fatalf("quantile holds %d items across %d levels", items, len(qs.Levels))
	}
	// Misra-Gries: at most K counters, ever.
	ts := &TopKeysState{K: 8}
	for i := 0; i < 100000; i++ {
		ts.Add(ids.FromKey("n"), value.Int(int64(i%5000)))
		if len(ts.Counts) > 8 {
			t.Fatalf("topkeys holds %d counters, want ≤ 8", len(ts.Counts))
		}
	}
}

// TestParseSpecArgTable is the accept/reject table for the aggregate
// function grammar, two-argument forms included.
func TestParseSpecArgTable(t *testing.T) {
	accept := []struct {
		name, arg string
		want      Spec
	}{
		{"sum", "", Spec{Kind: KindSum}},
		{"dcount", "", Spec{Kind: KindDCount}},
		{"countdistinct", "", Spec{Kind: KindDCount}},
		{"union", "", Spec{Kind: KindUnion}},
		{"collect", "", Spec{Kind: KindCollect}},
		{"top3", "", Spec{Kind: KindTopK, K: 3}},
		{"topkeys", "", Spec{Kind: KindTopKeys, K: DefaultTopKeys}},
		{"topkeys", "5", Spec{Kind: KindTopKeys, K: 5}},
		{"topkeys5", "", Spec{Kind: KindTopKeys, K: 5}},
		{"quantile", "0.99", Spec{Kind: KindQuantile, Q: 0.99}},
		{"percentile", "0.5", Spec{Kind: KindQuantile, Q: 0.5}},
		{"p99", "", Spec{Kind: KindQuantile, Q: 0.99}},
		{"p99.9", "", Spec{Kind: KindQuantile, Q: 0.999}},
		{"p50", "", Spec{Kind: KindQuantile, Q: 0.5}},
		{"P95", "", Spec{Kind: KindQuantile, Q: 0.95}},
	}
	for _, tc := range accept {
		got, err := ParseSpecArg(tc.name, tc.arg)
		if err != nil || got != tc.want {
			t.Errorf("ParseSpecArg(%q, %q) = %v, %v; want %v", tc.name, tc.arg, got, err, tc.want)
		}
	}
	reject := []struct{ name, arg string }{
		{"quantile", ""},    // rank required
		{"quantile", "0"},   // rank out of range
		{"quantile", "1"},   // rank out of range
		{"quantile", "1.5"}, // rank out of range
		{"quantile", "x"},   // not a number
		{"topkeys", "0"},    // non-positive k
		{"topkeys", "-2"},   // non-positive k
		{"topkeys", "2.5"},  // not an int
		{"topkeys0", ""},    // non-positive k
		{"sum", "3"},        // sum takes no argument
		{"dcount", "7"},     // dcount takes no argument
		{"p0", ""},          // percentile out of range
		{"p100", ""},        // percentile out of range
		{"p", ""},           // bare p is not a percentile
		{"pxx", ""},         // not a number
		{"top0", ""},        // non-positive k
		{"nosuchagg", ""},   // unknown function
		{"top3", "4"},       // prefix forms take no argument
	}
	for _, tc := range reject {
		if got, err := ParseSpecArg(tc.name, tc.arg); err == nil {
			t.Errorf("ParseSpecArg(%q, %q) = %v, want error", tc.name, tc.arg, got)
		}
	}
}

// TestQuantileSpecCanonical pins the canonicalization contract the
// service layer's subsumption sharing rides on: every spelling of the
// same quantile builds the identical Spec (bit-equal Q) and renders to
// the same canonical string, which itself re-parses.
func TestQuantileSpecCanonical(t *testing.T) {
	cases := []struct {
		a     Spec
		b     Spec
		canon string
	}{
		{mustSpec(t, "p99", ""), mustSpec(t, "quantile", "0.99"), "p99"},
		{mustSpec(t, "p99.9", ""), mustSpec(t, "quantile", "0.999"), "p99.9"},
		{mustSpec(t, "p50", ""), mustSpec(t, "quantile", "0.5"), "p50"},
		{mustSpec(t, "p0.1", ""), mustSpec(t, "quantile", "0.001"), "p0.1"},
		{mustSpec(t, "topkeys4", ""), mustSpec(t, "topkeys", "4"), "topkeys4"},
	}
	for _, tc := range cases {
		if tc.a != tc.b {
			t.Errorf("specs differ: %#v vs %#v", tc.a, tc.b)
		}
		if got := tc.a.String(); got != tc.canon {
			t.Errorf("canonical form = %q, want %q", got, tc.canon)
		}
		back, err := ParseSpec(tc.a.String())
		if err != nil || back != tc.a {
			t.Errorf("canonical %q did not round-trip: %v, %v", tc.a.String(), back, err)
		}
	}
}

func mustSpec(t *testing.T, name, arg string) Spec {
	t.Helper()
	s, err := ParseSpecArg(name, arg)
	if err != nil {
		t.Fatalf("ParseSpecArg(%q, %q): %v", name, arg, err)
	}
	return s
}

// TestSpecValidate covers programmatic construction the parser can't
// produce.
func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{Kind: KindSum}, {Kind: KindDCount}, {Kind: KindQuantile, Q: 0.99},
		{Kind: KindTopK, K: 1}, {Kind: KindTopKeys, K: 4},
		{Kind: KindUnion}, {Kind: KindCollect},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v", s, err)
		}
	}
	bad := []Spec{
		{Kind: KindInvalid},
		{Kind: Kind(200)},
		{Kind: KindQuantile},          // Q unset
		{Kind: KindQuantile, Q: 1},    // boundary
		{Kind: KindQuantile, Q: -0.5}, // negative
		{Kind: KindTopK},              // K unset
		{Kind: KindTopKeys, K: -1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%v) = nil, want error", s)
		}
	}
}
