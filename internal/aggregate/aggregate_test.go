package aggregate

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/value"
)

func allSpecs() []Spec {
	return []Spec{
		{Kind: KindSum},
		{Kind: KindCount},
		{Kind: KindMin},
		{Kind: KindMax},
		{Kind: KindAvg},
		{Kind: KindTopK, K: 3},
		{Kind: KindEnum},
		{Kind: KindStd},
	}
}

func contributions(vals []int16) []Entry {
	out := make([]Entry, len(vals))
	for i, v := range vals {
		out[i] = Entry{Node: ids.FromUint64(uint64(i + 1)), Value: value.Int(int64(v))}
	}
	return out
}

// foldSplit aggregates contributions with an arbitrary split point: the
// first part into one state, the rest into another, merged at the end.
func foldSplit(spec Spec, entries []Entry, split int) Result {
	a, b := spec.New(), spec.New()
	for i, e := range entries {
		if i < split {
			a.Add(e.Node, e.Value)
		} else {
			b.Add(e.Node, e.Value)
		}
	}
	if err := a.Merge(b); err != nil {
		panic(err)
	}
	return a.Result()
}

func resultsEqual(x, y Result) bool {
	if !value.Equal(x.Value, y.Value) && (x.Value.IsValid() || y.Value.IsValid()) {
		return false
	}
	if len(x.Entries) != len(y.Entries) {
		return false
	}
	for i := range x.Entries {
		if x.Entries[i].Node != y.Entries[i].Node || !value.Equal(x.Entries[i].Value, y.Entries[i].Value) {
			return false
		}
	}
	return true
}

// TestPartialAggregationLaw verifies §3.1's requirement: merging the
// partial aggregates of disjoint node sets equals aggregating their
// union, independent of how the set is split.
func TestPartialAggregationLaw(t *testing.T) {
	for _, spec := range allSpecs() {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			f := func(vals []int16, splitRaw uint8) bool {
				entries := contributions(vals)
				base := foldSplit(spec, entries, len(entries))
				split := 0
				if len(entries) > 0 {
					split = int(splitRaw) % (len(entries) + 1)
				}
				return resultsEqual(base, foldSplit(spec, entries, split))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMergeTreeShapedEqualsFlat aggregates through a random tree shape
// (the real dissemination pattern) and compares against flat folding.
func TestMergeTreeShapedEqualsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, spec := range allSpecs() {
		for trial := 0; trial < 50; trial++ {
			n := rng.Intn(40) + 1
			entries := make([]Entry, n)
			for i := range entries {
				entries[i] = Entry{Node: ids.FromUint64(uint64(i + 1)), Value: value.Int(int64(rng.Intn(200) - 100))}
			}
			flat := spec.New()
			for _, e := range entries {
				flat.Add(e.Node, e.Value)
			}
			// Random binary merge tree.
			states := make([]State, n)
			for i, e := range entries {
				states[i] = spec.New()
				states[i].Add(e.Node, e.Value)
			}
			for len(states) > 1 {
				i := rng.Intn(len(states) - 1)
				if err := states[i].Merge(states[i+1]); err != nil {
					t.Fatalf("%s: merge: %v", spec, err)
				}
				states = append(states[:i+1], states[i+2:]...)
			}
			if !resultsEqual(flat.Result(), states[0].Result()) {
				t.Fatalf("%s: tree-shaped merge diverged: %v vs %v",
					spec, flat.Result(), states[0].Result())
			}
		}
	}
}

func TestSumBoolsCountFlags(t *testing.T) {
	s := (Spec{Kind: KindSum}).New()
	s.Add(ids.FromUint64(1), value.Bool(true))
	s.Add(ids.FromUint64(2), value.Bool(false))
	s.Add(ids.FromUint64(3), value.Bool(true))
	if v, _ := s.Result().Value.AsInt(); v != 2 {
		t.Fatalf("sum of bools = %d, want 2", v)
	}
}

func TestSumIgnoresNonNumeric(t *testing.T) {
	s := (Spec{Kind: KindSum}).New()
	s.Add(ids.FromUint64(1), value.Str("x"))
	s.Add(ids.FromUint64(2), value.Value{})
	s.Add(ids.FromUint64(3), value.Int(5))
	if v, _ := s.Result().Value.AsInt(); v != 5 {
		t.Fatalf("sum = %d, want 5", v)
	}
	if s.Nodes() != 1 {
		t.Fatalf("nodes = %d, want 1", s.Nodes())
	}
}

func TestCountStar(t *testing.T) {
	s := (Spec{Kind: KindCount}).New()
	for i := 0; i < 7; i++ {
		s.Add(ids.FromUint64(uint64(i)), value.Int(1))
	}
	if v, _ := s.Result().Value.AsInt(); v != 7 {
		t.Fatalf("count = %d", v)
	}
}

func TestMinMaxTrackReporter(t *testing.T) {
	maxS := (Spec{Kind: KindMax}).New()
	minS := (Spec{Kind: KindMin}).New()
	for i, v := range []int64{5, 9, 1, 9, 3} {
		node := ids.FromUint64(uint64(i + 1))
		maxS.Add(node, value.Int(v))
		minS.Add(node, value.Int(v))
	}
	maxR, minR := maxS.Result(), minS.Result()
	if v, _ := maxR.Value.AsInt(); v != 9 {
		t.Fatalf("max = %d", v)
	}
	if v, _ := minR.Value.AsInt(); v != 1 {
		t.Fatalf("min = %d", v)
	}
	if minR.Entries[0].Node != ids.FromUint64(3) {
		t.Fatalf("min reporter = %s", minR.Entries[0].Node.Short())
	}
}

func TestAvg(t *testing.T) {
	s := (Spec{Kind: KindAvg}).New()
	for i, v := range []int64{2, 4, 6} {
		s.Add(ids.FromUint64(uint64(i+1)), value.Int(v))
	}
	if f, _ := s.Result().Value.AsFloat(); f != 4 {
		t.Fatalf("avg = %v", f)
	}
	empty := (Spec{Kind: KindAvg}).New()
	if empty.Result().Value.IsValid() {
		t.Fatal("avg of empty set should be invalid")
	}
}

func TestTopKOrderingAndBound(t *testing.T) {
	s := (Spec{Kind: KindTopK, K: 3}).New()
	for i, v := range []int64{10, 50, 30, 50, 20, 40} {
		s.Add(ids.FromUint64(uint64(i+1)), value.Int(v))
	}
	r := s.Result()
	if len(r.Entries) != 3 {
		t.Fatalf("top3 returned %d entries", len(r.Entries))
	}
	want := []int64{50, 50, 40}
	for i, e := range r.Entries {
		if v, _ := e.Value.AsInt(); v != want[i] {
			t.Fatalf("top3[%d] = %d, want %d", i, v, want[i])
		}
	}
}

func TestEnumListsEveryone(t *testing.T) {
	s := (Spec{Kind: KindEnum}).New()
	for i := 0; i < 5; i++ {
		s.Add(ids.FromUint64(uint64(i+1)), value.Str(fmt.Sprintf("host-%d", i)))
	}
	r := s.Result()
	if len(r.Entries) != 5 {
		t.Fatalf("enum entries = %d", len(r.Entries))
	}
	if v, _ := r.Value.AsInt(); v != 5 {
		t.Fatalf("enum count value = %d", v)
	}
}

func TestParseSpec(t *testing.T) {
	tests := []struct {
		in   string
		want Spec
		err  bool
	}{
		{"sum", Spec{Kind: KindSum}, false},
		{"COUNT", Spec{Kind: KindCount}, false},
		{"avg", Spec{Kind: KindAvg}, false},
		{"mean", Spec{Kind: KindAvg}, false},
		{"top3", Spec{Kind: KindTopK, K: 3}, false},
		{"top", Spec{Kind: KindTopK, K: 1}, false},
		{"top0", Spec{}, true},
		{"median", Spec{}, true},
		{"enumerate", Spec{Kind: KindEnum}, false},
	}
	for _, tc := range tests {
		got, err := ParseSpecArg(tc.in, "")
		if tc.err {
			if err == nil {
				t.Errorf("ParseSpecArg(%q, \"\") should fail", tc.in)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseSpecArg(%q, \"\") = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestStdDeviation(t *testing.T) {
	s := (Spec{Kind: KindStd}).New()
	for i, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(ids.FromUint64(uint64(i+1)), value.Float(v))
	}
	got, _ := s.Result().Value.AsFloat()
	if got < 1.999 || got > 2.001 { // classic example: std = 2
		t.Fatalf("std = %v, want 2", got)
	}
	empty := (Spec{Kind: KindStd}).New()
	if empty.Result().Value.IsValid() {
		t.Fatal("std of empty set should be invalid")
	}
	if sp, err := ParseSpecArg("stddev", ""); err != nil || sp.Kind != KindStd {
		t.Fatalf("ParseSpecArg(stddev) = %v, %v", sp, err)
	}
}

func TestMergeTypeMismatch(t *testing.T) {
	s := (Spec{Kind: KindSum}).New()
	if err := s.Merge((Spec{Kind: KindCount}).New()); err == nil {
		t.Fatal("merging mismatched states should fail")
	}
	mx := (Spec{Kind: KindMax}).New()
	if err := mx.Merge((Spec{Kind: KindMin}).New()); err == nil {
		t.Fatal("merging min into max should fail")
	}
}
