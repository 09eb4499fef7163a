package aggregate

import (
	"fmt"
	"sync"
	"testing"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/value"
)

// TestMergeAllocBudget locks the allocation cost of the epoch-report
// hot path: merging one warm GroupedState into another — both already
// holding the full key set — must not allocate at all for scalar-kind
// sub-states. The per-epoch in-tree re-aggregation performs exactly
// this merge once per child per epoch per node, so any state or map
// allocation here multiplies by the whole deployment.
func TestMergeAllocBudget(t *testing.T) {
	warm := func(keys int) *GroupedState {
		g := NewGrouped(Spec{Kind: KindAvg}, 1024)
		for k := 0; k < keys; k++ {
			g.AddKeyed(ids.FromUint64(uint64(k)), fmt.Sprintf("key-%02d", k), value.Float(float64(k)))
		}
		return g
	}
	const keys = 16
	dst, src := warm(keys), warm(keys)
	avg := testing.AllocsPerRun(100, func() {
		if err := dst.Merge(src); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("warm GroupedState.Merge allocates %.1f objects/op, want 0", avg)
	}
}

// TestAddAllocBudget locks the steady-state contribution path: adding
// to an existing key of a warm accumulator is allocation-free for
// numeric kinds.
func TestAddAllocBudget(t *testing.T) {
	g := NewGrouped(Spec{Kind: KindSum}, 0)
	node := ids.FromUint64(7)
	g.AddKeyed(node, "k", value.Int(1))
	avg := testing.AllocsPerRun(100, func() {
		g.AddKeyed(node, "k", value.Int(1))
	})
	if avg > 0 {
		t.Errorf("warm AddKeyed allocates %.1f objects/op, want 0", avg)
	}
}

// TestRecycleReuse proves the state pool actually round-trips: a
// recycled tree satisfies the next construction without touching the
// allocator for the shell, the key map, or the sub-states.
func TestRecycleReuse(t *testing.T) {
	spec := Spec{Kind: KindAvg}
	g := NewGrouped(spec, 64)
	g.AddKeyed(ids.FromUint64(1), "a", value.Float(1))
	g.AddKeyed(ids.FromUint64(2), "b", value.Float(2))
	Recycle(g)
	avg := testing.AllocsPerRun(20, func() {
		h := NewGroupedSized(spec, 64, 2)
		h.AddKeyed(ids.FromUint64(1), "a", value.Float(1))
		h.AddKeyed(ids.FromUint64(2), "b", value.Float(2))
		if h.KeyCount() != 2 {
			t.Fatal("bad key count")
		}
		Recycle(h)
	})
	// One warm cycle may still allocate map internals on first growth;
	// steady state must stay near zero.
	if avg > 1 {
		t.Errorf("recycled construction allocates %.1f objects/op, want <= 1", avg)
	}
}

// TestRecycleCountsHolders locks the hand-off rule: a retained state
// survives every Recycle but the last, concurrent holders included, and
// a state nobody retained is recycled by the first.
func TestRecycleCountsHolders(t *testing.T) {
	spec := Spec{Kind: KindSum}
	g := NewGrouped(spec, 0)
	g.AddKeyed(ids.FromUint64(1), "a", value.Int(7))
	const holders = 8
	for i := 0; i < holders; i++ {
		g.Retain()
	}
	var wg sync.WaitGroup
	for i := 0; i < holders-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, _ := g.Result().Value.AsInt(); v != 7 {
				t.Errorf("a held state reads %d, want 7", v)
			}
			Recycle(g)
		}()
	}
	wg.Wait()
	if v, _ := g.Result().Value.AsInt(); v != 7 || g.KeyCount() != 1 {
		t.Fatalf("state with one hold left was recycled: sum %d, %d keys", v, g.KeyCount())
	}
	Recycle(g)
	if g.KeyCount() != 0 {
		t.Fatal("the last hold did not recycle the state")
	}
	h := NewGrouped(spec, 0)
	h.AddKeyed(ids.FromUint64(1), "a", value.Int(7))
	Recycle(h)
	if h.KeyCount() != 0 {
		t.Fatal("a state nobody retained must be recycled by its single owner")
	}
}

// TestSketchMergeAllocBudget locks the sketch epoch-report hot path:
// merging into a warm accumulator must not allocate. A dense HLL merge
// is a pure register loop, so it is 0-alloc unconditionally; a
// quantile merge into a recycled accumulator with warmed level
// capacity (the per-epoch in-tree shape: reset, then fold each child's
// report) appends into existing backing arrays only.
func TestSketchMergeAllocBudget(t *testing.T) {
	t.Run("hll-dense", func(t *testing.T) {
		mk := func() *DCountState {
			st := &DCountState{}
			for i := 0; i < 4000; i++ {
				st.Add(ids.FromUint64(uint64(i)), value.Int(int64(i)))
			}
			return st
		}
		dst, src := mk(), mk()
		if dst.Dense == nil || src.Dense == nil {
			t.Fatal("states did not promote to dense")
		}
		avg := testing.AllocsPerRun(100, func() {
			if err := dst.Merge(src); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 0 {
			t.Errorf("warm dense HLL merge allocates %.1f objects/op, want 0", avg)
		}
	})
	t.Run("quantile", func(t *testing.T) {
		src := &QuantileState{Q: 0.99}
		for i := 0; i < 1000; i++ {
			src.Add(ids.FromUint64(uint64(i)), value.Float(float64(i)))
		}
		dst := &QuantileState{Q: 0.99}
		// Warm cycle: one merge grows dst's level hierarchy to src's
		// shape; reset keeps the backing arrays.
		if err := dst.Merge(src); err != nil {
			t.Fatal(err)
		}
		dst.reset()
		avg := testing.AllocsPerRun(100, func() {
			dst.reset()
			if err := dst.Merge(src); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 0 {
			t.Errorf("warm quantile merge allocates %.1f objects/op, want 0", avg)
		}
	})
}

// TestGroupedCodecWarmAllocs locks the report codec's steady state: a
// 16-key report decodes into a warm pooled shell — its columns filled in
// place, its key strings reused when the keys repeat — without
// allocating, and encodes into a pre-grown buffer without allocating.
func TestGroupedCodecWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled shells at random")
	}
	for _, kind := range []Kind{KindAvg, KindMax, KindStd, KindCount} {
		g := NewGrouped(Spec{Kind: kind}, 64)
		for i := 0; i < 16; i++ {
			g.AddKeyed(ids.FromUint64(uint64(i+1)), fmt.Sprintf("slice-%02d", i), value.Float(float64(i)/3))
		}
		wire, err := appendState(nil, g)
		if err != nil {
			t.Fatal(err)
		}
		decode := func() {
			st, _, err := readState(wire)
			if err != nil {
				t.Fatal(err)
			}
			Recycle(st)
		}
		decode() // warm the pool and the shell's key column
		if avg := testing.AllocsPerRun(100, decode); avg > 0 {
			t.Errorf("%v: warm decode allocates %.1f objects/op, want 0", kind, avg)
		}
		buf := make([]byte, 0, 2*len(wire))
		if avg := testing.AllocsPerRun(100, func() { buf, _ = appendState(buf[:0], g) }); avg > 0 {
			t.Errorf("%v: encode allocates %.1f objects/op, want 0", kind, avg)
		}
	}
}
