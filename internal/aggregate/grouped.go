package aggregate

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/value"
)

// Reserved group keys. ScalarKey is the single bucket ungrouped queries
// accumulate under, making the scalar pipeline the one-key special case
// of the keyed engine. NullKey collects contributions whose group-by
// attribute is unset at the contributing node. OtherKey labels the spill
// bucket in grouped results when the key cap was exceeded.
const (
	ScalarKey = ""
	NullKey   = "<null>"
	OtherKey  = "<other>"
)

// GroupedState is the keyed accumulator every query flows through, held
// the way it ships: an ascending key column with one value column beside
// it. The fixed-width kinds (sum, count, min, max, avg, std) keep their
// leaf structs by value in a typed column; every other kind keeps one
// State per key. It is itself a State (partial aggregate), so it travels
// inside ResponseMsg and merges hop-by-hop up the aggregation tree — one
// dissemination answers a whole `group by` query. A merge is a
// merge-join of two sorted runs.
//
// High-cardinality protection: Cap bounds the number of distinct keys a
// state holds. Past the cap, contributions spill into the Other bucket
// under a deterministic policy — the lexicographically smallest Cap keys
// are kept exact, larger keys are folded into Other (and Spilled counts
// the key arrivals routed there). Under spill, kept keys remain exact
// only if no tree hop spilled them; the overall Result is always exact
// because Other participates in the grand total.
//
// Keys added out of order wait in a short sorted tail behind the run,
// which the first ordered read (encode, Merge, Keys, Result) or Retain
// folds in; a shared state is therefore never written by a reader.
//
// Use NewGrouped and the methods; gob goes through the columnar body.
type GroupedState struct {
	// Spec is the per-key aggregation function.
	Spec Spec
	// Cap bounds distinct keys (0 = unbounded).
	Cap int
	// Other accumulates spilled contributions (nil until first spill).
	Other State
	// Spilled counts key arrivals folded into Other.
	Spilled int64

	keys []string
	vals column // parallel to keys; nil until the first slot
	// tail counts the keys at the end of keys that are sorted among
	// themselves but not yet merged into the run before them.
	tail int

	// holders counts the references taken with Retain; zero means the
	// classic single-owner state (see Retain and Recycle).
	holders atomic.Int32
}

// column is a GroupedState's value column: slot i holds key i's state.
type column interface {
	at(i int) State
	grow(m int) // append m empty slots
	truncate(n int)
	swap(i, j int)
}

// leaves is the column of a fixed-width kind: leaf structs by value.
type leaves[T any, P interface {
	*T
	State
}] struct {
	s    []T
	zero T // an empty slot: reset for the owning state's Spec
}

func newLeaves[T any, P interface {
	*T
	State
}](spec Spec) *leaves[T, P] {
	c := &leaves[T, P]{}
	P(&c.zero).reset(spec)
	return c
}

func (c *leaves[T, P]) at(i int) State { return P(&c.s[i]) }
func (c *leaves[T, P]) grow(m int) {
	for c.s = slices.Grow(c.s, m); m > 0; m-- {
		c.s = append(c.s, c.zero)
	}
}
func (c *leaves[T, P]) truncate(n int) { c.s = c.s[:n] }
func (c *leaves[T, P]) swap(i, j int)  { c.s[i], c.s[j] = c.s[j], c.s[i] }

// states is the column of every other kind: one pooled State per key,
// made on first use from the owning state's Spec.
type states struct {
	spec *Spec
	s    []State
}

func (c *states) at(i int) State {
	if c.s[i] == nil {
		c.s[i] = c.spec.New()
	}
	return c.s[i]
}
func (c *states) grow(m int) {
	for c.s = slices.Grow(c.s, m); m > 0; m-- {
		c.s = append(c.s, nil)
	}
}
func (c *states) truncate(n int) {
	for _, st := range c.s[n:] {
		Recycle(st)
	}
	clear(c.s[n:])
	c.s = c.s[:n]
}
func (c *states) swap(i, j int) { c.s[i], c.s[j] = c.s[j], c.s[i] }

// col returns g's value column, made for its Spec on first use.
func (g *GroupedState) col() column {
	if g.vals == nil {
		switch g.Spec.Kind {
		case KindSum:
			g.vals = newLeaves[SumState](g.Spec)
		case KindCount:
			g.vals = newLeaves[CountState](g.Spec)
		case KindMin, KindMax:
			g.vals = newLeaves[ExtremeState](g.Spec)
		case KindAvg:
			g.vals = newLeaves[AvgState](g.Spec)
		case KindStd:
			g.vals = newLeaves[StdState](g.Spec)
		default:
			g.vals = &states{spec: &g.Spec}
		}
	}
	return g.vals
}

// groupedPools recycles shells per Spec.Kind (a byte, so every kind has
// one): a reissued shell's value column is the one its new spec uses.
var groupedPools [256]sync.Pool

// NewGrouped creates an empty keyed accumulator for spec with the given
// key cap (0 = unbounded). Recycled shells (their columns' backing
// arrays included) are reused when available.
func NewGrouped(spec Spec, cap int) *GroupedState {
	return NewGroupedSized(spec, cap, 0)
}

// NewGroupedSized is NewGrouped with a key-count hint for a fresh shell:
// per-epoch report paths size it from the previous epoch's key count.
func NewGroupedSized(spec Spec, cap, hint int) *GroupedState {
	if g, ok := groupedPools[spec.Kind].Get().(*GroupedState); ok {
		g.Spec, g.Cap = spec, cap
		return g
	}
	g := &GroupedState{Spec: spec, Cap: cap}
	if hint > 0 {
		g.keys = make([]string, 0, hint)
		g.col().grow(hint)
		g.vals.truncate(0)
	}
	return g
}

// Retain registers one more holder of g: a builder that keeps g after
// handing it to someone else takes one hold for itself and one per
// hand-off, every holder hands its hold back with Recycle, and the last
// one to do so returns g to the pool. A retained state is shared — also
// across simulator shards — so it must not be written to after its
// first hand-off; Retain settles the key column for its readers.
func (g *GroupedState) Retain() {
	g.settle()
	g.holders.Add(1)
}

// AddKeyed folds one node's value into the sub-aggregate for key.
// Invalid values are dropped up front (no State records them), so a
// node missing the query attribute neither materializes an empty group
// nor burns a cap slot.
func (g *GroupedState) AddKeyed(node ids.ID, key string, v value.Value) {
	if !v.IsValid() {
		return
	}
	if i := g.find(key); i >= 0 {
		g.vals.at(i).Add(node, v)
		return
	}
	if g.Cap > 0 && len(g.keys) >= g.Cap {
		// At the cap the largest held key is demoted into Other to admit
		// a smaller newcomer; a key above it goes straight to Other.
		g.settle()
		last := len(g.keys) - 1
		g.Spilled++
		if key > g.keys[last] {
			g.other().Add(node, v)
			return
		}
		_ = g.other().Merge(g.vals.at(last))
		g.truncate(last)
	}
	n := len(g.keys)
	g.keys = append(g.keys, key)
	g.col().grow(1)
	st := g.vals.at(n)
	if st.Add(node, v); st.Nodes() == 0 {
		// The sub-state ignored the contribution (e.g. a string fed to
		// SUM); don't surface an empty group.
		g.truncate(n)
		return
	}
	g.place(n)
}

// Add implements State: an ungrouped contribution lands in ScalarKey.
func (g *GroupedState) Add(node ids.ID, v value.Value) {
	g.AddKeyed(node, ScalarKey, v)
}

// find returns key's slot, or -1.
func (g *GroupedState) find(key string) int {
	r := len(g.keys) - g.tail
	if i, ok := slices.BinarySearch(g.keys[:r], key); ok {
		return i
	}
	if i, ok := slices.BinarySearch(g.keys[r:], key); ok {
		return r + i
	}
	return -1
}

// place files the slot just appended at i into the sorted tail. A tail
// that continues the run joins it; one longer than √len is merged in, so
// a new key costs O(√len) moves amortized, never O(len).
func (g *GroupedState) place(i int) {
	r := i - g.tail
	for ; i > r && g.keys[i-1] > g.keys[i]; i-- {
		g.swap(i-1, i)
	}
	g.tail++
	switch {
	case r == 0 || g.keys[r-1] < g.keys[r]:
		g.tail = 0
	case g.tail*g.tail > len(g.keys):
		g.settle()
	}
}

// settle merges the tail into the run in place. Working down from the
// tail's largest key, each step rotates that key — and the run keys
// above it — into their final places, so every run slot moves once.
func (g *GroupedState) settle() {
	if g.tail == 0 {
		return
	}
	r := len(g.keys) - g.tail
	for t := g.tail; t > 0; t-- {
		pos, _ := slices.BinarySearch(g.keys[:r], g.keys[r+t-1])
		if pos < r {
			g.reverse(pos, r)
			g.reverse(r, r+t)
			g.reverse(pos, r+t)
		}
		r = pos
	}
	g.tail = 0
}

func (g *GroupedState) reverse(i, j int) {
	for j--; i < j; i, j = i+1, j-1 {
		g.swap(i, j)
	}
}

func (g *GroupedState) swap(i, j int) {
	if i != j {
		g.keys[i], g.keys[j] = g.keys[j], g.keys[i]
		g.vals.swap(i, j)
	}
}

// truncate drops the slots from n on; the columns keep their arrays.
func (g *GroupedState) truncate(n int) {
	g.keys = g.keys[:n]
	if g.vals != nil {
		g.vals.truncate(n)
	}
}

func (g *GroupedState) kind() Kind { return wireGrouped }

// reset empties g for spec, a spec of g's kind: the columns keep their
// backing arrays, and the key strings in them, which the decoder reuses
// when the next report repeats a key.
func (g *GroupedState) reset(spec Spec) {
	g.truncate(0)
	Recycle(g.Other)
	g.Spec, g.Cap, g.Other, g.Spilled, g.tail = spec, 0, nil, 0, 0
	g.holders.Store(0)
}

func (g *GroupedState) other() State {
	if g.Other == nil {
		g.Other = g.Spec.New()
	}
	return g.Other
}

// Merge implements State: fold another GroupedState of the same Spec in
// by a merge-join of the two sorted key runs. The kept keys are the
// smallest Cap of the union; the displaced ones fold into Other in a
// fixed order — g's largest first, then o's smallest first — the order
// in which one-key-at-a-time eviction would have demoted them. Keys new
// to g grow it in place from the back; equal key sets merge element-wise.
// Same-Spec leaf merges cannot fail (decode admits no other kind, in
// Other included), so only the shape checks report errors.
func (g *GroupedState) Merge(other State) error {
	o, ok := other.(*GroupedState)
	if !ok {
		return fmt.Errorf("aggregate: merge %T into GroupedState", other)
	}
	if o.Spec != g.Spec {
		return fmt.Errorf("aggregate: merge GroupedState(%v) into GroupedState(%v)", o.Spec, g.Spec)
	}
	g.settle()
	o.settle()
	p, q := len(g.keys), len(o.keys)
	// Walk the union in key order up to the cap: g[:i] and o[:j] are
	// kept, fresh of o's kept keys are new to g.
	i, j, fresh := 0, 0, 0
	for kept := 0; (i < p || j < q) && (g.Cap <= 0 || kept < g.Cap); kept++ {
		switch {
		case j == q || (i < p && g.keys[i] < o.keys[j]):
			i++
		case i == p || o.keys[j] < g.keys[i]:
			j, fresh = j+1, fresh+1
		default:
			i, j = i+1, j+1
		}
	}
	if i < p || j < q {
		spill := g.other()
		for k := p - 1; k >= i; k-- {
			_ = spill.Merge(g.vals.at(k))
		}
		for k := j; k < q; k++ {
			_ = spill.Merge(o.vals.at(k))
		}
		g.Spilled += int64(p - i + q - j)
		g.truncate(i)
	}
	g.keys = slices.Grow(g.keys, fresh)[:i+fresh]
	g.col().grow(fresh)
	// (i, w] holds empty slots throughout; each step fills w.
	for i, j, w := i-1, j-1, i+fresh-1; j >= 0; w-- {
		switch {
		case i >= 0 && g.keys[i] > o.keys[j]:
			g.swap(i, w)
			i--
		case i >= 0 && g.keys[i] == o.keys[j]:
			_ = g.vals.at(i).Merge(o.vals.at(j))
			g.swap(i, w)
			i, j = i-1, j-1
		default:
			g.keys[w] = o.keys[j]
			_ = g.vals.at(w).Merge(o.vals.at(j))
			j--
		}
	}
	if o.Other != nil {
		_ = g.other().Merge(o.Other)
	}
	g.Spilled += o.Spilled
	return nil
}

// Result implements State: the grand total over every key in key order
// (Other last), which for a scalar query is exactly the single bucket's
// answer.
func (g *GroupedState) Result() Result {
	g.settle()
	total := g.Spec.New()
	for i := range g.keys {
		_ = total.Merge(g.vals.at(i))
	}
	if g.Other != nil {
		_ = total.Merge(g.Other)
	}
	return total.Result()
}

// Nodes implements State: total contributions across all keys.
func (g *GroupedState) Nodes() int64 {
	var n int64
	for i := range g.keys {
		n += g.vals.at(i).Nodes()
	}
	if g.Other != nil {
		n += g.Other.Nodes()
	}
	return n
}

// Keys lists the held group keys in ascending order (Other excluded).
// The slice is g's own key column: read it, don't keep or modify it.
func (g *GroupedState) Keys() []string {
	g.settle()
	return slices.Clip(g.keys)
}

// KeyCount reports the number of exactly-held keys.
func (g *GroupedState) KeyCount() int { return len(g.keys) }

// Truncated reports whether any contribution spilled past the key cap.
func (g *GroupedState) Truncated() bool { return g.Other != nil || g.Spilled > 0 }

// Results extracts the per-key answers; spilled mass appears under
// OtherKey.
func (g *GroupedState) Results() map[string]Result {
	out := make(map[string]Result, len(g.keys)+1)
	for i, k := range g.keys {
		out[k] = g.vals.at(i).Result()
	}
	if g.Other != nil {
		out[OtherKey] = g.Other.Result()
	}
	return out
}

var _ State = (*GroupedState)(nil)
