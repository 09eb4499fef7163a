package aggregate

import (
	"fmt"
	"sort"
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

// GroupedState is the keyed accumulator every query flows through: a
// hash map from group key to a per-key sub-State of one Spec. It is
// itself a State (partial aggregate), so it travels inside ResponseMsg
// and merges hop-by-hop up the aggregation tree — one dissemination
// answers a whole `group by` query.
//
// High-cardinality protection: Cap bounds the number of distinct keys a
// state holds. Past the cap, contributions spill into the Other bucket
// under a deterministic policy — the lexicographically smallest Cap keys
// are kept exact, larger keys are folded into Other (and Spilled counts
// the key arrivals routed there). Under spill, kept keys remain exact
// only if no tree hop spilled them; the overall Result is always exact
// because Other participates in the grand total.
//
// Fields are exported for gob; use NewGrouped and the methods.
type GroupedState struct {
	// Spec is the per-key aggregation function.
	Spec Spec
	// Cap bounds distinct keys (0 = unbounded).
	Cap int
	// Groups holds the per-key sub-aggregates.
	Groups map[string]State
	// Other accumulates spilled contributions (nil until first spill).
	Other State
	// Spilled counts key arrivals folded into Other.
	Spilled int64

	// maxKey caches the lexicographically largest held key so the
	// straight-to-Other spill path is O(1); empty means "recompute"
	// (also the state after gob decoding, which skips this field).
	maxKey string

	// holders counts the references taken with Retain; zero means the
	// classic single-owner state (see Retain and Recycle).
	holders atomic.Int32
}

// NewGrouped creates an empty keyed accumulator for spec with the given
// key cap (0 = unbounded). Recycled shells (their cleared key maps
// included) are reused when available.
func NewGrouped(spec Spec, cap int) *GroupedState {
	return NewGroupedSized(spec, cap, 0)
}

// NewGroupedSized is NewGrouped with a key-count hint: per-epoch report
// paths preallocate from the previous epoch's key count so the hot loop
// never grows the map incrementally.
func NewGroupedSized(spec Spec, cap, hint int) *GroupedState {
	if g, ok := groupedPool.Get().(*GroupedState); ok && g != nil {
		g.Spec, g.Cap = spec, cap
		if g.Groups == nil {
			g.Groups = make(map[string]State, max(hint, 0))
		}
		return g
	}
	if hint < 0 {
		hint = 0
	}
	return &GroupedState{Spec: spec, Cap: cap, Groups: make(map[string]State, hint)}
}

// Retain registers one more holder of g: a builder that keeps g after
// handing it to someone else takes one hold for itself and one per
// hand-off, every holder hands its hold back with Recycle, and the last
// one to do so returns g to the pool. A retained state is shared — also
// across simulator shards — so it must not be written to after its
// first hand-off. A state nobody retained has exactly one owner.
func (g *GroupedState) Retain() { g.holders.Add(1) }

// AddKeyed folds one node's value into the sub-aggregate for key.
// Invalid values are dropped up front (no State records them), so a
// node missing the query attribute neither materializes an empty group
// nor burns a cap slot.
func (g *GroupedState) AddKeyed(node ids.ID, key string, v value.Value) {
	if !v.IsValid() {
		return
	}
	st, created := g.slot(key)
	st.Add(node, v)
	if created && st.Nodes() == 0 {
		// The sub-state ignored the contribution (e.g. a string fed to
		// SUM); don't surface an empty group.
		delete(g.Groups, key)
		if key == g.maxKey {
			g.maxKey = ""
		}
	}
}

// Add implements State: an ungrouped contribution lands in ScalarKey.
func (g *GroupedState) Add(node ids.ID, v value.Value) {
	g.AddKeyed(node, ScalarKey, v)
}

// heldMax returns the lexicographically largest held key, recomputing
// the cache only when it was invalidated (eviction, deletion, decode).
// Only called while at a non-zero cap, so Groups is non-empty and the
// one held key of a scalar state ("") is never ambiguous with the
// empty cache sentinel in a way that matters: a stale recompute just
// costs one extra scan.
func (g *GroupedState) heldMax() string {
	if g.maxKey == "" {
		for k := range g.Groups {
			if k > g.maxKey {
				g.maxKey = k
			}
		}
	}
	return g.maxKey
}

// slot returns the accumulator for key, creating it on demand, with
// created reporting a fresh sub-state. When the key cap is reached, the
// lexicographically largest key is demoted into Other to admit a
// smaller newcomer; keys at or above the current maximum go straight to
// Other. The policy depends only on the key set, not arrival order.
func (g *GroupedState) slot(key string) (st State, created bool) {
	if st, ok := g.Groups[key]; ok {
		return st, false
	}
	if g.Cap > 0 && len(g.Groups) >= g.Cap {
		maxKey := g.heldMax()
		g.Spilled++
		if key >= maxKey {
			return g.other(), false
		}
		evicted := g.Groups[maxKey]
		delete(g.Groups, maxKey)
		g.maxKey = ""
		_ = g.other().Merge(evicted)
	}
	st = g.Spec.New()
	if g.Groups == nil {
		g.Groups = make(map[string]State)
	}
	g.Groups[key] = st
	if g.maxKey != "" && key > g.maxKey {
		g.maxKey = key
	}
	return st, true
}

func (g *GroupedState) other() State {
	if g.Other == nil {
		g.Other = g.Spec.New()
	}
	return g.Other
}

// Merge implements State: fold another GroupedState of the same Spec in,
// key by key.
//
// When the combined key count provably cannot reach the cap, no
// insertion can evict or spill, every per-key merge is independent, and
// the fold iterates the map directly. Only a merge that could actually
// hit the cap pays for the sorted key walk that keeps the deterministic
// smallest-keys-kept spill policy order-independent.
func (g *GroupedState) Merge(other State) error {
	o, ok := other.(*GroupedState)
	if !ok {
		return fmt.Errorf("aggregate: merge %T into GroupedState", other)
	}
	if o.Spec != g.Spec {
		return fmt.Errorf("aggregate: merge GroupedState(%v) into GroupedState(%v)", o.Spec, g.Spec)
	}
	if g.Cap == 0 || len(g.Groups)+len(o.Groups) <= g.Cap {
		for k, ost := range o.Groups {
			st, _ := g.slot(k)
			if err := st.Merge(ost); err != nil {
				return err
			}
		}
	} else {
		for _, k := range o.Keys() {
			st, _ := g.slot(k)
			if err := st.Merge(o.Groups[k]); err != nil {
				return err
			}
		}
	}
	if o.Other != nil {
		if err := g.other().Merge(o.Other); err != nil {
			return err
		}
	}
	g.Spilled += o.Spilled
	return nil
}

// Result implements State: the grand total over every key (including
// Other), which for a scalar query is exactly the single bucket's
// answer.
func (g *GroupedState) Result() Result {
	total := g.Spec.New()
	for _, k := range g.Keys() {
		_ = total.Merge(g.Groups[k])
	}
	if g.Other != nil {
		_ = total.Merge(g.Other)
	}
	return total.Result()
}

// Nodes implements State: total contributions across all keys.
func (g *GroupedState) Nodes() int64 {
	var n int64
	for _, st := range g.Groups {
		n += st.Nodes()
	}
	if g.Other != nil {
		n += g.Other.Nodes()
	}
	return n
}

// Keys lists the held group keys in sorted order (Other excluded).
func (g *GroupedState) Keys() []string {
	out := make([]string, 0, len(g.Groups))
	for k := range g.Groups {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// KeyCount reports the number of exactly-held keys.
func (g *GroupedState) KeyCount() int { return len(g.Groups) }

// Truncated reports whether any contribution spilled past the key cap.
func (g *GroupedState) Truncated() bool { return g.Other != nil || g.Spilled > 0 }

// Results extracts the per-key answers; spilled mass appears under
// OtherKey.
func (g *GroupedState) Results() map[string]Result {
	out := make(map[string]Result, len(g.Groups)+1)
	for k, st := range g.Groups {
		out[k] = st.Result()
	}
	if g.Other != nil {
		out[OtherKey] = g.Other.Result()
	}
	return out
}

var _ State = (*GroupedState)(nil)
