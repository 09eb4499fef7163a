// Mergeable-sketch states: bounded-memory approximations of aggregates
// whose exact forms grow with population (quantiles, distinct counts)
// or cardinality (heavy hitters, set union). Each is an ordinary State,
// so it rides the keyed GroupedState plumbing, pooling, wire layouts, and
// standing-query epoch reports unchanged. The merge law here is weaker
// than for the exact states — merging partials in any tree shape yields
// a state whose *error bound* is preserved, not necessarily identical
// bytes — and the property tests in partial_test.go (mergeShapeExact)
// compare accordingly. Background: Agarwal et al., "Mergeable
// Summaries" (PODS 2012).

package aggregate

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/value"
)

const (
	// SetCap bounds UNION and COLLECT entry lists, like the grouped-key
	// cap bounds group maps: the Cap smallest survive deterministically
	// and the rest spill, so every merge order keeps the same survivors.
	SetCap = 64
	// DefaultTopKeys is the TOPKEYS counter capacity when the query
	// doesn't give one (`topkeys(attr)`).
	DefaultTopKeys = 8

	// HyperLogLog geometry: 2^hllP single-byte registers. p=11 gives a
	// standard error of 1.04/√2048 ≈ 2.3% in 2 KiB of dense state.
	hllP = 11
	hllM = 1 << hllP
	// Sparse states (few distinct values — every leaf, most groups)
	// stay a small map until promotion; the threshold keeps the sparse
	// form strictly cheaper to hold and to encode than dense.
	hllSparseLimit = hllM / 8

	// quantCap is the per-level compactor capacity of QuantileState.
	// Worst-case rank error after any merge tree is ~N·H/(2·quantCap)
	// with H ≈ log2(N/quantCap) levels; at N=10k that is under 2% of
	// rank, in at most a few KiB of state.
	quantCap = 256
)

// Kinds returns every registered aggregation kind in ascending order,
// so registry-driven tests cover new kinds automatically.
func Kinds() []Kind {
	out := make([]Kind, 0, len(registry)-1)
	for k := KindSum; k.registered(); k++ {
		out = append(out, k)
	}
	return out
}

// ---------------------------------------------------------------------
// hashValue: 64-bit FNV-1a over a value's canonical key bytes.
//
// Hashing the Key() representation (not the raw payload) keeps DCOUNT
// consistent with grouping semantics: Int(1), Float(1) and Str("1")
// share a group key, so they count as one distinct value here too. The
// bytes are fed through stack buffers so the hot Add path stays
// allocation-free.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// mix64 is the murmur3 finalizer. FNV-1a diffuses upward only — the
// top bits (which pick the HLL register) barely change across short
// inputs like small decimal ints — so the raw hash is run through a
// full-avalanche mix before use.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func hashValue(v value.Value) uint64 {
	h := uint64(fnvOffset64)
	var buf [32]byte
	switch v.Kind() {
	case value.KindString:
		s, _ := v.AsString()
		h = fnvString(h, s)
	case value.KindInt:
		i, _ := v.AsInt()
		h = fnvBytes(h, strconv.AppendInt(buf[:0], i, 10))
	case value.KindFloat:
		f, _ := v.AsFloat()
		// Integral floats render like ints ("1", not "1.0"), so they
		// hash identically via the same decimal bytes.
		h = fnvBytes(h, strconv.AppendFloat(buf[:0], f, 'g', -1, 64))
	case value.KindBool:
		if b, _ := v.AsBool(); b {
			h = fnvString(h, "true")
		} else {
			h = fnvString(h, "false")
		}
	}
	return mix64(h)
}

// ---------------------------------------------------------------------

// DCountState estimates the number of distinct attribute values with a
// HyperLogLog sketch: hllM single-byte registers each remembering the
// longest run of leading zero bits seen in its hash bucket. Merging is
// a pointwise register max, which is exactly order- and
// shape-invariant; only the estimate itself is approximate (standard
// error 1.04/√hllM ≈ 2.3%).
//
// Leaf states hold one or two values, so registers start as a sparse
// index→register map and promote to the dense array only past
// hllSparseLimit — keeping per-node wire state a few bytes instead of
// a 2 KiB register dump.
type DCountState struct {
	Sparse map[uint16]uint8
	Dense  []uint8
	N      int64
}

// Add folds one node's value in.
func (s *DCountState) Add(_ ids.ID, v value.Value) {
	if !v.IsValid() {
		return
	}
	s.N++
	h := hashValue(v)
	idx := uint16(h >> (64 - hllP))
	// The register holds the rank of the first 1-bit among the
	// remaining 64-p bits; |1 caps the rank when those bits are zero.
	rho := uint8(bits.LeadingZeros64((h<<hllP)|1)) + 1
	s.set(idx, rho)
}

func (s *DCountState) set(idx uint16, rho uint8) {
	if s.Dense != nil {
		if rho > s.Dense[idx] {
			s.Dense[idx] = rho
		}
		return
	}
	if s.Sparse == nil {
		s.Sparse = make(map[uint16]uint8)
	}
	if rho > s.Sparse[idx] {
		s.Sparse[idx] = rho
	}
	if len(s.Sparse) > hllSparseLimit {
		s.promote()
	}
}

func (s *DCountState) promote() {
	s.Dense = make([]uint8, hllM)
	for idx, rho := range s.Sparse {
		s.Dense[idx] = rho
	}
	s.Sparse = nil
}

// Merge folds another DCountState in (pointwise register max).
func (s *DCountState) Merge(other State) error {
	o, ok := other.(*DCountState)
	if !ok {
		return fmt.Errorf("aggregate: merge %T into DCountState", other)
	}
	s.N += o.N
	if o.Dense != nil {
		if s.Dense == nil {
			s.promote()
		}
		for idx, rho := range o.Dense {
			if rho > s.Dense[idx] {
				s.Dense[idx] = rho
			}
		}
		return nil
	}
	for idx, rho := range o.Sparse {
		s.set(idx, rho)
	}
	return nil
}

func (s *DCountState) estimate() float64 {
	m := float64(hllM)
	var sum float64
	zeros := 0
	if s.Dense != nil {
		for _, r := range s.Dense {
			sum += 1 / float64(uint64(1)<<r)
			if r == 0 {
				zeros++
			}
		}
	} else {
		zeros = hllM - len(s.Sparse)
		sum = float64(zeros)
		for _, r := range s.Sparse {
			sum += 1 / float64(uint64(1)<<r)
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	e := alpha * m * m / sum
	// Flajolet's small-range correction: with empty registers, linear
	// counting is the better estimator (and exact at leaf scale).
	if e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/float64(zeros))
	}
	return e
}

// Result returns the distinct-count estimate.
func (s *DCountState) Result() Result {
	if s.N == 0 {
		return Result{Value: value.Int(0)}
	}
	return Result{Value: value.Int(int64(math.Round(s.estimate())))}
}

// Nodes reports the number of contributions.
func (s *DCountState) Nodes() int64 { return s.N }

func (s *DCountState) kind() Kind { return KindDCount }

func (s *DCountState) reset(Spec) {
	clear(s.Sparse)
	s.Dense = nil
	s.N = 0
}

// ---------------------------------------------------------------------

// QuantileState estimates a rank quantile with an MRL/KLL-style
// compactor hierarchy: Levels[i] holds items of weight 2^i; a full
// level is sorted and every other item promoted one level up, halving
// the item count while preserving total weight. Each compaction of
// level i perturbs ranks by at most 2^i/2, so the worst-case rank
// error over any merge tree is ~N·H/(2·quantCap). Compaction offsets
// alternate via the deterministic Coin sequence, which de-biases the
// estimate without breaking replayability.
type QuantileState struct {
	Q      float64
	Levels [][]float64
	N      int64
	Coin   uint64
}

// Add folds one node's value in (non-numeric values are ignored).
func (s *QuantileState) Add(_ ids.ID, v value.Value) {
	f, ok := v.AsFloat()
	if !ok {
		return
	}
	s.N++
	if len(s.Levels) == 0 {
		s.addLevel()
	}
	s.Levels[0] = append(s.Levels[0], f)
	if len(s.Levels[0]) >= quantCap {
		s.compact()
	}
}

// Merge folds another QuantileState in: levelwise concatenation, then
// a compaction cascade. A warm merge (capacity in place, levels under
// quantCap) is allocation-free.
func (s *QuantileState) Merge(other State) error {
	o, ok := other.(*QuantileState)
	if !ok {
		return fmt.Errorf("aggregate: merge %T into QuantileState", other)
	}
	s.N += o.N
	for i, lvl := range o.Levels {
		if len(lvl) == 0 {
			continue
		}
		for len(s.Levels) <= i {
			s.addLevel()
		}
		s.Levels[i] = append(s.Levels[i], lvl...)
	}
	// Mix the coin streams so repeated merges don't re-use one offset
	// pattern; any deterministic mix preserves the error analysis.
	s.Coin = s.Coin*3 + o.Coin + 1
	s.compact()
	return nil
}

func (s *QuantileState) compact() {
	for i := 0; i < len(s.Levels); i++ {
		lvl := s.Levels[i]
		if len(lvl) < quantCap {
			continue
		}
		slices.Sort(lvl)
		if len(s.Levels) == i+1 {
			s.addLevel()
		}
		off := int(s.Coin & 1)
		s.Coin = s.Coin>>1 | s.Coin<<63 // rotate: next compaction sees the next bit
		s.Coin ^= 0x9e3779b97f4a7c15
		for j := off; j < len(lvl); j += 2 {
			s.Levels[i+1] = append(s.Levels[i+1], lvl[j])
		}
		s.Levels[i] = lvl[:0]
	}
}

// Result returns the estimated Q-quantile of all contributions.
func (s *QuantileState) Result() Result {
	if s.N == 0 {
		return Result{}
	}
	total := 0
	for _, lvl := range s.Levels {
		total += len(lvl)
	}
	if total == 0 {
		return Result{}
	}
	type weighted struct {
		v float64
		w int64
	}
	items := make([]weighted, 0, total)
	var weight int64
	for i, lvl := range s.Levels {
		w := int64(1) << uint(i)
		for _, v := range lvl {
			items = append(items, weighted{v, w})
			weight += w
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	// Smallest item whose cumulative weight covers the target rank.
	target := int64(math.Ceil(s.Q * float64(weight)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for _, it := range items {
		cum += it.w
		if cum >= target {
			return Result{Value: value.Float(it.v)}
		}
	}
	return Result{Value: value.Float(items[len(items)-1].v)}
}

// Nodes reports the number of contributions.
func (s *QuantileState) Nodes() int64 { return s.N }

// addLevel appends an empty level, reusing one that reset kept.
func (s *QuantileState) addLevel() {
	if n := len(s.Levels); n < cap(s.Levels) {
		s.Levels = s.Levels[:n+1]
		s.Levels[n] = s.Levels[n][:0]
		return
	}
	s.Levels = append(s.Levels, nil)
}

func (s *QuantileState) kind() Kind { return KindQuantile }

// reset keeps the level arrays for addLevel, so a pooled state grows the
// same levels, and encodes the same bytes, as a fresh one.
func (s *QuantileState) reset(spec Spec) {
	*s = QuantileState{Q: spec.Q, Levels: s.Levels[:0]}
}

// ---------------------------------------------------------------------

// TopKeysState tracks the K most frequent attribute values (by group
// key, like Value.Key) with Misra-Gries counters: at most K counters
// live at once; an overflowing insert decrements all. After any merge
// tree the counter for a key undercounts its true frequency by at most
// N/(K+1).
type TopKeysState struct {
	K      int
	Counts map[string]int64
	N      int64
}

// Add folds one node's value in.
func (s *TopKeysState) Add(_ ids.ID, v value.Value) {
	if !v.IsValid() {
		return
	}
	s.N++
	k := v.Key()
	if s.Counts == nil {
		s.Counts = make(map[string]int64)
	}
	if _, ok := s.Counts[k]; ok || len(s.Counts) < s.K {
		s.Counts[k]++
		return
	}
	// Counter set full and k untracked: decrement everyone (k included,
	// virtually), evicting zeros. Classic Misra-Gries.
	for key, c := range s.Counts {
		if c <= 1 {
			delete(s.Counts, key)
		} else {
			s.Counts[key] = c - 1
		}
	}
}

// Merge folds another TopKeysState in: pointwise counter addition, then
// one shrink step subtracting the (K+1)-th largest count from all — the
// mergeable-summaries MG merge, which keeps the N/(K+1) bound intact.
func (s *TopKeysState) Merge(other State) error {
	o, ok := other.(*TopKeysState)
	if !ok {
		return fmt.Errorf("aggregate: merge %T into TopKeysState", other)
	}
	s.N += o.N
	if len(o.Counts) > 0 && s.Counts == nil {
		s.Counts = make(map[string]int64)
	}
	for k, c := range o.Counts {
		s.Counts[k] += c
	}
	s.shrink()
	return nil
}

func (s *TopKeysState) shrink() {
	if len(s.Counts) <= s.K {
		return
	}
	counts := make([]int64, 0, len(s.Counts))
	for _, c := range s.Counts {
		counts = append(counts, c)
	}
	slices.Sort(counts)
	thresh := counts[len(counts)-s.K-1] // (K+1)-th largest
	for k, c := range s.Counts {
		if c <= thresh {
			delete(s.Counts, k)
		} else {
			s.Counts[k] = c - thresh
		}
	}
}

// Result returns the tracked keys ordered by estimated count
// descending (key ascending on ties, for determinism), with the top
// estimate as the scalar value.
func (s *TopKeysState) Result() Result {
	if s.N == 0 {
		return Result{Value: value.Int(0), Counts: []KeyCount{}}
	}
	out := make([]KeyCount, 0, len(s.Counts))
	for k, c := range s.Counts {
		out = append(out, KeyCount{Key: k, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	r := Result{Counts: out, Value: value.Int(0)}
	if len(out) > 0 {
		r.Value = value.Int(out[0].Count)
	}
	return r
}

// Nodes reports the number of contributions.
func (s *TopKeysState) Nodes() int64 { return s.N }

func (s *TopKeysState) kind() Kind { return KindTopKeys }

// reset keeps DefaultTopKeys counters when the spec gives no positive K.
func (s *TopKeysState) reset(spec Spec) {
	clear(s.Counts)
	s.K, s.N = spec.K, 0
	if s.K <= 0 {
		s.K = DefaultTopKeys
	}
}

// ---------------------------------------------------------------------

// UnionState collects the set of distinct attribute values (distinct by
// group key, so Int(1) and Str("1") unify), bounded by Cap with the
// deterministic spill policy of the grouped-key cap: the Cap smallest
// keys are kept exact. Because "smallest Cap keys" is a property of the
// global key set, any merge tree keeps identical survivors, each annotated
// with its smallest contributing node — the merge is exact, not
// approximate, about everything it reports; Dropped says whether
// anything spilled.
type UnionState struct {
	Cap     int
	Keys    []string // ascending; parallel to Entries
	Entries []Entry
	N       int64
	Dropped bool
}

// Add folds one node's value in.
func (s *UnionState) Add(node ids.ID, v value.Value) {
	if !v.IsValid() {
		return
	}
	s.N++
	s.insert(v.Key(), Entry{Node: node, Value: v})
}

func (s *UnionState) insert(k string, e Entry) {
	i := sort.SearchStrings(s.Keys, k)
	if i < len(s.Keys) && s.Keys[i] == k {
		// Known value: keep the smallest contributor node so every
		// merge order reports the same witness.
		if ids.Less(e.Node, s.Entries[i].Node) {
			s.Entries[i] = e
		}
		return
	}
	if s.Cap > 0 && len(s.Keys) >= s.Cap && i >= s.Cap {
		s.Dropped = true
		return
	}
	s.Keys = append(s.Keys, "")
	copy(s.Keys[i+1:], s.Keys[i:])
	s.Keys[i] = k
	s.Entries = append(s.Entries, Entry{})
	copy(s.Entries[i+1:], s.Entries[i:])
	s.Entries[i] = e
	if s.Cap > 0 && len(s.Keys) > s.Cap {
		s.Keys = s.Keys[:s.Cap]
		s.Entries = s.Entries[:s.Cap]
		s.Dropped = true
	}
}

// Merge folds another UnionState in.
func (s *UnionState) Merge(other State) error {
	o, ok := other.(*UnionState)
	if !ok {
		return fmt.Errorf("aggregate: merge %T into UnionState", other)
	}
	s.N += o.N
	s.Dropped = s.Dropped || o.Dropped
	for i, k := range o.Keys {
		s.insert(k, o.Entries[i])
	}
	return nil
}

// Result returns the kept distinct values in key order; the scalar is
// the kept-set size (a lower bound on distinct count when Dropped).
func (s *UnionState) Result() Result {
	out := make([]Entry, len(s.Entries))
	copy(out, s.Entries)
	return Result{Value: value.Int(int64(len(out))), Entries: out}
}

// Nodes reports the number of contributions.
func (s *UnionState) Nodes() int64 { return s.N }

func (s *UnionState) kind() Kind { return KindUnion }

func (s *UnionState) reset(Spec) {
	*s = UnionState{Cap: SetCap, Keys: s.Keys[:0], Entries: s.Entries[:0]}
}

// ---------------------------------------------------------------------

// CollectState lists per-node contributions like ENUMERATE, but
// bounded: the Cap contributions with the smallest node IDs are kept,
// the rest spill. Survivors are again merge-shape-invariant, and the
// exact spill count is N minus the kept length.
type CollectState struct {
	Cap     int
	Entries []Entry // ascending by node ID
	N       int64
}

// Add folds one node's value in.
func (s *CollectState) Add(node ids.ID, v value.Value) {
	if !v.IsValid() {
		return
	}
	s.N++
	e := Entry{Node: node, Value: v}
	i := sort.Search(len(s.Entries), func(i int) bool { return ids.Less(node, s.Entries[i].Node) })
	if s.Cap > 0 && len(s.Entries) >= s.Cap && i >= s.Cap {
		return
	}
	s.Entries = append(s.Entries, Entry{})
	copy(s.Entries[i+1:], s.Entries[i:])
	s.Entries[i] = e
	if s.Cap > 0 && len(s.Entries) > s.Cap {
		s.Entries = s.Entries[:s.Cap]
	}
}

// Merge folds another CollectState in.
func (s *CollectState) Merge(other State) error {
	o, ok := other.(*CollectState)
	if !ok {
		return fmt.Errorf("aggregate: merge %T into CollectState", other)
	}
	n := s.N + o.N
	for _, e := range o.Entries {
		s.Add(e.Node, e.Value)
		s.N-- // Add counted it; the contribution total comes from o.N
	}
	s.N = n
	return nil
}

// Result returns the kept contributions; the scalar is the exact total
// contribution count (so spilled = N - len(Entries)).
func (s *CollectState) Result() Result {
	out := make([]Entry, len(s.Entries))
	copy(out, s.Entries)
	return Result{Value: value.Int(s.N), Entries: out}
}

// Nodes reports the number of contributions.
func (s *CollectState) Nodes() int64 { return s.N }

func (s *CollectState) kind() Kind { return KindCollect }

func (s *CollectState) reset(Spec) { *s = CollectState{Cap: SetCap, Entries: s.Entries[:0]} }
