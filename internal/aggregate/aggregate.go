// Package aggregate implements the partially aggregatable functions of
// the paper's query model (§3.1): SUM, COUNT, MIN, MAX, AVG, TOP-K and
// ENUMERATE. Partial aggregation means that merging the states of two
// disjoint node sets yields the state of their union, which is what lets
// Moara combine answers up an aggregation tree in any grouping order.
// That merge law is enforced by property tests.
package aggregate

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/value"
)

// Kind enumerates aggregation functions.
type Kind uint8

// The supported aggregation functions.
const (
	KindInvalid Kind = iota
	KindSum
	KindCount
	KindMin
	KindMax
	KindAvg
	KindTopK
	KindEnum
	// KindStd computes the population standard deviation — an
	// extension beyond the paper's list, still partially aggregatable
	// via (count, sum, sum-of-squares).
	KindStd
	// The mergeable-sketch family (see sketch.go): bounded-state
	// approximations of aggregates whose exact forms grow with
	// population or cardinality. Each is a State like any other and
	// rides the keyed GroupedState plumbing unchanged.
	//
	// KindDCount estimates distinct values via HyperLogLog.
	KindDCount
	// KindQuantile estimates a rank quantile (Spec.Q) via a KLL-style
	// compactor hierarchy; the query language spells it quantile(x, q)
	// or pNN(x).
	KindQuantile
	// KindTopKeys tracks the K most frequent values via Misra-Gries
	// heavy-hitter counters.
	KindTopKeys
	// KindUnion collects the set of distinct values, capped with
	// deterministic spill (the SetCap smallest values are kept exact).
	KindUnion
	// KindCollect lists every contribution like enum, capped with
	// deterministic spill (the SetCap smallest node IDs are kept).
	KindCollect
)

// ctor describes one registered aggregation function: its canonical
// query-language name, accepted aliases, and the constructor producing
// its empty State. Spec.New, ParseSpec, and Kind.String are all views of
// this one registry, so adding a function is a single-entry change.
type ctor struct {
	name    string
	aliases []string
	// sketch marks approximation kinds whose merges are
	// bound-preserving rather than value-identical (see Approximate);
	// the merge-law property harness keys its comparison mode on it.
	sketch   bool
	newState func(Spec) State
}

var registry = map[Kind]ctor{
	KindSum:   {name: "sum", newState: func(Spec) State { return &SumState{} }},
	KindCount: {name: "count", newState: func(Spec) State { return &CountState{} }},
	KindMin:   {name: "min", newState: func(Spec) State { return &ExtremeState{Max: false} }},
	KindMax:   {name: "max", newState: func(Spec) State { return &ExtremeState{Max: true} }},
	KindAvg:   {name: "avg", aliases: []string{"average", "mean"}, newState: func(Spec) State { return &AvgState{} }},
	KindTopK: {name: "top", newState: func(s Spec) State {
		k := s.K
		if k <= 0 {
			k = 1
		}
		return &TopKState{K: k}
	}},
	KindEnum: {name: "enum", aliases: []string{"enumerate", "list"}, newState: func(Spec) State { return &EnumState{} }},
	KindStd:  {name: "std", aliases: []string{"stddev"}, newState: func(Spec) State { return &StdState{} }},
	KindDCount: {name: "dcount", aliases: []string{"countdistinct"}, sketch: true,
		newState: func(Spec) State { return &DCountState{} }},
	KindQuantile: {name: "quantile", aliases: []string{"percentile"}, sketch: true,
		newState: func(s Spec) State { return &QuantileState{Q: s.Q} }},
	KindTopKeys: {name: "topkeys", sketch: true, newState: func(s Spec) State {
		k := s.K
		if k <= 0 {
			k = DefaultTopKeys
		}
		return &TopKeysState{K: k}
	}},
	KindUnion:   {name: "union", newState: func(Spec) State { return &UnionState{Cap: SetCap} }},
	KindCollect: {name: "collect", newState: func(Spec) State { return &CollectState{Cap: SetCap} }},
}

// kindByName indexes the registry by canonical name and alias.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind)
	for k, c := range registry {
		m[c.name] = k
		for _, a := range c.aliases {
			m[a] = k
		}
	}
	return m
}()

// String returns the function's query-language name.
func (k Kind) String() string {
	if c, ok := registry[k]; ok {
		return c.name
	}
	return "invalid"
}

// Spec identifies an aggregation function instance. K is the list bound
// for TOP-K and the counter capacity for TOPKEYS (ignored otherwise);
// Q is the target rank for QUANTILE (0 < Q < 1, ignored otherwise),
// canonicalized to micro-quantile precision so `quantile(x, 0.99)` and
// `p99(x)` build identical (comparable, cache-keyable) Specs.
type Spec struct {
	Kind Kind
	K    int
	Q    float64
}

// String renders the spec as it appears in the query language, in
// canonical form: quantiles always render as their pNN sugar, so every
// way of spelling the same quantile shares one canonical key.
func (s Spec) String() string {
	switch s.Kind {
	case KindTopK:
		return fmt.Sprintf("top%d", s.K)
	case KindTopKeys:
		return fmt.Sprintf("topkeys%d", s.K)
	case KindQuantile:
		return "p" + strconv.FormatFloat(math.Round(s.Q*1e8)/1e6, 'f', -1, 64)
	}
	return s.Kind.String()
}

// Validate rejects specs the parser can never produce but programmatic
// construction can: an unregistered kind, a quantile rank outside
// (0, 1), or a non-positive K where one is required.
func (s Spec) Validate() error {
	if _, ok := registry[s.Kind]; !ok {
		return fmt.Errorf("aggregate: invalid spec kind %d", s.Kind)
	}
	switch s.Kind {
	case KindQuantile:
		if !(s.Q > 0 && s.Q < 1) { // negated so NaN is rejected too
			return fmt.Errorf("aggregate: quantile rank %v outside (0, 1)", s.Q)
		}
	case KindTopK, KindTopKeys:
		if s.K <= 0 {
			return fmt.Errorf("aggregate: %s needs a positive k", registry[s.Kind].name)
		}
	}
	return nil
}

// canonQ canonicalizes a quantile rank to micro-quantile precision, so
// the float arithmetic of `p99.9` (99.9/100) and the literal of
// `quantile(x, 0.999)` land on the same Spec.Q bit pattern.
func canonQ(q float64) float64 { return math.Round(q*1e6) / 1e6 }

// ParseSpec parses an aggregation function name: sum, count, min, max,
// avg, std, enum, dcount, union, collect, topN (e.g. top3), topkeysN,
// or pNN (e.g. p99, p99.9).
func ParseSpec(name string) (Spec, error) {
	return ParseSpecArg(name, "")
}

// ParseSpecArg parses an aggregation function name plus the optional
// second argument of the two-argument query forms `quantile(attr, q)`
// and `topkeys(attr, k)`. Functions that take no argument reject a
// non-empty arg.
func ParseSpecArg(name, arg string) (Spec, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	if n == "" {
		return Spec{}, fmt.Errorf("aggregate: empty function name")
	}
	if k, ok := kindByName[n]; ok {
		s := Spec{Kind: k}
		switch k {
		case KindTopK:
			s.K = 1
		case KindTopKeys:
			s.K = DefaultTopKeys
			if arg != "" {
				kk, err := strconv.Atoi(arg)
				if err != nil || kk <= 0 {
					return Spec{}, fmt.Errorf("aggregate: bad topkeys count %q", arg)
				}
				s.K = kk
			}
			return s, nil
		case KindQuantile:
			if arg == "" {
				return Spec{}, fmt.Errorf("aggregate: %s needs a rank: %s(attr, q) with 0 < q < 1", n, n)
			}
			q, err := strconv.ParseFloat(arg, 64)
			if err != nil || !(q > 0 && q < 1) { // negated so NaN is rejected too
				return Spec{}, fmt.Errorf("aggregate: bad quantile rank %q (need 0 < q < 1)", arg)
			}
			s.Q = canonQ(q)
			return s, nil
		}
		if arg != "" {
			return Spec{}, fmt.Errorf("aggregate: %s takes no argument", n)
		}
		return s, nil
	}
	if arg != "" {
		return Spec{}, fmt.Errorf("aggregate: %s takes no argument", n)
	}
	if rest, ok := strings.CutPrefix(n, "topkeys"); ok && rest != "" {
		k, err := strconv.Atoi(rest)
		if err != nil || k <= 0 {
			return Spec{}, fmt.Errorf("aggregate: bad topkeys spec %q", name)
		}
		return Spec{Kind: KindTopKeys, K: k}, nil
	}
	if rest, ok := strings.CutPrefix(n, "top"); ok {
		if rest == "" {
			return Spec{Kind: KindTopK, K: 1}, nil
		}
		k, err := strconv.Atoi(rest)
		if err != nil || k <= 0 {
			return Spec{}, fmt.Errorf("aggregate: bad top-k spec %q", name)
		}
		return Spec{Kind: KindTopK, K: k}, nil
	}
	if rest, ok := strings.CutPrefix(n, "p"); ok && rest != "" && rest[0] >= '0' && rest[0] <= '9' {
		pct, err := strconv.ParseFloat(rest, 64)
		if err != nil || !(pct > 0 && pct < 100) { // negated so NaN is rejected too
			return Spec{}, fmt.Errorf("aggregate: bad percentile spec %q (need p0 < pNN < p100)", name)
		}
		return Spec{Kind: KindQuantile, Q: canonQ(pct / 100)}, nil
	}
	return Spec{}, fmt.Errorf("aggregate: unknown function %q", name)
}

// Entry is one node's contribution in list-valued results.
type Entry struct {
	Node  ids.ID
	Value value.Value
}

// State is a partial aggregate for some set of nodes. The zero State of
// a Spec (via New) represents the empty set.
//
// All State implementations have exported fields and are registered for
// gob so they can cross the TCP transport.
type State interface {
	// Add folds one node's local value into the state. Invalid values
	// (missing attributes) are ignored except by COUNT over "*".
	Add(node ids.ID, v value.Value)
	// Merge folds another state of the same Spec into this one.
	Merge(other State) error
	// Result extracts the final answer.
	Result() Result
	// Nodes reports how many node contributions the state holds.
	Nodes() int64
}

// KeyCount is one heavy-hitter entry of a TOPKEYS result: an attribute
// value (rendered as a group key) and its estimated frequency.
type KeyCount struct {
	Key   string
	Count int64
}

// Result is a completed aggregation: a scalar value, a list, or both
// (TOP-K, ENUMERATE, UNION and COLLECT fill Entries; TOPKEYS fills
// Counts; the rest fill Value).
type Result struct {
	Value   value.Value
	Entries []Entry
	Counts  []KeyCount
}

// String renders the result for display.
func (r Result) String() string {
	if r.Counts != nil {
		parts := make([]string, 0, len(r.Counts))
		for _, kc := range r.Counts {
			parts = append(parts, fmt.Sprintf("%s×%d", kc.Key, kc.Count))
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	if r.Entries == nil {
		return r.Value.String()
	}
	parts := make([]string, 0, len(r.Entries))
	for _, e := range r.Entries {
		parts = append(parts, fmt.Sprintf("%s=%s", e.Node.Short(), e.Value))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// New creates the empty state for the spec by looking up the
// function's registered constructor. Recycled states (see Recycle) are
// reused when available: the per-node per-epoch report path allocates
// one state tree per message, and at N=10k the pool is the difference
// between steady-state and GC-bound.
func (s Spec) New() State {
	if st := poolGet(s); st != nil {
		return st
	}
	c, ok := registry[s.Kind]
	if !ok {
		panic(fmt.Sprintf("aggregate: New on invalid spec %v", s))
	}
	return c.newState(s)
}

// statePools recycles leaf states per Kind. States are fully reset on
// put; TopK's K is re-stamped on get (the pool is keyed by kind only).
var statePools [16]sync.Pool

func poolGet(s Spec) State {
	k := int(s.Kind)
	if k <= 0 || k >= len(statePools) {
		return nil
	}
	st, _ := statePools[k].Get().(State)
	if st == nil {
		return nil
	}
	// The pool is keyed by kind only; parameter fields are re-stamped
	// from the spec on the way out.
	switch t := st.(type) {
	case *TopKState:
		t.K = s.K
		if t.K <= 0 {
			t.K = 1
		}
	case *TopKeysState:
		t.K = s.K
		if t.K <= 0 {
			t.K = DefaultTopKeys
		}
	case *QuantileState:
		t.Q = s.Q
	}
	return st
}

// Recycle gives up the caller's reference to a state tree and, when it
// was the last one, returns the tree to the allocation pools.
//
// A state nobody retained (a one-shot ResponseMsg partial, anything
// decoded from a socket) has a single owner, and the call recycles it at
// once. Callers must guarantee that nothing references the state, its
// sub-states, or their entry slices anymore — the canonical safe point
// is right after Merge folded a received partial into an accumulator
// (every Merge implementation copies values; none retains references
// into its argument).
//
// A GroupedState that was retained (GroupedState.Retain) counts its
// holders: each Recycle hands one hold back and only the last recycles,
// so every holder calls Recycle exactly once per hold and never touches
// the state afterwards. A message carries one hold: the receiver that
// files it takes the hold over, and on the TCP agent the transport
// hands it back once the frame is written, because the peer decodes its
// own copy; a receiver that rejects the message hands its hold back
// too. A message dropped in flight keeps its hold, and so does a filed
// copy its receiver drops with the child's slot or the whole entry; both
// leave the state to the garbage collector, which is the safe direction.
// Because its holders read a retained state concurrently, it is
// immutable after its first hand-off: build a new state instead of
// adding to a sent one.
//
// Recycling a GroupedState reslices its columns to zero length, keeping
// their backing arrays (and the key strings in them, which the decoder
// reuses when the next report repeats a key), and pools the shell by
// Spec.Kind.
//
// Recycling anything still referenced is a correctness bug, not a
// performance tweak.
func Recycle(st State) {
	switch s := st.(type) {
	case nil:
		return
	case *GroupedState:
		if s.holders.Add(-1) > 0 {
			return
		}
		s.truncate(0)
		Recycle(s.Other)
		s.Cap, s.Other, s.Spilled, s.tail = 0, nil, 0, 0
		s.holders.Store(0)
		groupedPools[s.Spec.Kind].Put(s)
	case *SumState:
		*s = SumState{}
		statePools[int(KindSum)].Put(st)
	case *CountState:
		*s = CountState{}
		statePools[int(KindCount)].Put(st)
	case *ExtremeState:
		max := s.Max
		*s = ExtremeState{Max: max}
		if max {
			statePools[int(KindMax)].Put(st)
		} else {
			statePools[int(KindMin)].Put(st)
		}
	case *AvgState:
		*s = AvgState{}
		statePools[int(KindAvg)].Put(st)
	case *StdState:
		*s = StdState{}
		statePools[int(KindStd)].Put(st)
	case *TopKState:
		entries := s.Entries[:0]
		*s = TopKState{Entries: entries}
		statePools[int(KindTopK)].Put(st)
	case *EnumState:
		entries := s.Entries[:0]
		*s = EnumState{Entries: entries}
		statePools[int(KindEnum)].Put(st)
	case *DCountState:
		s.reset()
		statePools[int(KindDCount)].Put(st)
	case *QuantileState:
		s.reset()
		statePools[int(KindQuantile)].Put(st)
	case *TopKeysState:
		s.reset()
		statePools[int(KindTopKeys)].Put(st)
	case *UnionState:
		entries := s.Entries[:0]
		keys := s.Keys[:0]
		*s = UnionState{Cap: SetCap, Keys: keys, Entries: entries}
		statePools[int(KindUnion)].Put(st)
	case *CollectState:
		entries := s.Entries[:0]
		*s = CollectState{Cap: SetCap, Entries: entries}
		statePools[int(KindCollect)].Put(st)
	}
}

// ---------------------------------------------------------------------

// SumState sums numeric contributions.
type SumState struct {
	Valid bool
	V     value.Value
	N     int64
}

// Add folds one node's value in.
func (s *SumState) Add(_ ids.ID, v value.Value) {
	if !v.IsNumeric() {
		if b, ok := v.AsBool(); ok {
			// Booleans sum as 0/1, matching the paper's (A, SUM, A=1)
			// usage for counting flag attributes.
			iv := int64(0)
			if b {
				iv = 1
			}
			v = value.Int(iv)
		} else {
			return
		}
	}
	s.N++
	if !s.Valid {
		s.V, s.Valid = v, true
		return
	}
	sum, err := value.Add(s.V, v)
	if err == nil {
		s.V = sum
	}
}

// Merge folds another SumState in.
func (s *SumState) Merge(other State) error {
	o, ok := other.(*SumState)
	if !ok {
		return fmt.Errorf("aggregate: merge %T into SumState", other)
	}
	if !o.Valid {
		return nil
	}
	s.N += o.N
	if !s.Valid {
		s.V, s.Valid = o.V, true
		return nil
	}
	sum, err := value.Add(s.V, o.V)
	if err != nil {
		return err
	}
	s.V = sum
	return nil
}

// Result returns the sum (Int 0 when no contributions).
func (s *SumState) Result() Result {
	if !s.Valid {
		return Result{Value: value.Int(0)}
	}
	return Result{Value: s.V}
}

// Nodes reports the number of contributions.
func (s *SumState) Nodes() int64 { return s.N }

// ---------------------------------------------------------------------

// CountState counts contributing nodes.
type CountState struct {
	N int64
}

// Add counts the node when it contributes any valid value.
func (s *CountState) Add(_ ids.ID, v value.Value) {
	if v.IsValid() {
		s.N++
	}
}

// Merge folds another CountState in.
func (s *CountState) Merge(other State) error {
	o, ok := other.(*CountState)
	if !ok {
		return fmt.Errorf("aggregate: merge %T into CountState", other)
	}
	s.N += o.N
	return nil
}

// Result returns the count.
func (s *CountState) Result() Result { return Result{Value: value.Int(s.N)} }

// Nodes reports the number of contributions.
func (s *CountState) Nodes() int64 { return s.N }

// ---------------------------------------------------------------------

// ExtremeState tracks the minimum or maximum contribution and the node
// that reported it.
type ExtremeState struct {
	Max   bool
	Valid bool
	Best  Entry
	N     int64
}

// Add folds one node's value in.
func (s *ExtremeState) Add(node ids.ID, v value.Value) {
	if !v.IsValid() {
		return
	}
	s.N++
	if !s.Valid {
		s.Best = Entry{Node: node, Value: v}
		s.Valid = true
		return
	}
	c, err := value.Compare(v, s.Best.Value)
	if err != nil {
		return
	}
	if (s.Max && c > 0) || (!s.Max && c < 0) {
		s.Best = Entry{Node: node, Value: v}
	}
}

// Merge folds another ExtremeState in.
func (s *ExtremeState) Merge(other State) error {
	o, ok := other.(*ExtremeState)
	if !ok || o.Max != s.Max {
		return fmt.Errorf("aggregate: merge %T into ExtremeState(max=%v)", other, s.Max)
	}
	if !o.Valid {
		return nil
	}
	n := s.N + o.N
	s.Add(o.Best.Node, o.Best.Value)
	s.N = n
	return nil
}

// Result returns the extreme value (invalid when no contributions).
func (s *ExtremeState) Result() Result {
	if !s.Valid {
		return Result{}
	}
	return Result{Value: s.Best.Value, Entries: []Entry{s.Best}}
}

// Nodes reports the number of contributions.
func (s *ExtremeState) Nodes() int64 { return s.N }

// ---------------------------------------------------------------------

// AvgState composes SUM and COUNT, as §3.1 prescribes.
type AvgState struct {
	Sum SumState
}

// Add folds one node's value in.
func (s *AvgState) Add(node ids.ID, v value.Value) { s.Sum.Add(node, v) }

// Merge folds another AvgState in.
func (s *AvgState) Merge(other State) error {
	o, ok := other.(*AvgState)
	if !ok {
		return fmt.Errorf("aggregate: merge %T into AvgState", other)
	}
	return s.Sum.Merge(&o.Sum)
}

// Result returns sum/count as a float (invalid when no contributions).
func (s *AvgState) Result() Result {
	if s.Sum.N == 0 {
		return Result{}
	}
	f, _ := s.Sum.V.AsFloat()
	return Result{Value: value.Float(f / float64(s.Sum.N))}
}

// Nodes reports the number of contributions.
func (s *AvgState) Nodes() int64 { return s.Sum.N }

// ---------------------------------------------------------------------

// TopKState keeps the K largest contributions, ordered descending with
// node IDs breaking ties so merges are deterministic.
type TopKState struct {
	K       int
	Entries []Entry
	N       int64
}

// Add folds one node's value in. The entry list is kept ordered at all
// times, so one contribution costs a binary-search insert (with an O(1)
// doesn't-make-the-cut rejection when the list is full) instead of the
// pre-optimization full re-sort per contribution.
func (s *TopKState) Add(node ids.ID, v value.Value) {
	if !v.IsValid() {
		return
	}
	s.N++
	e := Entry{Node: node, Value: v}
	if len(s.Entries) >= s.K && len(s.Entries) > 0 && !entryBefore(e, s.Entries[len(s.Entries)-1]) {
		return
	}
	i := sort.Search(len(s.Entries), func(i int) bool { return entryBefore(e, s.Entries[i]) })
	s.Entries = append(s.Entries, Entry{})
	copy(s.Entries[i+1:], s.Entries[i:])
	s.Entries[i] = e
	if len(s.Entries) > s.K {
		s.Entries = s.Entries[:s.K]
	}
}

// Merge folds another TopKState in.
func (s *TopKState) Merge(other State) error {
	o, ok := other.(*TopKState)
	if !ok {
		return fmt.Errorf("aggregate: merge %T into TopKState", other)
	}
	s.N += o.N
	s.Entries = append(s.Entries, o.Entries...)
	s.compact()
	return nil
}

// entryBefore is the top-k order: value descending, node IDs breaking
// ties (and incomparable values) so merges are deterministic.
func entryBefore(a, b Entry) bool {
	c, err := value.Compare(a.Value, b.Value)
	if err == nil && c != 0 {
		return c > 0
	}
	return ids.Less(a.Node, b.Node)
}

func (s *TopKState) compact() {
	sort.Slice(s.Entries, func(i, j int) bool {
		return entryBefore(s.Entries[i], s.Entries[j])
	})
	if len(s.Entries) > s.K {
		s.Entries = s.Entries[:s.K]
	}
}

// Result returns the top-K list.
func (s *TopKState) Result() Result {
	out := make([]Entry, len(s.Entries))
	copy(out, s.Entries)
	r := Result{Entries: out}
	if len(out) > 0 {
		r.Value = out[0].Value
	}
	return r
}

// Nodes reports the number of contributions.
func (s *TopKState) Nodes() int64 { return s.N }

// ---------------------------------------------------------------------

// EnumState lists every contribution (the paper's enumeration function).
type EnumState struct {
	Entries []Entry
}

// Add folds one node's value in.
func (s *EnumState) Add(node ids.ID, v value.Value) {
	if !v.IsValid() {
		return
	}
	s.Entries = append(s.Entries, Entry{Node: node, Value: v})
}

// Merge folds another EnumState in.
func (s *EnumState) Merge(other State) error {
	o, ok := other.(*EnumState)
	if !ok {
		return fmt.Errorf("aggregate: merge %T into EnumState", other)
	}
	s.Entries = append(s.Entries, o.Entries...)
	return nil
}

// Result returns the full list, sorted by node ID for determinism.
func (s *EnumState) Result() Result {
	out := make([]Entry, len(s.Entries))
	copy(out, s.Entries)
	sort.Slice(out, func(i, j int) bool { return ids.Less(out[i].Node, out[j].Node) })
	r := Result{Entries: out}
	r.Value = value.Int(int64(len(out)))
	return r
}

// Nodes reports the number of contributions.
func (s *EnumState) Nodes() int64 { return int64(len(s.Entries)) }

// ---------------------------------------------------------------------

// StdState computes the population standard deviation from the moment
// sums (n, Σx, Σx²), which merge by simple addition.
type StdState struct {
	N     int64
	Sum   float64
	SumSq float64
}

// Add folds one node's value in.
func (s *StdState) Add(_ ids.ID, v value.Value) {
	f, ok := v.AsFloat()
	if !ok {
		return
	}
	s.N++
	s.Sum += f
	s.SumSq += f * f
}

// Merge folds another StdState in.
func (s *StdState) Merge(other State) error {
	o, ok := other.(*StdState)
	if !ok {
		return fmt.Errorf("aggregate: merge %T into StdState", other)
	}
	s.N += o.N
	s.Sum += o.Sum
	s.SumSq += o.SumSq
	return nil
}

// Result returns sqrt(E[x²]-E[x]²); invalid with no contributions.
func (s *StdState) Result() Result {
	if s.N == 0 {
		return Result{}
	}
	mean := s.Sum / float64(s.N)
	variance := s.SumSq/float64(s.N) - mean*mean
	if variance < 0 {
		variance = 0 // numeric guard
	}
	return Result{Value: value.Float(math.Sqrt(variance))}
}

// Nodes reports the number of contributions.
func (s *StdState) Nodes() int64 { return s.N }
