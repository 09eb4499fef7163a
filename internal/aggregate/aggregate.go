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

// kindInfo describes one registered aggregation function: its canonical
// query-language name, accepted aliases, and the constructor of its zero
// State (reset then makes it a Spec's empty state). Spec.New, ParseSpec,
// Kind.String and the wire decoder are all views of this one registry,
// so adding a function is one row here plus its State type.
type kindInfo struct {
	name    string
	aliases []string
	// sketch marks approximation kinds whose merges are
	// bound-preserving rather than value-identical (see Approximate);
	// the merge-law property harness keys its comparison mode on it.
	sketch bool
	zero   func() State
}

var registry = [...]kindInfo{
	KindSum:      {name: "sum", zero: func() State { return new(SumState) }},
	KindCount:    {name: "count", zero: func() State { return new(CountState) }},
	KindMin:      {name: "min", zero: func() State { return new(ExtremeState) }},
	KindMax:      {name: "max", zero: func() State { return new(ExtremeState) }},
	KindAvg:      {name: "avg", aliases: []string{"average", "mean"}, zero: func() State { return new(AvgState) }},
	KindTopK:     {name: "top", zero: func() State { return new(TopKState) }},
	KindEnum:     {name: "enum", aliases: []string{"enumerate", "list"}, zero: func() State { return new(EnumState) }},
	KindStd:      {name: "std", aliases: []string{"stddev"}, zero: func() State { return new(StdState) }},
	KindDCount:   {name: "dcount", aliases: []string{"countdistinct"}, sketch: true, zero: func() State { return new(DCountState) }},
	KindQuantile: {name: "quantile", aliases: []string{"percentile"}, sketch: true, zero: func() State { return new(QuantileState) }},
	KindTopKeys:  {name: "topkeys", sketch: true, zero: func() State { return new(TopKeysState) }},
	KindUnion:    {name: "union", zero: func() State { return new(UnionState) }},
	KindCollect:  {name: "collect", zero: func() State { return new(CollectState) }},
}

// registered reports whether k has a row in the registry.
func (k Kind) registered() bool { return k > KindInvalid && int(k) < len(registry) }

// kindByName indexes the registry by canonical name and alias.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind)
	for _, k := range Kinds() {
		m[registry[k].name] = k
		for _, a := range registry[k].aliases {
			m[a] = k
		}
	}
	return m
}()

// String returns the function's query-language name.
func (k Kind) String() string {
	if k.registered() {
		return registry[k].name
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
	if !s.Kind.registered() {
		return fmt.Errorf("aggregate: invalid spec kind %d", s.Kind)
	}
	switch s.Kind {
	case KindQuantile:
		if !(s.Q > 0 && s.Q < 1) { // negated so NaN is rejected too
			return fmt.Errorf("aggregate: quantile rank %v outside (0, 1)", s.Q)
		}
	case KindTopK, KindTopKeys:
		if s.K <= 0 {
			return fmt.Errorf("aggregate: %v needs a positive k", s.Kind)
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
			s.K = defaultTopK
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
// The set of States is closed: its unexported methods keep every
// implementation in this package, one leaf type per registered kind plus
// the keyed GroupedState, and each has a columnar wire layout (wire.go).
// Their exported fields let gob carry them inside tag-0 messages too.
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
	// kind is the state's aggregation function, and so its wire tag
	// and pool (GroupedState answers its own tag, wireGrouped).
	kind() Kind
	// reset empties the state for spec, keeping its backing arrays,
	// and stamps the spec's parameters. It is the one place a kind's
	// parameter defaults are written.
	reset(spec Spec)
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

// New creates the empty state for the spec. Recycled states (see
// Recycle) are reused when available: the per-node per-epoch report path
// allocates one state tree per message, and at N=10k the pool is the
// difference between steady-state and GC-bound.
func (s Spec) New() State {
	if !s.Kind.registered() {
		panic(fmt.Sprintf("aggregate: New on invalid spec %v", s))
	}
	st, ok := statePools[s.Kind].Get().(State)
	if !ok {
		return freshState(s)
	}
	st.reset(s)
	return st
}

// freshState builds s's empty state without the pool: the zero State of
// its kind, reset for s. Its slices and maps are nil, which is what the
// wire decoder needs to reproduce a nil-vs-empty distinction.
func freshState(s Spec) State {
	st := registry[s.Kind].zero()
	st.reset(s)
	return st
}

// statePools recycles leaf states per Kind. A pooled state is reset, and
// its parameters stamped from the requesting spec, on its way out.
var statePools [len(registry)]sync.Pool

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
// Recycling a GroupedState resets it (see GroupedState.reset) and pools
// the shell by Spec.Kind; a leaf goes to its kind's pool as it is, and
// Spec.New resets it on the way out.
//
// Recycling anything still referenced is a correctness bug, not a
// performance tweak.
func Recycle(st State) {
	switch s := st.(type) {
	case nil:
	case *GroupedState:
		if s.holders.Add(-1) <= 0 {
			s.reset(s.Spec)
			groupedPools[s.Spec.Kind].Put(s)
		}
	default:
		statePools[st.kind()].Put(st)
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

func (s *SumState) kind() Kind { return KindSum }
func (s *SumState) reset(Spec) { *s = SumState{} }

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

func (s *CountState) kind() Kind { return KindCount }
func (s *CountState) reset(Spec) { *s = CountState{} }

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

func (s *ExtremeState) kind() Kind {
	if s.Max {
		return KindMax
	}
	return KindMin
}

func (s *ExtremeState) reset(spec Spec) { *s = ExtremeState{Max: spec.Kind == KindMax} }

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

func (s *AvgState) kind() Kind { return KindAvg }
func (s *AvgState) reset(Spec) { *s = AvgState{} }

// ---------------------------------------------------------------------

// defaultTopK is the TOP-K list bound of a bare `top`.
const defaultTopK = 1

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

func (s *TopKState) kind() Kind { return KindTopK }

// reset keeps defaultTopK entries when the spec gives no positive K.
func (s *TopKState) reset(spec Spec) {
	*s = TopKState{K: spec.K, Entries: s.Entries[:0]}
	if s.K <= 0 {
		s.K = defaultTopK
	}
}

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

func (s *EnumState) kind() Kind { return KindEnum }
func (s *EnumState) reset(Spec) { *s = EnumState{Entries: s.Entries[:0]} }

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

func (s *StdState) kind() Kind { return KindStd }
func (s *StdState) reset(Spec) { *s = StdState{} }
