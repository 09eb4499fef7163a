// Columnar wire codec for aggregate states — the hand-rolled binary
// encoding the TCP transport ships instead of reflection-driven gob.
// Every State kind gets a one-byte tag and a compact body. The keyed
// GroupedState — the payload of every epoch report and query response —
// ships the way it is held: its ascending key column as one run of
// length-prefixed strings, its value column as per-field vectors
// (validity bytes, varint counts, fixed-width floats), so a 16-group AVG
// report is a few hundred bytes of straight-line appends, and decoding
// refills a pooled shell's columns in place.
//
// Decoding is the exact inverse and, for the leaf kinds, shape-faithful:
// nil vs empty slices and maps survive (wirefmt's length+1 convention),
// so a decoded state DeepEquals the encoded one — the cross-codec
// equivalence sweep in internal/transport holds every registered kind to
// that bar. All readers are bounds-checked; arbitrary input errors
// cleanly.
package aggregate

import (
	"fmt"
	"sort"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/value"
	"github.com/moara/moara/internal/wirefmt"
)

// State tags. Leaf kinds reuse their Kind byte; the keyed container and
// the nil state get tags outside the Kind range. (Tag 255 is reserved
// for a gob-wrapped fallback at the message layer — see internal/core.)
const (
	wireNilState  = 0
	wireGrouped   = 100
	maxStateDepth = 6 // nesting bound on hostile input
)

// AppendSpec appends a Spec (kind byte, varint K, float Q). The zero
// Spec encodes as kind 0 and round-trips, so zero-value states survive.
func AppendSpec(b []byte, s Spec) []byte {
	b = append(b, byte(s.Kind))
	b = wirefmt.AppendVarint(b, int64(s.K))
	return wirefmt.AppendFloat(b, s.Q)
}

// ReadSpec decodes one AppendSpec-encoded Spec. Unregistered non-zero
// kinds are corrupt (a decoder must never manufacture states it cannot
// construct).
func ReadSpec(b []byte) (Spec, []byte, error) {
	r := &reader{b: b}
	s := r.spec()
	return s, r.b, r.err
}

func (r *reader) spec() Spec {
	s := Spec{Kind: Kind(read(r, wirefmt.Byte)), K: int(read(r, wirefmt.Varint)), Q: read(r, wirefmt.Float)}
	if _, ok := registry[s.Kind]; !ok && s.Kind != KindInvalid {
		r.corrupt("wire spec kind %d", s.Kind)
	}
	return s
}

// AppendState appends one state (tag + body). A nil state is one byte.
// State implementations outside this package's registry report an
// error, which the message layer answers with its gob fallback.
func AppendState(b []byte, st State) ([]byte, error) {
	if st == nil {
		return append(b, wireNilState), nil
	}
	switch s := st.(type) {
	case *GroupedState:
		b = append(b, wireGrouped)
		return appendGroupedBody(b, s)
	case *SumState:
		return appendSumBody(append(b, byte(KindSum)), s), nil
	case *CountState:
		b = append(b, byte(KindCount))
		return wirefmt.AppendVarint(b, s.N), nil
	case *ExtremeState:
		k := KindMin
		if s.Max {
			k = KindMax
		}
		b = append(b, byte(k))
		return appendExtremeBody(b, s), nil
	case *AvgState:
		return appendSumBody(append(b, byte(KindAvg)), &s.Sum), nil
	case *TopKState:
		b = append(b, byte(KindTopK))
		b = wirefmt.AppendVarint(b, int64(s.K))
		b = wirefmt.AppendVarint(b, s.N)
		return appendEntries(b, s.Entries), nil
	case *EnumState:
		b = append(b, byte(KindEnum))
		return appendEntries(b, s.Entries), nil
	case *StdState:
		b = append(b, byte(KindStd))
		b = wirefmt.AppendVarint(b, s.N)
		b = wirefmt.AppendFloat(b, s.Sum)
		return wirefmt.AppendFloat(b, s.SumSq), nil
	case *DCountState:
		b = append(b, byte(KindDCount))
		return appendDCountBody(b, s), nil
	case *QuantileState:
		b = append(b, byte(KindQuantile))
		return appendQuantileBody(b, s), nil
	case *TopKeysState:
		b = append(b, byte(KindTopKeys))
		return appendTopKeysBody(b, s), nil
	case *UnionState:
		b = append(b, byte(KindUnion))
		b = wirefmt.AppendVarint(b, int64(s.Cap))
		b = wirefmt.AppendVarint(b, s.N)
		b = wirefmt.AppendBool(b, s.Dropped)
		b = wirefmt.AppendLen(b, len(s.Keys), s.Keys == nil)
		for _, k := range s.Keys {
			b = wirefmt.AppendString(b, k)
		}
		return appendEntries(b, s.Entries), nil
	case *CollectState:
		b = append(b, byte(KindCollect))
		b = wirefmt.AppendVarint(b, int64(s.Cap))
		b = wirefmt.AppendVarint(b, s.N)
		return appendEntries(b, s.Entries), nil
	}
	return b, fmt.Errorf("aggregate: no columnar encoding for %T", st)
}

// ReadState decodes one AppendState-encoded state, returning the
// unconsumed remainder. Arbitrary input errors cleanly: every count is
// bounds-checked against the remaining bytes before allocation, and
// container nesting is depth-limited.
func ReadState(b []byte) (State, []byte, error) {
	r := &reader{b: b}
	st := r.state(0)
	if r.err != nil {
		return nil, nil, r.err
	}
	return st, r.b, nil
}

func (r *reader) state(depth int) State {
	if depth > maxStateDepth {
		r.corrupt("state nesting too deep")
	}
	switch tag := read(r, wirefmt.Byte); tag {
	case wireNilState: // also what a failed read yields
	case wireGrouped:
		return r.grouped(depth, nil)
	case byte(KindSum):
		s := &SumState{}
		r.sum(s)
		return s
	case byte(KindCount):
		return &CountState{N: read(r, wirefmt.Varint)}
	case byte(KindMin), byte(KindMax):
		s := &ExtremeState{Max: tag == byte(KindMax)}
		r.extreme(s)
		return s
	case byte(KindAvg):
		s := &AvgState{}
		r.sum(&s.Sum)
		return s
	case byte(KindTopK):
		return &TopKState{K: int(read(r, wirefmt.Varint)), N: read(r, wirefmt.Varint), Entries: r.entries()}
	case byte(KindEnum):
		return &EnumState{Entries: r.entries()}
	case byte(KindStd):
		return &StdState{N: read(r, wirefmt.Varint), Sum: read(r, wirefmt.Float), SumSq: read(r, wirefmt.Float)}
	case byte(KindDCount):
		return r.dcount()
	case byte(KindQuantile):
		return r.quantile()
	case byte(KindTopKeys):
		return r.topKeys()
	case byte(KindUnion):
		return r.union()
	case byte(KindCollect):
		return &CollectState{Cap: int(read(r, wirefmt.Varint)), N: read(r, wirefmt.Varint), Entries: r.entries()}
	default:
		r.corrupt("wire state tag %d", tag)
	}
	return nil
}

// reader threads one input through a decoder: the first error sticks,
// every later read yields a zero value and no allocation, and the
// decoder checks err once at the end.
type reader struct {
	b   []byte
	err error
}

// read applies one wirefmt-style decoding step to r.
func read[T any](r *reader, f func([]byte) (T, []byte, error)) (v T) {
	if r.err == nil {
		v, r.b, r.err = f(r.b)
	}
	return v
}

// corrupt records a structural error unless an earlier read failed.
func (r *reader) corrupt(format string, args ...any) {
	if r.err == nil {
		r.b, r.err = nil, fmt.Errorf("aggregate: "+format+": %w", append(args, wirefmt.ErrCorrupt)...)
	}
}

// len reads a nil-preserving collection length (see wirefmt.Len); a
// failed read reports nil.
func (r *reader) len(minElemBytes int) (n int, isNil bool) {
	if r.err != nil {
		return 0, true
	}
	n, isNil, r.b, r.err = wirefmt.Len(r.b, minElemBytes)
	return n, isNil || r.err != nil
}

func (r *reader) bytes(n int) []byte {
	return read(r, func(b []byte) ([]byte, []byte, error) { return wirefmt.Bytes(b, n) })
}

// ---------------------------------------------------------------------
// Leaf bodies

func appendSumBody(b []byte, s *SumState) []byte {
	b = wirefmt.AppendBool(b, s.Valid)
	b = wirefmt.AppendVarint(b, s.N)
	if s.Valid {
		b = s.V.AppendWire(b)
	}
	return b
}

func (r *reader) sum(s *SumState) {
	s.Valid, s.N = read(r, wirefmt.Bool), read(r, wirefmt.Varint)
	if s.Valid {
		s.V = read(r, value.ReadWire)
	}
}

func appendExtremeBody(b []byte, s *ExtremeState) []byte {
	b = wirefmt.AppendBool(b, s.Valid)
	b = wirefmt.AppendVarint(b, s.N)
	if s.Valid {
		b = append(b, s.Best.Node[:]...)
		b = s.Best.Value.AppendWire(b)
	}
	return b
}

func (r *reader) extreme(s *ExtremeState) {
	s.Valid, s.N = read(r, wirefmt.Bool), read(r, wirefmt.Varint)
	if s.Valid {
		copy(s.Best.Node[:], r.bytes(ids.Bytes))
		s.Best.Value = read(r, value.ReadWire)
	}
}

func appendDCountBody(b []byte, s *DCountState) []byte {
	b = wirefmt.AppendVarint(b, s.N)
	b = wirefmt.AppendLen(b, len(s.Sparse), s.Sparse == nil)
	if len(s.Sparse) > 0 {
		idxs := make([]int, 0, len(s.Sparse))
		for idx := range s.Sparse {
			idxs = append(idxs, int(idx))
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			b = wirefmt.AppendUvarint(b, uint64(idx))
		}
		for _, idx := range idxs {
			b = append(b, s.Sparse[uint16(idx)])
		}
	}
	b = wirefmt.AppendLen(b, len(s.Dense), s.Dense == nil)
	return append(b, s.Dense...)
}

func (r *reader) dcount() *DCountState {
	s := &DCountState{N: read(r, wirefmt.Varint)}
	if cnt, isNil := r.len(2); !isNil {
		idxs := make([]uint16, cnt)
		for i := range idxs {
			if v := read(r, wirefmt.Uvarint); v < hllM {
				idxs[i] = uint16(v)
			} else {
				r.corrupt("HLL index %d", v)
			}
		}
		if rhos := r.bytes(cnt); r.err == nil {
			s.Sparse = make(map[uint16]uint8, cnt)
			for i, idx := range idxs {
				s.Sparse[idx] = rhos[i]
			}
		}
	}
	if dn, isNil := r.len(1); !isNil {
		if dn != hllM {
			r.corrupt("dense HLL length %d", dn)
		}
		if raw := r.bytes(dn); r.err == nil {
			s.Dense = append([]uint8(nil), raw...)
		}
	}
	return s
}

func appendQuantileBody(b []byte, s *QuantileState) []byte {
	b = wirefmt.AppendFloat(b, s.Q)
	b = wirefmt.AppendVarint(b, s.N)
	b = wirefmt.AppendUvarint(b, s.Coin)
	b = wirefmt.AppendLen(b, len(s.Levels), s.Levels == nil)
	for _, lvl := range s.Levels {
		b = wirefmt.AppendLen(b, len(lvl), lvl == nil)
		for _, f := range lvl {
			b = wirefmt.AppendFloat(b, f)
		}
	}
	return b
}

func (r *reader) quantile() *QuantileState {
	s := &QuantileState{Q: read(r, wirefmt.Float), N: read(r, wirefmt.Varint), Coin: read(r, wirefmt.Uvarint)}
	if nl, isNil := r.len(1); !isNil {
		s.Levels = make([][]float64, nl)
		for i := range s.Levels {
			if cnt, lvlNil := r.len(8); !lvlNil {
				s.Levels[i] = make([]float64, cnt)
				for j := range s.Levels[i] {
					s.Levels[i][j] = read(r, wirefmt.Float)
				}
			}
		}
	}
	return s
}

func appendTopKeysBody(b []byte, s *TopKeysState) []byte {
	b = wirefmt.AppendVarint(b, int64(s.K))
	b = wirefmt.AppendVarint(b, s.N)
	b = wirefmt.AppendLen(b, len(s.Counts), s.Counts == nil)
	if len(s.Counts) > 0 {
		keys := make([]string, 0, len(s.Counts))
		for k := range s.Counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = wirefmt.AppendString(b, k)
		}
		for _, k := range keys {
			b = wirefmt.AppendVarint(b, s.Counts[k])
		}
	}
	return b
}

func (r *reader) topKeys() *TopKeysState {
	s := &TopKeysState{K: int(read(r, wirefmt.Varint)), N: read(r, wirefmt.Varint)}
	if cnt, isNil := r.len(2); !isNil {
		keys := make([]string, cnt)
		for i := range keys {
			keys[i] = read(r, wirefmt.String)
		}
		s.Counts = make(map[string]int64, cnt)
		for _, k := range keys {
			s.Counts[k] = read(r, wirefmt.Varint)
		}
	}
	return s
}

func (r *reader) union() *UnionState {
	s := &UnionState{Cap: int(read(r, wirefmt.Varint)), N: read(r, wirefmt.Varint), Dropped: read(r, wirefmt.Bool)}
	if nk, isNil := r.len(1); !isNil {
		s.Keys = make([]string, nk)
		for i := range s.Keys {
			s.Keys[i] = read(r, wirefmt.String)
		}
	}
	s.Entries = r.entries()
	return s
}

// ---------------------------------------------------------------------
// Entry columns: node IDs back to back, then values back to back.

func appendEntries(b []byte, es []Entry) []byte {
	b = wirefmt.AppendLen(b, len(es), es == nil)
	for _, e := range es {
		b = append(b, e.Node[:]...)
	}
	for _, e := range es {
		b = e.Value.AppendWire(b)
	}
	return b
}

func (r *reader) entries() []Entry {
	n, isNil := r.len(ids.Bytes + 1)
	if isNil {
		return nil
	}
	es := make([]Entry, n)
	for i := range es {
		copy(es[i].Node[:], r.bytes(ids.Bytes))
	}
	for i := range es {
		es[i].Value = read(r, value.ReadWire)
	}
	return es
}

// ---------------------------------------------------------------------
// GroupedState: the hot container, shipped the way it is held. The key
// column goes out as one run of length-prefixed strings in ascending
// order; the value column goes out as per-field vectors for the
// fixed-width kinds (SUM/COUNT/MIN/MAX/AVG/STD — the overwhelming
// majority of epoch report traffic) and as self-delimiting tagged states
// for the list/sketch kinds. Decode fills a pooled shell's columns in
// place and rejects a key column that is not strictly ascending or is
// longer than the state's own cap.

func appendGroupedBody(b []byte, g *GroupedState) ([]byte, error) {
	g.settle()
	b = AppendSpec(b, g.Spec)
	b = wirefmt.AppendVarint(b, int64(g.Cap))
	b = wirefmt.AppendVarint(b, g.Spilled)
	b, err := AppendState(b, g.Other)
	if err != nil {
		return nil, err
	}
	n := len(g.keys)
	b = wirefmt.AppendLen(b, n, false)
	for _, k := range g.keys {
		b = wirefmt.AppendString(b, k)
	}
	switch g.Spec.Kind {
	case KindSum, KindAvg:
		for i := range n {
			b = wirefmt.AppendBool(b, sumOf(g.vals.at(i)).Valid)
		}
		for i := range n {
			b = wirefmt.AppendVarint(b, sumOf(g.vals.at(i)).N)
		}
		for i := range n {
			if s := sumOf(g.vals.at(i)); s.Valid {
				b = s.V.AppendWire(b)
			}
		}
	case KindCount:
		for i := range n {
			b = wirefmt.AppendVarint(b, g.vals.at(i).(*CountState).N)
		}
	case KindMin, KindMax:
		for i := range n {
			b = wirefmt.AppendBool(b, g.vals.at(i).(*ExtremeState).Valid)
		}
		for i := range n {
			b = wirefmt.AppendVarint(b, g.vals.at(i).(*ExtremeState).N)
		}
		for i := range n {
			if s := g.vals.at(i).(*ExtremeState); s.Valid {
				b = append(b, s.Best.Node[:]...)
			}
		}
		for i := range n {
			if s := g.vals.at(i).(*ExtremeState); s.Valid {
				b = s.Best.Value.AppendWire(b)
			}
		}
	case KindStd:
		for i := range n {
			b = wirefmt.AppendVarint(b, g.vals.at(i).(*StdState).N)
		}
		for i := range n {
			b = wirefmt.AppendFloat(b, g.vals.at(i).(*StdState).Sum)
		}
		for i := range n {
			b = wirefmt.AppendFloat(b, g.vals.at(i).(*StdState).SumSq)
		}
	default:
		for i := range n {
			if b, err = AppendState(b, g.vals.at(i)); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// sumOf returns the SumState behind a SUM or AVG slot.
func sumOf(st State) *SumState {
	if a, ok := st.(*AvgState); ok {
		return &a.Sum
	}
	return st.(*SumState)
}

// grouped decodes a grouped body into g, or into a shell from the pool
// when g is nil.
func (r *reader) grouped(depth int, g *GroupedState) *GroupedState {
	spec := r.spec()
	cap_ := read(r, wirefmt.Varint)
	spilled := read(r, wirefmt.Varint)
	if r.err == nil && len(r.b) > 0 && r.b[0] != wireNilState && r.b[0] != byte(spec.Kind) {
		r.corrupt("grouped %v spill bucket tagged %d", spec.Kind, r.b[0])
	}
	other := r.state(depth + 1)
	n, _ := r.len(1)
	switch {
	case spec.Kind == KindInvalid && n > 0:
		r.corrupt("grouped keys without a spec")
	case cap_ > 0 && int64(n) > cap_:
		r.corrupt("%d grouped keys over cap %d", n, cap_)
	}
	if r.err != nil {
		return nil
	}
	if g == nil {
		g = NewGroupedSized(spec, int(cap_), n)
	}
	g.Spec, g.Cap, g.Spilled, g.Other = spec, int(cap_), spilled, other
	// A pooled shell's key column still holds the strings of its last
	// use; a report that repeats a key reuses the string.
	stale := g.keys[:cap(g.keys)]
	g.keys = g.keys[:0]
	for i := range n {
		k := ""
		if i < len(stale) {
			k = stale[i]
		}
		k = read(r, func(b []byte) (string, []byte, error) { return wirefmt.ReuseString(b, k) })
		if i > 0 && k <= g.keys[i-1] {
			r.corrupt("grouped key %q after %q", k, g.keys[i-1])
		}
		g.keys = append(g.keys, k)
	}
	g.col().grow(n)
	vals := g.vals
	switch spec.Kind {
	case KindSum, KindAvg:
		for i := range n {
			sumOf(vals.at(i)).Valid = read(r, wirefmt.Bool)
		}
		for i := range n {
			sumOf(vals.at(i)).N = read(r, wirefmt.Varint)
		}
		for i := range n {
			if s := sumOf(vals.at(i)); s.Valid {
				s.V = read(r, value.ReadWire)
			}
		}
	case KindCount:
		for i := range n {
			vals.at(i).(*CountState).N = read(r, wirefmt.Varint)
		}
	case KindMin, KindMax:
		for i := range n {
			vals.at(i).(*ExtremeState).Valid = read(r, wirefmt.Bool)
		}
		for i := range n {
			vals.at(i).(*ExtremeState).N = read(r, wirefmt.Varint)
		}
		for i := range n {
			if s := vals.at(i).(*ExtremeState); s.Valid {
				copy(s.Best.Node[:], r.bytes(ids.Bytes))
			}
		}
		for i := range n {
			if s := vals.at(i).(*ExtremeState); s.Valid {
				s.Best.Value = read(r, value.ReadWire)
			}
		}
	case KindStd:
		for i := range n {
			vals.at(i).(*StdState).N = read(r, wirefmt.Varint)
		}
		for i := range n {
			vals.at(i).(*StdState).Sum = read(r, wirefmt.Float)
		}
		for i := range n {
			vals.at(i).(*StdState).SumSq = read(r, wirefmt.Float)
		}
	default:
		slots := vals.(*states).s
		for i := range slots {
			if r.err == nil && (len(r.b) == 0 || r.b[0] != byte(spec.Kind)) {
				r.corrupt("grouped %v slot truncated or mistagged", spec.Kind)
			}
			slots[i] = r.state(depth + 1)
		}
	}
	return g
}

// GobEncode carries the state through the gob fallback (the tag-0
// message bodies, such as the orphan pull's RouteMsg) as its columnar
// body.
func (g *GroupedState) GobEncode() ([]byte, error) { return appendGroupedBody(nil, g) }

// GobDecode is the inverse of GobEncode.
func (g *GroupedState) GobDecode(b []byte) error {
	*g = GroupedState{}
	r := &reader{b: b}
	if r.grouped(0, g); len(r.b) != 0 {
		r.corrupt("%d bytes after a gob grouped body", len(r.b))
	}
	return r.err
}
