// Columnar wire codec for aggregate states — the hand-rolled binary
// encoding the TCP transport ships instead of reflection-driven gob.
// Every State kind gets a one-byte tag and a compact body, and each
// body is written once, as a layout over a wirefmt.Codec that runs in
// both directions. The keyed GroupedState — the payload of every epoch
// report and query response — ships the way it is held: its ascending
// key column as one run of length-prefixed strings, its value column as
// per-field vectors (validity bytes, varint counts, fixed-width floats),
// so a 16-group AVG report is a few hundred bytes of straight-line
// appends, and decoding refills a pooled shell's columns in place.
//
// Decoding is shape-faithful for the leaf kinds: nil vs empty slices
// and maps survive (wirefmt's length+1 convention), so a decoded state
// DeepEquals the encoded one — TestEveryKindHasALayout holds every
// registered kind to that bar. Decoding
// always builds a fresh state (a pooled shell for a keyed one); it
// never writes into the state the destination held.
package aggregate

import (
	"fmt"
	"slices"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/wirefmt"
)

// State tags. Leaf kinds reuse their Kind byte; the keyed container and
// the nil state get tags outside the Kind range.
const (
	wireNilState  = 0
	wireGrouped   = 100
	maxStateDepth = 6 // nesting bound on hostile input
)

// WireSpec carries a Spec: kind byte, varint K, float Q. The zero Spec
// carries kind 0 and round-trips, so zero-value states survive. A
// decoded non-zero kind outside the registry is corrupt: a decoder must
// never manufacture states it cannot construct.
func WireSpec(c *wirefmt.Codec, s *Spec) {
	c.Byte((*byte)(&s.Kind))
	c.Int(&s.K)
	c.Float(&s.Q)
	if c.Dec && s.Kind != KindInvalid && !s.Kind.registered() {
		c.Corrupt("aggregate: wire spec kind %d", s.Kind)
	}
}

// WireState carries one state: a tag, then its body. A nil state is one
// byte. The set of States is closed, so every state has a tag (its
// kind) and a layout below. Decoding stores a fresh state in *st;
// container nesting is depth-limited.
func WireState(c *wirefmt.Codec, st *State) { wireState(c, st, 0) }

func wireState(c *wirefmt.Codec, st *State, depth int) {
	tag := byte(wireNilState)
	if *st != nil {
		tag = byte((*st).kind())
	}
	c.Byte(&tag)
	if c.Dec {
		*st = nil
		switch k := Kind(tag); {
		case depth > maxStateDepth:
			c.Corrupt("aggregate: state nesting too deep")
		case c.Err() != nil, tag == wireNilState:
		case tag == wireGrouped:
			if g := wireGroupedBody(c, nil, depth); g != nil {
				*st = g
			}
			return
		case !k.registered():
			c.Corrupt("aggregate: wire state tag %d", tag)
			return
		default:
			// Never a pooled state: its empty slices are not nil.
			*st = freshState(Spec{Kind: k})
		}
	}
	// The body dispatch is a static type switch, one arm per type, on
	// purpose: a call through an interface method (st.wire(c)) lets c
	// escape, moving every caller's Codec to the heap — one allocation
	// per encode and per decode on the report path.
	switch s := (*st).(type) {
	case nil:
	case *GroupedState:
		wireGroupedBody(c, s, depth)
	case *SumState:
		wireSum(c, s)
	case *CountState:
		c.Varint(&s.N)
	case *ExtremeState:
		wireExtreme(c, s)
	case *AvgState:
		wireSum(c, &s.Sum)
	case *TopKState:
		c.Int(&s.K)
		c.Varint(&s.N)
		wireEntries(c, &s.Entries)
	case *EnumState:
		wireEntries(c, &s.Entries)
	case *StdState:
		c.Varint(&s.N)
		c.Float(&s.Sum)
		c.Float(&s.SumSq)
	case *DCountState:
		wireDCount(c, s)
	case *QuantileState:
		wireQuantile(c, s)
	case *TopKeysState:
		wireTopKeys(c, s)
	case *UnionState:
		c.Int(&s.Cap)
		c.Varint(&s.N)
		c.Bool(&s.Dropped)
		if n, isNil := c.Len(len(s.Keys), s.Keys == nil, 1); c.Dec && !isNil {
			s.Keys = make([]string, n)
		}
		for i := range s.Keys {
			c.String(&s.Keys[i])
		}
		wireEntries(c, &s.Entries)
	case *CollectState:
		c.Int(&s.Cap)
		c.Varint(&s.N)
		wireEntries(c, &s.Entries)
	default:
		c.Fail(fmt.Errorf("aggregate: no layout for %T", s))
	}
}

// ---------------------------------------------------------------------
// Leaf bodies

func wireSum(c *wirefmt.Codec, s *SumState) {
	c.Bool(&s.Valid)
	c.Varint(&s.N)
	if s.Valid {
		s.V.Wire(c)
	}
}

func wireExtreme(c *wirefmt.Codec, s *ExtremeState) {
	c.Bool(&s.Valid)
	c.Varint(&s.N)
	if s.Valid {
		c.Fixed(s.Best.Node[:])
		s.Best.Value.Wire(c)
	}
}

// hllCell is one sparse HLL register as it crosses the wire.
type hllCell struct {
	idx uint16
	rho uint8
}

// wireDCount carries the sparse registers as an ascending index column
// then a rho column, and the dense registers as one run of bytes.
func wireDCount(c *wirefmt.Codec, s *DCountState) {
	c.Varint(&s.N)
	if n, isNil := c.Len(len(s.Sparse), s.Sparse == nil, 2); !isNil {
		// Encoding lists the map's registers in index order; decoding
		// reads into n empty cells and builds the map from them.
		cells := make([]hllCell, 0, n)
		for idx, rho := range s.Sparse {
			cells = append(cells, hllCell{idx, rho})
		}
		slices.SortFunc(cells, func(a, b hllCell) int { return int(a.idx) - int(b.idx) })
		cells = cells[:n]
		for i := range cells {
			idx := uint64(cells[i].idx)
			if c.Uvarint(&idx); c.Dec && idx >= hllM {
				c.Corrupt("aggregate: HLL index %d", idx)
			}
			cells[i].idx = uint16(idx)
		}
		for i := range cells {
			c.Byte(&cells[i].rho)
		}
		if c.Dec && c.Err() == nil {
			s.Sparse = make(map[uint16]uint8, n)
			for _, e := range cells {
				s.Sparse[e.idx] = e.rho
			}
		}
	}
	if n, isNil := c.Len(len(s.Dense), s.Dense == nil, 1); c.Dec && !isNil {
		if n != hllM {
			c.Corrupt("aggregate: dense HLL length %d", n)
		} else {
			s.Dense = make([]uint8, n)
		}
	}
	c.Fixed(s.Dense)
}

func wireQuantile(c *wirefmt.Codec, s *QuantileState) {
	c.Float(&s.Q)
	c.Varint(&s.N)
	c.Uvarint(&s.Coin)
	if n, isNil := c.Len(len(s.Levels), s.Levels == nil, 1); c.Dec && !isNil {
		s.Levels = make([][]float64, n)
	}
	for i, lvl := range s.Levels {
		if n, isNil := c.Len(len(lvl), lvl == nil, 8); c.Dec && !isNil {
			s.Levels[i] = make([]float64, n)
		}
		for j := range s.Levels[i] {
			c.Float(&s.Levels[i][j])
		}
	}
}

// wireTopKeys carries the counters as an ascending key column then a
// count column.
func wireTopKeys(c *wirefmt.Codec, s *TopKeysState) {
	c.Int(&s.K)
	c.Varint(&s.N)
	n, isNil := c.Len(len(s.Counts), s.Counts == nil, 2)
	if isNil {
		return
	}
	// Encoding lists the map's keys in order; decoding reads into n
	// empty keys and fills a new map.
	keys := make([]string, 0, n)
	for k := range s.Counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if keys = keys[:n]; c.Dec {
		s.Counts = make(map[string]int64, n)
	}
	for i := range keys {
		c.String(&keys[i])
	}
	for _, k := range keys {
		v := s.Counts[k]
		if c.Varint(&v); c.Dec {
			s.Counts[k] = v
		}
	}
}

// wireEntries carries an entry list as two columns: node IDs back to
// back, then values back to back.
func wireEntries(c *wirefmt.Codec, es *[]Entry) {
	if n, isNil := c.Len(len(*es), *es == nil, ids.Bytes+1); c.Dec && !isNil {
		*es = make([]Entry, n)
	}
	for i := range *es {
		c.Fixed((*es)[i].Node[:])
	}
	for i := range *es {
		(*es)[i].Value.Wire(c)
	}
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

// wireGroupedBody carries g's body. Decoding fills g, or a shell from the
// pool when g is nil, and returns it; it returns nil on an error found
// before the shell is taken.
func wireGroupedBody(c *wirefmt.Codec, g *GroupedState, depth int) *GroupedState {
	var (
		spec          Spec
		limit, spills int64
		other         State
		n             int
	)
	if !c.Dec {
		g.settle()
		spec, limit, spills, other, n = g.Spec, int64(g.Cap), g.Spilled, g.Other, len(g.keys)
	}
	WireSpec(c, &spec)
	c.Varint(&limit)
	c.Varint(&spills)
	if c.Dec && c.Err() == nil && len(c.B) > 0 && c.B[0] != wireNilState && c.B[0] != byte(spec.Kind) {
		c.Corrupt("aggregate: grouped %v spill bucket tagged %d", spec.Kind, c.B[0])
	}
	wireState(c, &other, depth+1)
	n, _ = c.Len(n, false, 1)
	if c.Dec {
		switch {
		case spec.Kind == KindInvalid && n > 0:
			c.Corrupt("aggregate: grouped keys without a spec")
		case limit > 0 && int64(n) > limit:
			c.Corrupt("aggregate: %d grouped keys over cap %d", n, limit)
		}
		if c.Err() != nil {
			return nil
		}
		if g == nil {
			g = NewGroupedSized(spec, int(limit), n)
		}
		g.Spec, g.Cap, g.Spilled, g.Other = spec, int(limit), spills, other
		// A pooled shell's key column still holds the strings of its
		// last use; a report that repeats a key keeps the string.
		g.keys = g.keys[:min(n, cap(g.keys))]
		g.keys = append(g.keys, make([]string, n-len(g.keys))...)
		g.col().grow(n)
	}
	for i := range g.keys {
		if c.String(&g.keys[i]); c.Dec && i > 0 && g.keys[i] <= g.keys[i-1] {
			c.Corrupt("aggregate: grouped key %q after %q", g.keys[i], g.keys[i-1])
		}
	}
	vals := g.vals
	switch spec.Kind {
	case KindSum, KindAvg:
		for i := range n {
			c.Bool(&sumOf(vals.at(i)).Valid)
		}
		for i := range n {
			c.Varint(&sumOf(vals.at(i)).N)
		}
		for i := range n {
			if s := sumOf(vals.at(i)); s.Valid {
				s.V.Wire(c)
			}
		}
	case KindCount:
		for i := range n {
			c.Varint(&vals.at(i).(*CountState).N)
		}
	case KindMin, KindMax:
		for i := range n {
			c.Bool(&vals.at(i).(*ExtremeState).Valid)
		}
		for i := range n {
			c.Varint(&vals.at(i).(*ExtremeState).N)
		}
		for i := range n {
			if s := vals.at(i).(*ExtremeState); s.Valid {
				c.Fixed(s.Best.Node[:])
			}
		}
		for i := range n {
			if s := vals.at(i).(*ExtremeState); s.Valid {
				s.Best.Value.Wire(c)
			}
		}
	case KindStd:
		for i := range n {
			c.Varint(&vals.at(i).(*StdState).N)
		}
		for i := range n {
			c.Float(&vals.at(i).(*StdState).Sum)
		}
		for i := range n {
			c.Float(&vals.at(i).(*StdState).SumSq)
		}
	default:
		for i := range n {
			if c.Dec && c.Err() == nil && (len(c.B) == 0 || c.B[0] != byte(spec.Kind)) {
				c.Corrupt("aggregate: grouped %v slot truncated or mistagged", spec.Kind)
			}
			wireState(c, &vals.(*states).s[i], depth+1)
		}
	}
	return g
}

// sumOf returns the SumState behind a SUM or AVG slot.
func sumOf(st State) *SumState {
	if a, ok := st.(*AvgState); ok {
		return &a.Sum
	}
	return st.(*SumState)
}

// GobEncode carries the state through the gob fallback (the tag-0
// message bodies, such as the orphan pull's RouteMsg) as its columnar
// body.
func (g *GroupedState) GobEncode() ([]byte, error) {
	c := wirefmt.Codec{}
	wireGroupedBody(&c, g, 0)
	return c.B, c.Err()
}

// GobDecode is the inverse of GobEncode.
func (g *GroupedState) GobDecode(b []byte) error {
	*g = GroupedState{}
	c := wirefmt.Codec{B: b, Dec: true}
	if wireGroupedBody(&c, g, 0); len(c.B) != 0 {
		c.Corrupt("aggregate: %d bytes after a gob grouped body", len(c.B))
	}
	return c.Err()
}
