// Package pastry implements a Pastry-style structured overlay: prefix
// routing over 128-bit identifiers, leaf sets, a join protocol with
// lazy repair, and the prefix-constrained broadcast trees Moara builds
// its aggregation on.
//
// Two bootstrap modes are supported:
//
//   - Protocol mode: nodes join via the standard Pastry join handshake
//     and maintain liveness with heartbeats (used by smaller integration
//     tests and the TCP deployment).
//   - Oracle mode: a global Oracle fills routing state directly from the
//     membership list (used for 10k+ node simulations, where the paper
//     likewise relies on the FreePastry simulator and explicitly excludes
//     DHT maintenance overhead from its measurements).
package pastry

import (
	"sort"

	"github.com/moara/moara/internal/ids"
)

// RoutingTable is the classic Pastry prefix table: Rows[r][c] holds a
// node sharing r leading digits with the owner and having digit c at
// position r. The zero ID marks an empty slot.
//
// Rows are allocated on first write: an N-node overlay fills only about
// log16(N) of the 32 rows (four at N=10k), so a dense table would be
// mostly zero IDs. A nil row reads as all-empty.
type RoutingTable struct {
	rows [ids.Digits]*[ids.Radix]ids.ID
	// entries caches the non-empty slots (valid when entriesOK); the
	// liveness path scans the table every heartbeat round, far more
	// often than it changes. version counts mutations for downstream
	// caches.
	entries   []ids.ID
	entriesOK bool
	version   int
}

// Version counts table mutations since creation.
func (t *RoutingTable) Version() int { return t.version }

// Get returns the entry at (row, col); the zero ID if empty.
func (t *RoutingTable) Get(row, col int) ids.ID {
	if t.rows[row] == nil {
		return ids.Zero
	}
	return t.rows[row][col]
}

// Set stores an entry.
func (t *RoutingTable) Set(row, col int, id ids.ID) {
	t.row(row)[col] = id
	t.entriesOK = false
	t.version++
}

// row returns row r for writing, allocating it on first use.
func (t *RoutingTable) row(r int) *[ids.Radix]ids.ID {
	if t.rows[r] == nil {
		t.rows[r] = new([ids.Radix]ids.ID)
	}
	return t.rows[r]
}

// Row returns a copy of one table row (all zero if never written).
func (t *RoutingTable) Row(row int) [ids.Radix]ids.ID {
	if t.rows[row] == nil {
		return [ids.Radix]ids.ID{}
	}
	return *t.rows[row]
}

// Install records candidate relative to owner if it fills an empty slot.
// It reports whether the table changed.
func (t *RoutingTable) Install(owner, candidate ids.ID) bool {
	if candidate == owner || candidate.IsZero() {
		return false
	}
	r := ids.CommonPrefixLen(owner, candidate)
	if r >= ids.Digits {
		return false
	}
	c := candidate.Digit(r)
	if t.Get(r, c).IsZero() {
		t.row(r)[c] = candidate
		t.entriesOK = false
		t.version++
		return true
	}
	return false
}

// Remove deletes every slot holding dead. It reports whether anything
// was removed.
func (t *RoutingTable) Remove(owner, dead ids.ID) bool {
	if dead.IsZero() {
		return false
	}
	r := ids.CommonPrefixLen(owner, dead)
	if r >= ids.Digits {
		return false
	}
	c := dead.Digit(r)
	if t.Get(r, c) == dead {
		t.rows[r][c] = ids.Zero
		t.entriesOK = false
		t.version++
		return true
	}
	return false
}

// Entries returns every non-empty entry in row-major order. The result
// is cached between table changes and shared: callers must treat it as
// read-only. Rebuilds allocate a fresh backing array so a slice
// captured before a mutation (e.g. the heartbeat sweep iterating while
// it purges) stays intact.
func (t *RoutingTable) Entries() []ids.ID {
	if t.entriesOK {
		return t.entries
	}
	out := make([]ids.ID, 0, cap(t.entries))
	for _, row := range t.rows {
		if row == nil {
			continue
		}
		for _, id := range row {
			if !id.IsZero() {
				out = append(out, id)
			}
		}
	}
	t.entries = out
	t.entriesOK = true
	return out
}

// LeafSet tracks the owner's closest ring neighbors: up to size entries
// clockwise (successors) and size counter-clockwise (predecessors).
//
// Each side is kept sorted by ring gap from the owner, with the gaps
// cached in a parallel slice: membership tests and inserts are binary
// searches over precomputed gaps instead of re-deriving the 128-bit
// ring arithmetic per comparison — the pre-optimization sort-on-every-
// install was the single hottest path of the churn experiments (every
// gossiped membership sample funnels through Install).
type LeafSet struct {
	owner ids.ID
	size  int
	succ  []ids.ID // ascending ring order starting just after owner
	pred  []ids.ID // descending ring order starting just before owner
	// succGap[i] == ringGap(owner, succ[i]); predGap[i] ==
	// ringGap(pred[i], owner). Maintained by Install/Remove.
	succGap []ids.Gap
	predGap []ids.Gap
	// version counts membership changes; derived caches (system-size
	// estimates) key on it.
	version int
}

// NewLeafSet creates a leaf set keeping size nodes per side.
func NewLeafSet(owner ids.ID, size int) *LeafSet {
	return &LeafSet{owner: owner, size: size}
}

// Version counts membership changes since creation.
func (l *LeafSet) Version() int { return l.version }

// ringGap returns the clockwise distance from a to b on the 2^128 ring.
func ringGap(a, b ids.ID) ids.Gap { return ids.GapCWNative(a, b) }

// Install inserts candidate into the leaf set if it belongs among the
// closest neighbors. It reports whether membership changed.
func (l *LeafSet) Install(candidate ids.ID) bool {
	if candidate == l.owner || candidate.IsZero() || l.Contains(candidate) {
		return false
	}
	inSucc := insertSide(&l.succ, &l.succGap, l.size, candidate, ringGap(l.owner, candidate))
	inPred := insertSide(&l.pred, &l.predGap, l.size, candidate, ringGap(candidate, l.owner))
	if inSucc || inPred {
		l.version++
		return true
	}
	return false
}

// insertSide places candidate into one gap-sorted side, evicting the
// farthest member when the side is full. Ring gaps are unique per
// member, so "not strictly closer than the farthest of a full side" is
// an O(1) rejection and everything else is a binary-search insert.
func insertSide(side *[]ids.ID, gaps *[]ids.Gap, size int, candidate ids.ID, gap ids.Gap) bool {
	if size <= 0 {
		return false // a zero-capacity side keeps nobody
	}
	s, g := *side, *gaps
	if len(s) >= size && !gap.Less(g[len(g)-1]) {
		return false
	}
	i := sort.Search(len(g), func(i int) bool { return gap.Less(g[i]) })
	s = append(s, ids.ID{})
	g = append(g, ids.Gap{})
	copy(s[i+1:], s[i:])
	copy(g[i+1:], g[i:])
	s[i], g[i] = candidate, gap
	if len(s) > size {
		s, g = s[:size], g[:size]
	}
	*side, *gaps = s, g
	return true
}

// Remove deletes a node from both sides; reports whether it was present.
func (l *LeafSet) Remove(dead ids.ID) bool {
	a := removeSide(&l.succ, &l.succGap, dead)
	b := removeSide(&l.pred, &l.predGap, dead)
	if a || b {
		l.version++
		return true
	}
	return false
}

func removeSide(side *[]ids.ID, gaps *[]ids.Gap, id ids.ID) bool {
	s, g := *side, *gaps
	for i, x := range s {
		if x == id {
			copy(s[i:], s[i+1:])
			copy(g[i:], g[i+1:])
			*side, *gaps = s[:len(s)-1], g[:len(g)-1]
			return true
		}
	}
	return false
}

// Contains reports whether id is in the leaf set.
func (l *LeafSet) Contains(id ids.ID) bool {
	for _, x := range l.succ {
		if x == id {
			return true
		}
	}
	for _, x := range l.pred {
		if x == id {
			return true
		}
	}
	return false
}

// Members returns all leaf-set members (both sides, deduplicated).
// Sides are duplicate-free by construction, so deduplication is a
// linear scan of the (small, bounded) successor side per predecessor.
func (l *LeafSet) Members() []ids.ID {
	out := make([]ids.ID, 0, len(l.succ)+len(l.pred))
	out = append(out, l.succ...)
	for _, x := range l.pred {
		if !idsContain(l.succ, x) {
			out = append(out, x)
		}
	}
	return out
}

func idsContain(s []ids.ID, id ids.ID) bool {
	for _, x := range s {
		if x == id {
			return true
		}
	}
	return false
}

// Closest returns the leaf-set member (or the owner) closest to key
// under the ring metric. The ring minimum is unique (CloserToKey breaks
// ties), so scanning both sides directly — duplicates included — finds
// the same member Members() would, without the allocation.
func (l *LeafSet) Closest(key ids.ID) ids.ID {
	best := l.owner
	for _, x := range l.succ {
		if ids.CloserToKey(key, x, best) {
			best = x
		}
	}
	for _, x := range l.pred {
		if ids.CloserToKey(key, x, best) {
			best = x
		}
	}
	return best
}

// Covers reports whether key falls within the span of the leaf set (or
// the set is small enough that the owner sees the whole ring).
func (l *LeafSet) Covers(key ids.ID) bool {
	if len(l.succ) < l.size || len(l.pred) < l.size {
		// Sparse ring: the leaf set spans everything we know.
		return true
	}
	gapKey := ringGap(l.owner, key)
	if !l.succGap[len(l.succGap)-1].Less(gapKey) {
		return true
	}
	gapKeyP := ringGap(key, l.owner)
	return !l.predGap[len(l.predGap)-1].Less(gapKeyP)
}
