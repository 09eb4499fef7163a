package pastry

import (
	"sort"

	"github.com/moara/moara/internal/ids"
)

// Oracle fills routing state for a whole membership list at once. It is
// the large-scale-simulation counterpart of the join protocol: the paper
// runs atop the FreePastry simulator and excludes DHT maintenance from
// its measurements, so experiments build overlay state directly and then
// measure only Moara's own traffic.
type Oracle struct {
	sorted []ids.ID // ascending
	index  map[ids.ID]int
}

// NewOracle creates an oracle over the given membership.
func NewOracle(members []ids.ID) *Oracle {
	o := &Oracle{}
	o.Reset(members)
	return o
}

// Reset replaces the membership list.
func (o *Oracle) Reset(members []ids.ID) {
	o.sorted = make([]ids.ID, len(members))
	copy(o.sorted, members)
	sort.Slice(o.sorted, func(i, j int) bool { return ids.Less(o.sorted[i], o.sorted[j]) })
	o.index = make(map[ids.ID]int, len(o.sorted))
	for i, id := range o.sorted {
		o.index[id] = i
	}
}

// Members returns the sorted membership.
func (o *Oracle) Members() []ids.ID { return o.sorted }

// Owner returns the live node closest to key on the ring (the root of
// key's DHT tree).
func (o *Oracle) Owner(key ids.ID) ids.ID {
	n := len(o.sorted)
	if n == 0 {
		return ids.Zero
	}
	// First node >= key, then compare with its ring predecessor.
	i := sort.Search(n, func(i int) bool { return ids.Cmp(o.sorted[i], key) >= 0 })
	cand1 := o.sorted[i%n]
	cand2 := o.sorted[(i-1+n)%n]
	if ids.CloserToKey(key, cand1, cand2) {
		return cand1
	}
	return cand2
}

// Fill populates one node's routing table and leaf set from global
// knowledge. Representative selection for each (row, col) slot is
// deterministic but owner-dependent, spreading tree fan-in across the
// candidate set the way proximity-aware Pastry does.
func (o *Oracle) Fill(n *Node) {
	self := n.Self()
	idx, ok := o.index[self]
	if !ok {
		panic("pastry: oracle fill for unknown node " + self.Short())
	}
	total := len(o.sorted)

	// Leaf set from ring order.
	for d := 1; d <= n.cfg.LeafSetSize && d < total; d++ {
		n.leaf.Install(o.sorted[(idx+d)%total])
		n.leaf.Install(o.sorted[(idx-d+total)%total])
	}

	// Routing table rows until this node's prefix is unique.
	lo, hi := 0, total // candidate range sharing the current prefix
	for r := 0; r < ids.Digits; r++ {
		if hi-lo <= 1 {
			break
		}
		selfDigit := self.Digit(r)
		for c := 0; c < ids.Radix; c++ {
			if c == selfDigit {
				continue
			}
			clo, chi := o.narrow(lo, hi, self, r, c)
			if chi <= clo {
				continue
			}
			pick := clo + int(mix(self.Seed(), uint64(r*ids.Radix+c))%uint64(chi-clo))
			n.rt.Set(r, c, o.sorted[pick])
		}
		lo, hi = o.narrow(lo, hi, self, r, selfDigit)
	}
	n.joined = true
	// Oracle bootstrap skips the join handshake, so start the liveness
	// loop here; a no-op unless HeartbeatEvery is configured.
	n.startHeartbeats()
}

// narrow restricts [lo,hi) to IDs whose digit at position r equals c,
// assuming all IDs in the range already share digits [0,r) with ref.
func (o *Oracle) narrow(lo, hi int, ref ids.ID, r, c int) (int, int) {
	low := prefixBound(ref, r, c, false)
	high := prefixBound(ref, r, c, true)
	nlo := lo + sort.Search(hi-lo, func(i int) bool { return ids.Cmp(o.sorted[lo+i], low) >= 0 })
	nhi := lo + sort.Search(hi-lo, func(i int) bool { return ids.Cmp(o.sorted[lo+i], high) > 0 })
	return nlo, nhi
}

// prefixBound returns the smallest (hi=false) or largest (hi=true) ID
// sharing ref's digits [0,r) and having digit c at position r.
func prefixBound(ref ids.ID, r, c int, hi bool) ids.ID {
	var out ids.ID
	if hi {
		for i := range out {
			out[i] = 0xff
		}
	}
	for d := 0; d < r; d++ {
		out = out.WithDigit(d, ref.Digit(d))
	}
	return out.WithDigit(r, c)
}

// mix differs from simnet's mix; merging them would re-pick every oracle routing slot.
func mix(a, b uint64) uint64 {
	x := a ^ (b+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0x94d049bb133111eb
	x ^= x >> 27
	return x ^ (x >> 31)
}
