package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
)

// A subtree state is built once and then referenced by its builder, by
// every report in flight and by the parent's slot (see
// aggregate.Recycle). These tests drive the paths on which a reference
// is dropped while another one lives — a stale sweep, a re-parenting, a
// recovery, an unsubscribe — and check what the streams deliver against
// the stores: a state that went back to the pool while still referenced
// is handed to the next rebuild somewhere else, and its old holders then
// report that node's values as their own.

const ownPeriod = 250 * time.Millisecond

// ownHarness runs three standing queries whose samples can be checked
// without knowing which nodes a tree reached this epoch: node i holds
// v = 1000·i + version, so enum(v) names its contributors and shows
// each one's value, and count(*) must agree with Contributors.
type ownHarness struct {
	t     *testing.T
	c     *Cluster
	rng   *rand.Rand
	index map[ids.ID]int
	ver   []int
	sids  [3]core.QueryID
	last  [3]core.Sample
	// dups counts enum samples that listed a node twice; legitimate
	// only while a repair double-carries a subtree (see TestChurnSoak).
	dups int
}

var ownQueries = [3]string{"enum(v)", "count(*) group by slice", "avg(v) group by slice"}

func newOwnHarness(t *testing.T, opts Options) *ownHarness {
	h := &ownHarness{t: t, c: New(opts), rng: rand.New(rand.NewSource(opts.Seed)), index: make(map[ids.ID]int)}
	h.ver = make([]int, len(h.c.Nodes))
	for i, nd := range h.c.Nodes {
		h.index[h.c.IDs[i]] = i
		nd.Store().SetFloat("v", float64(1000*i))
		nd.Store().SetString("slice", soakSlice(i))
	}
	for q := range ownQueries {
		h.subscribe(q)
	}
	h.c.RunFor(16 * ownPeriod)
	h.settle("warm-up")
	return h
}

func (h *ownHarness) subscribe(q int) {
	req, err := core.ParseRequest(fmt.Sprintf("%s every %v", ownQueries[q], ownPeriod))
	if err != nil {
		h.t.Fatal(err)
	}
	h.sids[q], err = h.c.Subscribe(0, req, func(s core.Sample) { h.observe(q, s) })
	if err != nil {
		h.t.Fatal(err)
	}
}

// observe checks what must hold for every sample, cold or warm, under
// any churn.
func (h *ownHarness) observe(q int, s core.Sample) {
	h.last[q] = s
	if s.Contributors > int64(len(h.c.Nodes)) {
		h.t.Errorf("%s epoch %d: %d contributors of %d nodes", ownQueries[q], s.Epoch, s.Contributors, len(h.c.Nodes))
	}
	switch q {
	case 0:
		if int64(len(s.Result.Agg.Entries)) != s.Contributors {
			h.t.Errorf("enum epoch %d: %d entries, %d contributors", s.Epoch, len(s.Result.Agg.Entries), s.Contributors)
		}
		seen := make(map[int]bool, len(s.Result.Agg.Entries))
		for _, e := range s.Result.Agg.Entries {
			i, known := h.index[e.Node]
			f, _ := e.Value.AsFloat()
			if !known || int(f)/1000 != i || int(f)%1000 > h.ver[i] {
				h.t.Errorf("enum epoch %d: node %s (index %d) reported with value %v", s.Epoch, e.Node.Short(), i, f)
			}
			if seen[i] {
				h.dups++
			}
			seen[i] = true
		}
	case 1:
		total, _ := s.Result.Agg.Value.AsInt()
		var sum int64
		for _, g := range s.Result.Groups {
			v, _ := g.Value.AsInt()
			sum += v
		}
		if total != s.Contributors || sum != total {
			h.t.Errorf("count epoch %d: total %d, group sum %d, contributors %d", s.Epoch, total, sum, s.Contributors)
		}
	}
}

// step rewrites v at a few live nodes (never at keep) and runs one
// epoch.
func (h *ownHarness) step(epochs int, keep int) {
	for e := 0; e < epochs; e++ {
		for k := 0; k < 4; k++ {
			i := 1 + h.rng.Intn(len(h.c.Nodes)-1)
			if i == keep || h.c.Down(i) || h.ver[i] == 999 {
				continue
			}
			h.ver[i]++
			h.c.Nodes[i].Store().SetFloat("v", float64(1000*i+h.ver[i]))
		}
		h.c.RunFor(ownPeriod)
	}
}

// settle lets the streams converge with nothing written and requires
// the exact answer over the live nodes from every live subscription.
func (h *ownHarness) settle(when string) {
	h.t.Helper()
	h.c.RunFor(12 * ownPeriod)
	dups := h.dups
	h.c.RunFor(4 * ownPeriod)
	if h.dups != dups {
		h.t.Errorf("%s: enum still lists a node twice after settling", when)
	}
	live := h.c.LiveIndices()
	counts, sums := make(map[string]int64), make(map[string]float64)
	for _, i := range live {
		counts[soakSlice(i)]++
		sums[soakSlice(i)] += float64(1000*i + h.ver[i])
	}
	for q, s := range h.last {
		if h.sids[q] == (core.QueryID{}) {
			continue
		}
		if s.ColdStart || s.Contributors != int64(len(live)) {
			h.t.Fatalf("%s: %s cold=%v contributors=%d, want warm and %d", when, ownQueries[q], s.ColdStart, s.Contributors, len(live))
		}
		switch q {
		case 0:
			for _, e := range s.Result.Agg.Entries {
				i := h.index[e.Node]
				if f, _ := e.Value.AsFloat(); f != float64(1000*i+h.ver[i]) || h.c.Down(i) {
					h.t.Errorf("%s: enum has node %d at %v, store holds %d (down=%v)", when, i, f, 1000*i+h.ver[i], h.c.Down(i))
				}
			}
		case 1, 2:
			if len(s.Result.Groups) != len(counts) {
				h.t.Errorf("%s: %s has %d groups, want %d", when, ownQueries[q], len(s.Result.Groups), len(counts))
			}
			for k, g := range s.Result.Groups {
				if q == 1 {
					if v, _ := g.Value.AsInt(); v != counts[k] {
						h.t.Errorf("%s: count of %s = %d, want %d", when, k, v, counts[k])
					}
				} else if v, _ := g.Value.AsFloat(); math.Abs(v-sums[k]/float64(counts[k])) > 1e-6 {
					h.t.Errorf("%s: avg(v) of %s = %v, want %v", when, k, v, sums[k]/float64(counts[k]))
				}
			}
		}
	}
}

// leafOfEveryTree finds the highest-indexed node accepted by ok that
// holds an entry on each of the given number of trees and is a leaf of
// all of them: never the root, no installed children.
func leafOfEveryTree(t *testing.T, c *Cluster, trees int, ok func(i int) bool) int {
	t.Helper()
	for i := len(c.Nodes) - 1; i > 0; i-- {
		infos := c.Nodes[i].Subs()
		leaf := ok(i) && len(infos) == trees
		for _, si := range infos {
			leaf = leaf && !si.Root && si.Targets == 0
		}
		if leaf {
			return i
		}
	}
	t.Fatal("no node is a leaf of every tree")
	return -1
}

// busiestInterior finds the non-root node with the most installed
// children (TestStandingRepairAfterInteriorKill's victim).
func (h *ownHarness) busiestInterior() int {
	victim, best := -1, 0
	for i := 1; i < len(h.c.Nodes); i++ {
		for _, si := range h.c.Nodes[i].Subs() {
			if !si.Root && si.Targets > best {
				victim, best = i, si.Targets
			}
		}
	}
	if victim < 0 {
		h.t.Fatal("no subscribed interior node found")
	}
	return victim
}

func TestStandingStateOwnership(t *testing.T) {
	engines := []struct {
		name            string
		shards, workers int
	}{{"classic", 0, 0}, {"sharded", 2, 2}}
	for _, eng := range engines {
		// quiet has no failure detector and no renewal inside the run: a
		// silent child is only stale-swept, and nothing but an input
		// change makes a node rebuild. churny repairs like the soak.
		quiet := Options{N: 100, Seed: 83, Shards: eng.shards, ShardWorkers: eng.workers,
			Node: core.Config{SubTTL: 3 * time.Hour, SubRenewInterval: time.Hour}}
		churny := churnTestOptions(120, 73, ownPeriod)
		churny.Shards, churny.ShardWorkers = eng.shards, eng.workers
		// Renewals re-install every entry, and an install rebuilds: keep
		// them rare, so that a state outlives the repair that shares it.
		churny.Node.SubRenewInterval, churny.Node.SubTTL = 10*ownPeriod, 40*ownPeriod

		t.Run(eng.name+"/stale-swept child resumes unchanged", func(t *testing.T) {
			h := newOwnHarness(t, quiet)
			x := leafOfEveryTree(t, h.c, len(ownQueries), func(int) bool { return true })
			// Silent for three periods: the parent sweeps the slot (its
			// hold on the state goes back) while x keeps the state, and
			// re-sends that very state when it is back.
			h.c.Net.SetDown(h.c.IDs[x], true)
			h.step(4, x)
			h.c.Net.SetDown(h.c.IDs[x], false)
			h.c.Nodes[x].Recover(h.c.IDs[0])
			h.step(6, x)
			h.settle("after the child resumed")
			for _, si := range h.c.Nodes[x].Subs() {
				if si.Rebuilds != 1 {
					t.Errorf("node %d %s: %d rebuilds, want the one at install (it must re-send, not rebuild)", x, si.Group, si.Rebuilds)
				}
			}
		})
		t.Run(eng.name+"/interior killed, subtree re-parents", func(t *testing.T) {
			h := newOwnHarness(t, churny)
			h.c.Kill(h.busiestInterior())
			h.step(24, -1)
			h.settle("after the repair")
		})
		t.Run(eng.name+"/node recovers with its subscription state", func(t *testing.T) {
			h := newOwnHarness(t, churny)
			x := h.busiestInterior()
			h.c.Kill(x)
			h.step(5, -1) // purged by heartbeats, but inside SubTTL
			if len(h.c.Nodes[x].Subs()) == 0 {
				t.Fatal("the victim lost its subscription state while down")
			}
			h.c.Recover(x)
			h.step(12, -1)
			h.settle("after the recovery")
		})
		t.Run(eng.name+"/unsubscribe mid-stream", func(t *testing.T) {
			h := newOwnHarness(t, quiet)
			h.step(4, -1)
			if err := h.c.Unsubscribe(0, h.sids[1]); err != nil {
				t.Fatal(err)
			}
			h.sids[1] = core.QueryID{}
			h.step(8, -1)
			h.settle("with one stream cancelled")
			h.subscribe(1)
			h.step(16, -1)
			h.settle("after subscribing again")
		})
	}
}
