package cluster

// Counter-accounting properties of simnet at the cluster level: the
// full message accounting (Total/Wire, per-kind, per-node sent and
// received) must not depend on how nodes are partitioned across shards,
// and the per-node ledgers must always sum to the totals. The window
// schedule is derived from global event times and the horizon, never
// from the partition, so any workload — including the rng-consuming LAN
// latency model and cond-driven pumping via Execute/RunWhile — must
// account identically at shards=1,2,3,4.
// experiments/shard_equiv_test.go locks full byte-equivalence of
// transcripts.

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/simnet"
)

// counterDigest flattens every ledger a Counter exposes into one
// comparable string. fmt sorts map keys, so per-kind maps print
// deterministically; per-node maps are sorted explicitly by id.
func counterDigest(c *simnet.Counter) string {
	perNode := func(m map[ids.ID]int64) string {
		keys := make([]ids.ID, 0, len(m))
		for id := range m {
			keys = append(keys, id)
		}
		sort.Slice(keys, func(i, j int) bool { return ids.Less(keys[i], keys[j]) })
		var b []byte
		for _, id := range keys {
			b = fmt.Appendf(b, "%s=%d ", id.Short(), m[id])
		}
		return string(b)
	}
	return fmt.Sprintf("total=%d wire=%d\nbykind=%v\nwirebykind=%v\nbynode=%s\nrecvbynode=%s",
		c.Total, c.Wire, c.ByKind(), c.WireByKind(),
		perNode(c.ByNode()), perNode(c.RecvByNode()))
}

// checkLedgerSums asserts the internal consistency property that holds
// for every counter regardless of scheduler: per-node sent counts sum
// to Total, and per-kind counts do too (logical and wire).
func checkLedgerSums(t *testing.T, label string, c *simnet.Counter) {
	t.Helper()
	var byNode, byKind, wireByKind int64
	for _, n := range c.ByNode() {
		byNode += n
	}
	for _, n := range c.ByKind() {
		byKind += n
	}
	for _, n := range c.WireByKind() {
		wireByKind += n
	}
	if byNode != c.Total {
		t.Errorf("%s: sum(ByNode) = %d, Total = %d", label, byNode, c.Total)
	}
	if byKind != c.Total {
		t.Errorf("%s: sum(ByKind) = %d, Total = %d", label, byKind, c.Total)
	}
	if wireByKind != c.Wire {
		t.Errorf("%s: sum(WireByKind) = %d, Wire = %d", label, wireByKind, c.Wire)
	}
}

// runShardCounterWorkload drives a seeded mixed workload — one-shot
// queries through the cond-driven Execute path, a standing query, and
// a kill — and returns the counter digest. The LAN model draws from
// the per-sender rng streams, exercising the shard-count independence
// of latency generation.
func runShardCounterWorkload(t *testing.T, shards int) (string, *simnet.Counter) {
	t.Helper()
	c := New(Options{
		N:       72,
		Seed:    29,
		Latency: simnet.LAN(simnet.LANConfig{}),
		Shards:  shards,
		Overlay: pastry.Config{HeartbeatEvery: 150 * time.Millisecond, HeartbeatMiss: 3},
	})
	for i, n := range c.Nodes {
		n.Store().SetInt("a", int64(i%13))
		if i%3 == 0 {
			n.Store().SetBool("service_x", true)
		}
	}
	if _, err := c.Execute(0, sumReq("")); err != nil {
		t.Fatalf("shards=%d execute: %v", shards, err)
	}
	if _, err := c.Execute(5, sumReq("service_x = true")); err != nil {
		t.Fatalf("shards=%d filtered execute: %v", shards, err)
	}
	req := sumReq("")
	req.Period = 120 * time.Millisecond
	sid, err := c.Subscribe(1, req, func(core.Sample) {})
	if err != nil {
		t.Fatalf("shards=%d subscribe: %v", shards, err)
	}
	c.RunFor(700 * time.Millisecond)
	c.Kill(40)
	c.RunFor(900 * time.Millisecond)
	c.Unsubscribe(1, sid)
	c.RunFor(300 * time.Millisecond)
	ctr := c.Net.Counter()
	return counterDigest(ctr), ctr
}

// TestShardCountInvariantCounters proves the accounting is a pure
// function of the workload, not of the partition: shards=1,2,3,4 agree
// ledger-for-ledger on a workload that includes rng-drawn latencies
// and cond-driven pumping.
func TestShardCountInvariantCounters(t *testing.T) {
	ref, refCtr := runShardCounterWorkload(t, 1)
	checkLedgerSums(t, "shards=1", refCtr)
	if refCtr.Total == 0 || refCtr.Wire == 0 {
		t.Fatal("workload produced no traffic")
	}
	for _, shards := range []int{2, 3, 4} {
		got, ctr := runShardCounterWorkload(t, shards)
		checkLedgerSums(t, fmt.Sprintf("shards=%d", shards), ctr)
		if got != ref {
			t.Errorf("shards=%d accounting diverged from shards=1:\n got: %s\nwant: %s",
				shards, got, ref)
		}
	}
}
