package experiments

// Cross-shard equivalence lock for simnet's sharded scheduler: the
// same seeded full-stack scenario — standing queries, one-shot
// queries, churn, repair — must produce byte-identical transcripts
// (every Sample, every Result, virtual-time latencies, and the full
// message accounting) at shards=1, 2 and 4, serial and parallel workers
// alike. This is the cluster-level counterpart of simnet's
// TestShardedEchoEquivalence. The scenario draws a latency and a
// processing jitter per message, queues processing on CPUs that ten
// instances share (so co-located nodes sit on different shards), hashes
// every send a Tap sees into the transcript, and pumps one-shots
// through Cluster.Execute, which stops at a RunWhile condition.

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"testing"
	"time"

	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/simnet"
	"github.com/moara/moara/internal/value"
)

// shardEquivOptions is the scenario's cluster configuration at a given
// shard/worker count.
func shardEquivOptions(shards, workers int) cluster.Options {
	period := 200 * time.Millisecond
	return cluster.Options{
		N:                   96,
		Seed:                17,
		Latency:             simnet.LAN(simnet.LANConfig{}),
		ProcDelay:           300 * time.Microsecond,
		ProcJitter:          200 * time.Microsecond,
		SerializeProc:       true,
		InstancesPerMachine: 10,
		Shards:              shards,
		ShardWorkers:        workers,
		Node: core.Config{
			ChildTimeout:     2 * period,
			QueryTimeout:     10 * period,
			SubTTL:           8 * period,
			SubRenewInterval: 2 * period,
		},
		Overlay: pastry.Config{
			HeartbeatEvery: period / 2,
			HeartbeatMiss:  2,
		},
	}
}

// runOneShot runs a one-shot query from node 0 to completion.
func runOneShot(tr *transcript, c *cluster.Cluster, q string) {
	res, err := c.ExecuteText(0, q)
	if err != nil {
		tr.logf("query %q error: %v", q, err)
		return
	}
	tr.logResult("query "+q, res)
}

// scenarioSharded exercises the full stack through a fixed schedule:
// one-shot queries, two standing queries with distinct periods, a
// kill/join/recover script under heartbeats, and a final accounting
// snapshot with the hash of every tapped send.
func scenarioSharded(tr *transcript, shards, workers int) {
	opts := shardEquivOptions(shards, workers)
	taps, tapHash := 0, fnv.New64a()
	opts.Tap = func(from, to ids.ID, m any, lat time.Duration) {
		taps++
		tapHash.Write(from[:])
		tapHash.Write(to[:])
		io.WriteString(tapHash, simnet.KindOf(m))
		binary.Write(tapHash, binary.LittleEndian, int64(lat))
	}
	c := cluster.New(opts)
	seedEquivNodes(c)
	period := 200 * time.Millisecond

	runOneShot(tr, c, "avg(mem)")
	runOneShot(tr, c, "sum(mem) where apache = true and slice = alpha")
	runOneShot(tr, c, "avg(load) group by slice")
	runOneShot(tr, c, "top3(mem) where slice = beta")

	req, err := core.ParseRequest("avg(mem) group by slice")
	if err != nil {
		tr.logf("parse error: %v", err)
		return
	}
	req.Period = period
	sid, err := c.Subscribe(0, req, func(s core.Sample) { tr.logSample("standing", s) })
	if err != nil {
		tr.logf("subscribe error: %v", err)
		return
	}
	sreq, err := core.ParseRequest("count(*) where apache = true")
	if err != nil {
		tr.logf("parse error: %v", err)
		return
	}
	sreq.Period = 170 * time.Millisecond
	sid2, err := c.Subscribe(0, sreq, func(s core.Sample) { tr.logSample("filtered", s) })
	if err != nil {
		tr.logf("subscribe error: %v", err)
		return
	}
	c.RunFor(6 * period)

	c.Kill(23)
	c.RunFor(3 * period)
	c.Kill(57)
	c.RunFor(4 * period)
	ni := c.AddNode()
	c.Nodes[ni].Store().Set("mem", value.Int(55))
	c.RunFor(4 * period)
	c.Recover(23)
	c.RunFor(3 * period)

	runOneShot(tr, c, "sum(mem)")

	c.Unsubscribe(0, sid)
	c.Unsubscribe(0, sid2)
	c.RunFor(2 * period)

	tr.logf("virtual now=%v live=%d", c.Net.Now(), c.LiveCount())
	tr.logf("taps=%d hash=%016x", taps, tapHash.Sum64())
	tr.logCounters(c)
}

// TestCrossShardEquivalence proves shards=2 and shards=4 (serial and
// parallel workers) byte-identical to shards=1 on the scenario above.
func TestCrossShardEquivalence(t *testing.T) {
	var ref transcript
	scenarioSharded(&ref, 1, 1)
	want := ref.b.String()
	if len(want) == 0 {
		t.Fatal("empty reference transcript")
	}
	configs := []struct {
		shards, workers int
	}{
		{1, 4},
		{2, 1},
		{2, 4},
		{4, 1},
		{4, 4},
	}
	for _, cfg := range configs {
		var tr transcript
		scenarioSharded(&tr, cfg.shards, cfg.workers)
		if got := tr.b.String(); got != want {
			t.Errorf("shards=%d workers=%d diverged from shards=1:\n%s",
				cfg.shards, cfg.workers, firstDiff(want, got))
		}
	}
}
