package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/predicate"
	"github.com/moara/moara/internal/simnet"
)

// TestPurgeReproducible: a heartbeat purge that lands while one-shots
// are in flight re-sends statuses and installs (one per tree the node
// holds) and finishes the aggregations that waited on the corpse. Every
// send draws its latency from its sender's stream, so one node's sends
// must go out in a fixed order: one seed, one run.
func TestPurgeReproducible(t *testing.T) {
	first := runPurgeWorkload(t)
	for i := 0; i < 2; i++ {
		if again := runPurgeWorkload(t); again != first {
			t.Fatalf("run %d diverged from the first under one seed:\n--- first\n%s\n--- again\n%s", i+2, first, again)
		}
	}
}

// runPurgeWorkload kills an interior node of a warm tree in the middle
// of a stream of one-shots over three groups and one composite, and
// returns every answer, its virtual latency, and the message counters.
func runPurgeWorkload(t *testing.T) string {
	t.Helper()
	c := New(Options{
		N:       200,
		Seed:    41,
		Latency: simnet.LAN(simnet.LANConfig{}),
		Overlay: pastry.Config{HeartbeatEvery: 100 * time.Millisecond},
	})
	for i, n := range c.Nodes {
		n.Store().SetInt("v", int64(i))
		n.Store().SetBool("g1", i%3 == 0)
		n.Store().SetBool("g2", i%5 == 0)
		n.Store().SetBool("g3", i%7 == 0)
	}
	req := func(kind aggregate.Kind, attr, pred string) core.Request {
		return core.Request{Attr: attr, Spec: aggregate.Spec{Kind: kind}, Pred: predicate.MustParse(pred)}
	}
	reqs := []core.Request{
		req(aggregate.KindCount, "*", "g1 = true"),
		req(aggregate.KindSum, "v", "g2 = true"),
		req(aggregate.KindMax, "v", "g3 = true"),
		req(aggregate.KindCount, "*", "g1 = true or g2 = true"),
	}
	if err := c.Warm(reqs...); err != nil {
		t.Fatal(err)
	}
	victim := -1
	for i := 1; i < len(c.Nodes) && victim < 0; i++ {
		for _, ti := range c.Nodes[i].Trees() {
			if ti.Group == "g1 = true" && ti.HasParent && ti.QSetSize > 1 {
				victim = i
			}
		}
	}
	if victim < 0 {
		t.Fatal("no interior node on the g1 tree")
	}
	var out strings.Builder
	issued, done := 0, 0
	for round := 0; round < 12; round++ {
		for k, r := range reqs {
			from := (round*len(reqs) + k) % len(c.Nodes)
			if from == victim {
				from++
			}
			issued++
			tag := fmt.Sprintf("r%d q%d from %d", round, k, from)
			c.Nodes[from].Execute(r, func(res core.Result, err error) {
				done++
				fmt.Fprintf(&out, "%s: %v n=%d err=%v in %v\n",
					tag, res.Agg.Value, res.Contributors, err, res.Stats.TotalTime)
			})
		}
		if round == 1 {
			c.Kill(victim)
		}
		c.RunFor(100 * time.Millisecond)
	}
	c.Net.RunWhile(func() bool { return done < issued })
	if done != issued {
		t.Fatalf("%d of %d queries completed", done, issued)
	}
	fmt.Fprintf(&out, "victim %d\n%s", victim, counterDigest(c.Net.Counter()))
	return out.String()
}
