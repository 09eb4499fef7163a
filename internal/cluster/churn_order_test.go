package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/simnet"
)

// TestChurnReproducible: an interior node of a standing-query tree dies
// and comes back while four subscriptions stream, three of them on the
// same tree and one over a composite cover. The purge, the repair
// reconciles and cancels, the re-installs and the recovered node's
// re-armed epoch timers all send; every send draws its latency from its
// sender's stream, so each of those loops must run in a fixed order:
// one seed, one run. Coalescing is off: a batch draws one
// latency for everything bound to one neighbour, which hides most
// differences in send order.
func TestChurnReproducible(t *testing.T) {
	first := runChurnWorkload(t)
	for i := 0; i < 2; i++ {
		if again := runChurnWorkload(t); again != first {
			t.Fatalf("run %d diverged from the first under one seed:\n--- first\n%s\n--- again\n%s", i+2, first, again)
		}
	}
}

// runChurnWorkload streams four standing queries through an interior
// kill and recover, and returns every sample with its virtual times and
// the message counters.
func runChurnWorkload(t *testing.T) string {
	t.Helper()
	const period = 100 * time.Millisecond
	c := New(Options{
		N:       200,
		Seed:    43,
		Latency: simnet.LAN(simnet.LANConfig{}),
		Node: core.Config{
			SubTTL:           8 * period,
			SubRenewInterval: 2 * period,
			CoalesceWindow:   core.CoalesceOff,
		},
		Overlay: pastry.Config{HeartbeatEvery: period / 2},
	})
	for i, n := range c.Nodes {
		n.Store().SetInt("v", int64(i))
		n.Store().SetFloat("load", float64(i%23)*0.7)
		n.Store().SetBool("g1", i%3 == 0)
		n.Store().SetBool("g2", i%5 == 0)
	}
	var out strings.Builder
	for k, q := range []string{
		"sum(v) where g1 = true",
		"avg(load) where g1 = true",
		"p90(load) where g1 = true",
		"count(*) where g1 = true or g2 = true",
	} {
		req, err := core.ParseRequest(q + " every 100ms")
		if err != nil {
			t.Fatal(err)
		}
		from := 10 + 25*k
		if _, err := c.Subscribe(from, req, func(s core.Sample) {
			fmt.Fprintf(&out, "q%d e%d root=%d at=%v lag=%v cold=%v n=%d exp=%.3f %v\n",
				k, s.Epoch, s.RootEpoch, s.At, s.Lag, s.ColdStart, s.Contributors, s.Expected, s.Result.Agg.Value)
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.RunFor(8 * period)
	victim := -1
	for i := 1; i < len(c.Nodes) && victim < 0; i++ {
		for _, si := range c.Nodes[i].Subs() {
			if si.Group == "g1 = true" && !si.Root && si.Targets > 1 {
				victim = i
			}
		}
	}
	if victim < 0 {
		t.Fatal("no interior node on the g1 tree")
	}
	c.Kill(victim)
	c.RunFor(5 * period)
	c.Recover(victim)
	c.RunFor(8 * period)
	fmt.Fprintf(&out, "victim %d\n%s", victim, counterDigest(c.Net.Counter()))
	return out.String()
}
