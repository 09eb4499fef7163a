package cluster

import (
	"fmt"
	"testing"
	"time"

	"github.com/moara/moara/internal/core"
)

// subscribeAll installs each query from node 0 and records its samples.
func subscribeAll(t *testing.T, c *Cluster, queries ...string) [][]core.Sample {
	t.Helper()
	out := make([][]core.Sample, len(queries))
	for q, text := range queries {
		req, err := core.ParseRequest(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Subscribe(0, req, func(s core.Sample) { out[q] = append(out[q], s) }); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestEpochClockOneTimerPerNode: a node holds one epoch timer however
// many subscription entries it ticks. Mid-period, with no message in
// flight, the event heap of a cluster running four standing queries on
// one tree holds about as many events as with one; a timer per entry
// would add ~3N.
func TestEpochClockOneTimerPerNode(t *testing.T) {
	const n = 200
	pending := func(queries ...string) int {
		c := New(Options{N: n, Seed: 3})
		for i, nd := range c.Nodes {
			nd.Store().SetFloat("mem", float64(i%17))
		}
		subscribeAll(t, c, queries...)
		c.RunFor(10*time.Second + 500*time.Millisecond)
		return c.Net.PendingEvents()
	}
	one := pending("avg(mem) every 1s")
	four := pending("avg(mem) every 1s", "sum(mem) every 1s", "max(mem) every 1s", "min(mem) every 1s")
	t.Logf("pending mid-period: %d with one subscription, %d with four", one, four)
	if four-one >= n/10 {
		t.Fatalf("four subscriptions hold %d more pending events than one, want < %d", four-one, n/10)
	}
}

// sampleRow renders what the mixed-period test compares of a sample:
// its numbering, delivery time, warm-up flag, coverage and answer.
func sampleRow(s core.Sample) string {
	return fmt.Sprintf("epoch=%d root=%d at=%v cold=%v contrib=%d value=%v",
		s.Epoch, s.RootEpoch, s.At, s.ColdStart, s.Contributors, s.Result.Agg.Value)
}

// TestEpochClockMixedPeriods: entries of different periods share a
// node's clock, each on its own grid. A 100 ms and a 150 ms stream run
// side by side for 3 s deliver 30 and 20 samples with consecutive root
// epochs, each sample identical (answer and time) to the run of its
// stream alone.
func TestEpochClockMixedPeriods(t *testing.T) {
	queries := []string{"sum(load) every 100ms", "avg(mem) every 150ms"}
	want := []int{30, 20}
	run := func(queries ...string) [][]core.Sample {
		c := New(Options{N: 64, Seed: 5})
		for i, nd := range c.Nodes {
			nd.Store().SetFloat("load", float64(i%7))
			nd.Store().SetFloat("mem", float64(i%11)/3)
		}
		out := subscribeAll(t, c, queries...)
		c.RunFor(3*time.Second + 50*time.Millisecond)
		return out
	}
	both := run(queries...)
	for q, text := range queries {
		got := both[q]
		if len(got) != want[q] {
			t.Fatalf("%q: %d samples, want %d", text, len(got), want[q])
		}
		for i := 1; i < len(got); i++ {
			if got[i].RootEpoch != got[i-1].RootEpoch+1 {
				t.Fatalf("%q: root epoch %d follows %d", text, got[i].RootEpoch, got[i-1].RootEpoch)
			}
		}
		alone := run(text)[0]
		if len(alone) != len(got) {
			t.Fatalf("%q: %d samples alone, %d beside the other stream", text, len(alone), len(got))
		}
		for i := range got {
			if a, b := sampleRow(alone[i]), sampleRow(got[i]); a != b {
				t.Fatalf("%q sample %d:\n alone:  %s\n beside: %s", text, i, a, b)
			}
		}
	}
}

// TestCloseLeavesNoTimers: Close stops every timer a node holds — the
// epoch clock, the outbox flush, the GC sweep, child, query and probe
// timeouts, renewals — so a closed cluster leaves nothing on the event
// heap. On the TCP agent each of these is a live time.AfterFunc into a
// closed core.
func TestCloseLeavesNoTimers(t *testing.T) {
	c := New(Options{N: 16, Seed: 5})
	for i, nd := range c.Nodes {
		nd.Store().SetFloat("mem", float64(i%7))
	}
	if _, err := c.ExecuteText(3, "avg(mem)"); err != nil {
		t.Fatal(err)
	}
	req, err := core.ParseRequest("sum(mem) every 1s")
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	sid, err := c.Subscribe(0, req, func(core.Sample) { samples++ })
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	if samples == 0 {
		t.Fatal("the subscription delivered no sample")
	}
	if err := c.Unsubscribe(0, sid); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	for _, nd := range c.Nodes {
		nd.Close()
	}
	if p := c.Net.PendingEvents(); p != 0 {
		t.Fatalf("%d events pending after every node closed, want 0", p)
	}
}
