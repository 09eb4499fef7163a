package core

import (
	"testing"
	"time"

	"github.com/moara/moara/internal/value"
)

// TestEpochClockLifecycle follows one node's epoch clock through the
// ends of its entries' lives: a lease that expires mid-walk leaves the
// entries after it ticking exactly once, the last entry to drop leaves
// no epoch timer behind, and neither does Close. A fired timer is a
// walk, so the walks are counted, not inferred.
func TestEpochClockLifecycle(t *testing.T) {
	net, nodes := miniCluster(t, 1, Config{SubTTL: time.Hour, SubRenewInterval: 30 * time.Minute})
	n := nodes[0]
	n.Store().Set("v", value.Int(3))
	walks := 0
	walk := n.clockFn
	n.clockFn = func() { walks++; walk() }

	var sids []QueryID
	for _, q := range []string{"count(*)", "sum(v)", "max(v)"} {
		sids = append(sids, mustSubscribe(t, n, q+" every 100ms", func(Sample) {}))
	}
	net.RunFor(time.Second)
	if len(n.ticking) != 3 || !n.clockArmed {
		t.Fatalf("%d entries on the clock (armed=%v), want 3", len(n.ticking), n.clockArmed)
	}
	if walks != 10 {
		t.Fatalf("%d walks in ten periods, want 10: one timer event per epoch", walks)
	}

	// The middle entry's lease lapses; the next walk drops it and still
	// ticks the one after it.
	first, mid, last := n.ticking[0], n.ticking[1], n.ticking[2]
	mid.lastRenew = net.Now() - 2*time.Hour
	e0, e2 := first.epoch, last.epoch
	net.RunFor(100 * time.Millisecond)
	if walks != 11 {
		t.Fatalf("%d walks, want 11", walks)
	}
	if !mid.dead || first.epoch != e0+1 || last.epoch != e2+1 {
		t.Fatalf("after a mid-walk expiry: dead=%v, epochs %d→%d and %d→%d, want each +1",
			mid.dead, e0, first.epoch, e2, last.epoch)
	}
	if len(n.ticking) != 2 || n.ticking[0] != first || n.ticking[1] != last {
		t.Fatal("the walk must unlink the expired entry and keep the others in order")
	}

	// Cancelling every stream drops the last entry: no epoch timer stays.
	for _, sid := range sids {
		if n.fe.subs[sid] != nil {
			if err := n.Unsubscribe(sid); err != nil {
				t.Fatal(err)
			}
		}
	}
	net.RunFor(10 * time.Millisecond)
	if n.nsubs != 0 || n.clockArmed || len(n.ticking) != 0 {
		t.Fatalf("after the last drop: %d subs, %d on the clock, armed=%v", n.nsubs, len(n.ticking), n.clockArmed)
	}
	before := walks
	net.RunFor(time.Second)
	if walks != before {
		t.Fatalf("%d walks after the last entry dropped, want none", walks-before)
	}

	// A new entry restarts the clock; Close stops it.
	mustSubscribe(t, n, "sum(v) every 100ms", func(Sample) {})
	net.RunFor(time.Second)
	if walks == before {
		t.Fatal("a new entry must restart the clock")
	}
	n.Close()
	before = walks
	net.RunFor(time.Second)
	if walks != before {
		t.Fatalf("%d walks after Close, want none", walks-before)
	}
}
