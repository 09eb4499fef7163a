package pastry

import (
	"fmt"
	"testing"
	"time"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/simnet"
)

// protoNode couples an overlay node with its simulated environment.
type protoNode struct {
	n *Node
}

func (p *protoNode) Handle(from ids.ID, m any) { p.n.Handle(from, m) }

// buildProtocolCluster joins n nodes through the real handshake with
// heartbeats enabled.
func buildProtocolCluster(t *testing.T, net *simnet.Network, n int, hb time.Duration) ([]*Node, []ids.ID) {
	t.Helper()
	nodes := make([]*Node, n)
	members := make([]ids.ID, n)
	for i := 0; i < n; i++ {
		members[i] = ids.FromKey(fmt.Sprintf("proto-%d", i))
		env := net.AddNode(members[i])
		nodes[i] = New(env, Config{HeartbeatEvery: hb})
		env.BindHandler(&protoNode{nodes[i]})
	}
	nodes[0].joined = true // the first member of a new overlay
	nodes[0].startHeartbeats()
	for i := 1; i < n; i++ {
		nodes[i].Join(members[0])
		net.RunFor(100 * time.Millisecond)
	}
	net.RunFor(2 * time.Second)
	return nodes, members
}

func TestProtocolJoinAllJoined(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 3, Latency: simnet.Fixed(time.Millisecond)})
	nodes, _ := buildProtocolCluster(t, net, 30, 0)
	for i, n := range nodes {
		if !n.joined {
			t.Fatalf("node %d not joined", i)
		}
		if len(n.leaf.Members()) == 0 {
			t.Fatalf("node %d has empty leaf set", i)
		}
	}
}

func TestProtocolRoutingConverges(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 5, Latency: simnet.Fixed(time.Millisecond)})
	nodes, members := buildProtocolCluster(t, net, 40, 0)
	byID := make(map[ids.ID]*Node, len(nodes))
	for i, n := range nodes {
		byID[members[i]] = n
	}
	// Route from every node to several keys; all must converge to the
	// same owner.
	for _, keyName := range []string{"k1", "k2", "k3"} {
		key := ids.FromKey(keyName)
		owners := make(map[ids.ID]int)
		for _, start := range members {
			cur := start
			for hops := 0; ; hops++ {
				if hops > ids.Digits+16 {
					t.Fatalf("routing loop from %s", start.Short())
				}
				next, self := byID[cur].NextHop(key)
				if self {
					break
				}
				cur = next
			}
			owners[cur]++
		}
		if len(owners) != 1 {
			t.Fatalf("key %s: routing converged to %d distinct owners: %v", keyName, len(owners), owners)
		}
	}
}

// TestHeartbeatDetectsFailure enables liveness probing and crashes a
// node; its leaf-set neighbors must detect and purge it. The watcher's
// own detection shows as the obituary it sends: a purge alone could
// come from an obituary another node gossiped.
func TestHeartbeatDetectsFailure(t *testing.T) {
	var watcherID, victim ids.ID
	deadSeen := false
	net := simnet.New(simnet.Options{Seed: 7, Latency: simnet.Fixed(time.Millisecond),
		Tap: func(from, _ ids.ID, m any, _ time.Duration) {
			if ob, ok := m.(Obituary); ok && from == watcherID && ob.Dead == victim {
				deadSeen = true
			}
		}})
	nodes, members := buildProtocolCluster(t, net, 16, 500*time.Millisecond)

	victimIdx := 5
	victim = members[victimIdx]
	// Find a neighbor that currently has the victim in its leaf set.
	var watcher *Node
	for i, n := range nodes {
		if i != victimIdx && n.leaf.Contains(victim) {
			watcher = n
			break
		}
	}
	if watcher == nil {
		t.Skip("no neighbor holds the victim")
	}
	watcherID = watcher.Self()
	net.SetDown(victim, true)
	// Heartbeats every 500ms, 3 misses allowed: detection within ~2.5s.
	net.RunFor(5 * time.Second)
	if !deadSeen {
		t.Fatal("failure not detected by heartbeats")
	}
	if watcher.leaf.Contains(victim) {
		t.Fatal("dead node still in watcher's leaf set")
	}
}

// TestObituaryPurgesClusterWide enables the liveness path and crashes a
// node; the gossiped obituary must purge it from EVERY survivor's
// routing state — including routing tables of nodes far outside the
// victim's leaf set, which heartbeats alone never examine.
func TestObituaryPurgesClusterWide(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 13, Latency: simnet.Fixed(time.Millisecond)})
	nodes, members := buildProtocolCluster(t, net, 32, 250*time.Millisecond)
	victimIdx := 9
	victim := members[victimIdx]
	holders := 0
	for i, n := range nodes {
		if i != victimIdx && (n.leaf.Contains(victim) || tableContains(n, victim)) {
			holders++
		}
	}
	if holders == 0 {
		t.Fatal("nobody holds the victim")
	}
	net.SetDown(victim, true)
	net.RunFor(5 * time.Second)
	for i, n := range nodes {
		if i == victimIdx {
			continue
		}
		if n.leaf.Contains(victim) {
			t.Errorf("node %d still has the victim in its leaf set", i)
		}
		if tableContains(n, victim) {
			t.Errorf("node %d still has the victim in its routing table", i)
		}
	}
}

func tableContains(n *Node, id ids.ID) bool {
	for _, e := range n.rt.Entries() {
		if e == id {
			return true
		}
	}
	return false
}

// TestRejoinAfterDeathCertificate crashes a node, lets the cluster
// certify it dead, then revives it via Rejoin: the first-hand
// re-announcements must clear the certificates so the node reappears in
// routing state well before the certificate TTL.
func TestRejoinAfterDeathCertificate(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 17, Latency: simnet.Fixed(time.Millisecond)})
	nodes, members := buildProtocolCluster(t, net, 24, 250*time.Millisecond)
	victimIdx := 5
	victim := members[victimIdx]
	net.SetDown(victim, true)
	net.RunFor(5 * time.Second) // detection + obituary flood
	net.SetDown(victim, false)
	nodes[victimIdx].Rejoin(members[0])
	net.RunFor(5 * time.Second)
	if !nodes[victimIdx].joined {
		t.Fatal("victim did not rejoin")
	}
	known := 0
	for i, n := range nodes {
		if i == victimIdx {
			continue
		}
		if n.leaf.Contains(victim) || tableContains(n, victim) {
			known++
		}
	}
	if known == 0 {
		t.Fatal("rejoined node is invisible: death certificates were never cleared")
	}
	t.Logf("rejoined node known by %d/%d survivors", known, len(nodes)-1)
}

// TestJoinRetriesThroughLostHandshake drops the first join exchange (the
// bootstrap is crashed at join time) and verifies the retry loop
// eventually completes the handshake via the recovered bootstrap.
func TestJoinRetriesThroughLostHandshake(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 19, Latency: simnet.Fixed(time.Millisecond)})
	nodes, members := buildProtocolCluster(t, net, 12, 0)
	_ = nodes
	joiner := ids.FromKey("late-joiner")
	env := net.AddNode(joiner)
	jn := New(env, Config{})
	env.BindHandler(&protoNode{jn})
	// Crash the bootstrap just before the join, so the first
	// JoinRequest lands in a corpse.
	net.SetDown(members[0], true)
	jn.Join(members[0])
	net.RunFor(time.Second)
	if jn.joined {
		t.Fatal("join should not have completed against a dead bootstrap")
	}
	net.SetDown(members[0], false)
	net.RunFor(10 * time.Second) // retry cadence is 2s
	if !jn.joined {
		t.Fatal("join retry never completed after the bootstrap recovered")
	}
}

// TestBroadcastAfterProtocolJoin: the broadcast coverage property must
// hold on protocol-built (not oracle-built) routing state too.
func TestBroadcastAfterProtocolJoin(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 11, Latency: simnet.Fixed(time.Millisecond)})
	nodes, members := buildProtocolCluster(t, net, 48, 0)
	byID := make(map[ids.ID]*Node, len(nodes))
	for i, n := range nodes {
		byID[members[i]] = n
	}
	key := ids.FromKey("bcast")
	// Owner by brute force.
	root := members[0]
	for _, m := range members[1:] {
		if ids.CloserToKey(key, m, root) {
			root = m
		}
	}
	reached := map[ids.ID]int{root: 1}
	var walk func(id ids.ID, level int)
	walk = func(id ids.ID, level int) {
		for _, bt := range byID[id].BroadcastTargets(level) {
			reached[bt.ID]++
			if reached[bt.ID] == 1 {
				walk(bt.ID, bt.Level)
			}
		}
	}
	walk(root, 0)
	// Protocol-built tables can have transient holes; require at least
	// 95% coverage after a settled join sequence.
	if len(reached) < len(members)*95/100 {
		t.Fatalf("broadcast reached %d of %d nodes", len(reached), len(members))
	}
}
