package pastry

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/simnet"
)

// stubEnv satisfies simnet.Env for table-only tests.
type stubEnv struct {
	id  ids.ID
	rng *rand.Rand
}

func (s stubEnv) Self() ids.ID                             { return s.id }
func (s stubEnv) Send(ids.ID, any)                         {}
func (s stubEnv) Arm(time.Duration, func(), *simnet.Timer) {}
func (s stubEnv) Now() time.Duration                       { return 0 }
func (s stubEnv) Rand() *rand.Rand                         { return s.rng }
func (s stubEnv) Incarnation() uint64                      { return 0 }

func buildOracleNodes(t *testing.T, n int) (*Oracle, map[ids.ID]*Node, []ids.ID) {
	t.Helper()
	members := make([]ids.ID, n)
	for i := range members {
		members[i] = ids.FromKey(fmt.Sprintf("node-%d", i))
	}
	o := NewOracle(members)
	nodes := make(map[ids.ID]*Node, n)
	for _, id := range members {
		nd := New(stubEnv{id: id, rng: rand.New(rand.NewSource(1))}, Config{})
		o.Fill(nd)
		nodes[id] = nd
	}
	return o, nodes, members
}

// TestBroadcastCoversAllNodes checks the §3.2 substrate property Moara
// relies on: a prefix-constrained broadcast from any tree root reaches
// every live node exactly once when routing tables are complete.
func TestBroadcastCoversAllNodes(t *testing.T) {
	for _, n := range []int{2, 3, 16, 64, 257, 1024} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			o, nodes, members := buildOracleNodes(t, n)
			for _, keyName := range []string{"a", "cpu_util", "slice-3"} {
				key := ids.FromKey(keyName)
				root := o.Owner(key)
				reached := map[ids.ID]int{root: 1}
				var walk func(id ids.ID, level int)
				walk = func(id ids.ID, level int) {
					for _, bt := range nodes[id].BroadcastTargets(level) {
						reached[bt.ID]++
						if reached[bt.ID] == 1 {
							walk(bt.ID, bt.Level)
						}
					}
				}
				walk(root, 0)
				if len(reached) != n {
					missed := 0
					for _, id := range members {
						if reached[id] == 0 {
							missed++
							if missed <= 5 {
								t.Logf("missed %s (common prefix with root: %d)",
									id.Short(), ids.CommonPrefixLen(root, id))
							}
						}
					}
					t.Fatalf("key %q: reached %d of %d nodes", keyName, len(reached), n)
				}
				for id, cnt := range reached {
					if cnt > 1 {
						t.Fatalf("key %q: node %s received broadcast %d times", keyName, id.Short(), cnt)
					}
				}
			}
		})
	}
}

// TestNextHopConverges checks that iterated NextHop routing reaches the
// ring-wise closest node for arbitrary keys.
func TestNextHopConverges(t *testing.T) {
	o, nodes, members := buildOracleNodes(t, 300)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		key := ids.Random(rng)
		want := o.Owner(key)
		cur := members[rng.Intn(len(members))]
		for hops := 0; ; hops++ {
			if hops > ids.Digits+10 {
				t.Fatalf("routing to %s did not converge", key.Short())
			}
			next, self := nodes[cur].NextHop(key)
			if self {
				break
			}
			cur = next
		}
		if cur != want {
			t.Fatalf("key %s routed to %s, oracle owner %s", key.Short(), cur.Short(), want.Short())
		}
	}
}
