package simnet

import (
	"fmt"
	"testing"
	"time"

	"github.com/moara/moara/internal/ids"
)

// TestHeapModes pins each decision that still differs between one heap
// and two shards, as listed in the shard.go header.
func TestHeapModes(t *testing.T) {
	for _, shards := range []int{1, 2} {
		one := shards == 1
		opts := Options{Seed: 5, Shards: shards, ShardWorkers: 1, Latency: Fixed(time.Millisecond)}
		addNodes := func(net *Network, k int) []*nodeEnv {
			envs := make([]*nodeEnv, k)
			for i := range envs {
				envs[i] = net.AddNode(shardTestID(i))
				envs[i].BindHandler(handlerFunc(func(ids.ID, any) {}))
			}
			return envs
		}
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Run("ties", func(t *testing.T) {
				// b (registered second) sends first, then a Schedule at
				// the arrival instant, then a: all three land on c's
				// heap at 1ms.
				net := New(opts)
				envs := addNodes(net, 3)
				a, b, c := envs[0], envs[1], envs[2]
				var order []string
				c.BindHandler(handlerFunc(func(_ ids.ID, m any) { order = append(order, m.(string)) }))
				b.Send(c.Self(), "b")
				net.Schedule(time.Millisecond, func() { order = append(order, "schedule") })
				a.Send(c.Self(), "a")
				net.Run(0)
				want := "[schedule a b]" // Schedule first, then origin order
				if one {
					want = "[b schedule a]" // creation order
				}
				if got := fmt.Sprint(order); got != want {
					t.Fatalf("order %s, want %s", got, want)
				}
			})

			t.Run("unregistered destination", func(t *testing.T) {
				net := New(opts)
				a := addNodes(net, 1)[0]
				late := shardTestID(9)
				a.Send(late, "early")
				net.RunUntil(500 * time.Microsecond)
				got := 0
				net.AddNode(late).BindHandler(handlerFunc(func(ids.ID, any) { got++ }))
				net.Run(0)
				want := 0 // dropped at send
				if one {
					want = 1 // queued, delivered to the node registered in flight
				}
				if got != want {
					t.Fatalf("delivered %d, want %d", got, want)
				}
				if c := net.Counter(); c.Total != 1 || c.ByNode()[a.Self()] != 1 {
					t.Fatalf("counted total=%d by sender=%d, want the send counted once", c.Total, c.ByNode()[a.Self()])
				}
			})

			t.Run("RunWhile", func(t *testing.T) {
				// Ten timers 100µs apart all fall in the one 1ms window
				// that starts at the first of them.
				net := New(opts)
				a := addNodes(net, 1)[0]
				fired := 0
				for i := 1; i <= 10; i++ {
					a.Defer(time.Duration(i)*100*time.Microsecond, func() { fired++ })
				}
				net.RunWhile(func() bool { return fired < 3 })
				want := 10 // checked at the window barrier
				if one {
					want = 3 // checked before every event
				}
				if fired != want {
					t.Fatalf("RunWhile stopped after %d timers, want %d", fired, want)
				}
			})

			t.Run("latency stream", func(t *testing.T) {
				secondArrival := func(draw bool) time.Duration {
					o := opts
					o.Latency = Uniform(time.Millisecond, 50*time.Millisecond)
					net := New(o)
					envs := addNodes(net, 2)
					a, b := envs[0], envs[1]
					var at time.Duration
					b.BindHandler(handlerFunc(func(_ ids.ID, m any) {
						if m == "second" {
							at = b.Now()
						}
					}))
					a.Send(b.Self(), "first")
					if draw {
						net.Rand().Int63()
					}
					a.Send(b.Self(), "second")
					net.Run(0)
					return at
				}
				plain, drawn := secondArrival(false), secondArrival(true)
				if shifted := plain != drawn; shifted != one {
					t.Fatalf("second arrival %v without a Rand() draw, %v with one; shifted = %v, want %v",
						plain, drawn, shifted, one)
				}
			})
		})
	}
}

// TestRunUntilNeverRewinds checks that a target in the past leaves every
// clock where it was, on one heap and across shards.
func TestRunUntilNeverRewinds(t *testing.T) {
	for _, shards := range []int{1, 2} {
		net := New(Options{Shards: shards, Latency: Fixed(time.Millisecond)})
		env := net.AddNode(shardTestID(0))
		env.BindHandler(handlerFunc(func(ids.ID, any) {}))
		env.Defer(20*time.Millisecond, func() {})
		net.RunUntil(10 * time.Millisecond)
		net.RunUntil(5 * time.Millisecond)
		net.RunFor(-time.Millisecond)
		if net.Now() != 10*time.Millisecond || env.Now() != 10*time.Millisecond {
			t.Fatalf("shards=%d: clocks at net %v, node %v after past targets, want 10ms", shards, net.Now(), env.Now())
		}
		var at time.Duration
		env.Defer(time.Millisecond, func() { at = env.Now() })
		net.Run(0)
		if at != 11*time.Millisecond {
			t.Fatalf("shards=%d: timer armed at 10ms+1ms fired at %v", shards, at)
		}
	}
}
