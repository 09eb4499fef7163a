package simnet

import (
	"fmt"
	"testing"
	"time"

	"github.com/moara/moara/internal/ids"
)

// TestHeapModes pins each decision that once differed between one heap
// and K shards, and now follows the sharded rules at every shard count.
func TestHeapModes(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
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
				// the arrival instant, then a: all three land on c at
				// 1ms. The Schedule runs first, then origin order.
				net := New(opts)
				envs := addNodes(net, 3)
				a, b, c := envs[0], envs[1], envs[2]
				var order []string
				c.BindHandler(handlerFunc(func(_ ids.ID, m any) { order = append(order, m.(string)) }))
				b.Send(c.Self(), "b")
				net.Schedule(time.Millisecond, func() { order = append(order, "schedule") })
				a.Send(c.Self(), "a")
				net.Run(0)
				if got := fmt.Sprint(order); got != "[schedule a b]" {
					t.Fatalf("order %s, want [schedule a b]", got)
				}
			})

			t.Run("Schedule", func(t *testing.T) {
				// A Schedule cuts the window short: it runs on the
				// coordinator at its instant, after every earlier node
				// event and before the node timer armed first for the
				// same instant.
				net := New(opts)
				a := addNodes(net, 1)[0]
				var order []string
				note := func(what string) func() {
					return func() { order = append(order, fmt.Sprintf("%s@%v/%v", what, a.Now(), net.Now())) }
				}
				a.Defer(200*time.Microsecond, note("early"))
				a.Defer(500*time.Microsecond, note("timer"))
				net.Schedule(500*time.Microsecond, note("schedule"))
				net.Run(0)
				want := "[early@200µs/200µs schedule@500µs/500µs timer@500µs/500µs]"
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
				if got != 0 {
					t.Fatalf("delivered %d, want the send dropped", got)
				}
				if c := net.Counter(); c.Total != 1 || c.ByNode()[a.Self()] != 1 {
					t.Fatalf("counted total=%d by sender=%d, want the send counted once", c.Total, c.ByNode()[a.Self()])
				}
			})

			t.Run("RunWhile", func(t *testing.T) {
				// Ten timers 100µs apart all fall in the one 1ms window
				// that starts at the first of them; cond is checked at
				// the window barrier.
				net := New(opts)
				a := addNodes(net, 1)[0]
				fired := 0
				for i := 1; i <= 10; i++ {
					a.Defer(time.Duration(i)*100*time.Microsecond, func() { fired++ })
				}
				net.RunWhile(func() bool { return fired < 3 })
				if fired != 10 {
					t.Fatalf("RunWhile stopped after %d timers, want 10", fired)
				}
			})

			t.Run("latency stream", func(t *testing.T) {
				// Each sender draws from its own stream, so a draw from
				// the network's source leaves every latency alone.
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
				if plain, drawn := secondArrival(false), secondArrival(true); plain != drawn {
					t.Fatalf("second arrival %v without a Rand() draw, %v with one", plain, drawn)
				}
			})

			t.Run("Now in a handler", func(t *testing.T) {
				// The network clock moves at window edges: a handler
				// reads the start of its window there, and the instant
				// of its own event on its Env. The timer at 300µs opens
				// the window [300µs, 1.3ms) that holds the 1ms arrival.
				net := New(opts)
				envs := addNodes(net, 2)
				a, b := envs[0], envs[1]
				var seen []string
				b.BindHandler(handlerFunc(func(ids.ID, any) {
					seen = append(seen, fmt.Sprintf("%v/%v", b.Now(), net.Now()))
				}))
				a.Send(b.Self(), "x")
				a.Defer(300*time.Microsecond, func() { a.Send(b.Self(), "y") })
				net.Run(0)
				want := "[1ms/300µs 1.3ms/1.3ms]"
				if got := fmt.Sprint(seen); got != want {
					t.Fatalf("env/network clocks in the handler %s, want %s", got, want)
				}
				if net.Now() != 1300*time.Microsecond {
					t.Fatalf("network clock %v after the run, want the last event's 1.3ms", net.Now())
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
