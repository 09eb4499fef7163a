package transport

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/simnet"
	"github.com/moara/moara/internal/value"
)

// startCluster boots n agents on loopback ephemeral ports and exchanges
// rosters.
func startCluster(t *testing.T, n int, cfg core.Config) []*Node {
	t.Helper()
	nodes := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		nd, err := Listen("127.0.0.1:0", nil, Options{Node: cfg})
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		nodes = append(nodes, nd)
	}
	roster := make([]string, 0, n)
	for _, nd := range nodes {
		roster = append(roster, nd.Addr())
	}
	for _, nd := range nodes {
		nd.ApplyRoster(roster)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes
}

// query runs one one-shot query under a wall-clock deadline.
func query(nd *Node, text string, timeout time.Duration) (core.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return nd.Query(ctx, text)
}

func TestTCPClusterGlobalSum(t *testing.T) {
	nodes := startCluster(t, 8, core.Config{})
	want := int64(0)
	for i, nd := range nodes {
		nd.SetAttr("load", value.Int(int64(i+1)))
		want += int64(i + 1)
	}
	res, err := query(nodes[0], "sum(load)", 10*time.Second)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	got, _ := res.Agg.Value.AsInt()
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if res.Contributors != int64(len(nodes)) {
		t.Fatalf("contributors = %d, want %d", res.Contributors, len(nodes))
	}
}

func TestTCPClusterGroupQueries(t *testing.T) {
	nodes := startCluster(t, 10, core.Config{})
	for i, nd := range nodes {
		nd.SetAttr("svc", value.Bool(i%2 == 0))
		nd.SetAttr("dc", value.Str(fmt.Sprintf("dc%d", i%3)))
		nd.SetAttr("cpu", value.Float(float64(10*i)))
	}
	res, err := query(nodes[1], "count(*) where svc = true", 10*time.Second)
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if got, _ := res.Agg.Value.AsInt(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	res, err = query(nodes[3], "count(*) group by dc", 10*time.Second)
	if err != nil {
		t.Fatalf("grouped: %v", err)
	}
	// i%3 over 0..9: dc0 x4, dc1 x3, dc2 x3.
	want := map[string]int64{"dc0": 4, "dc1": 3, "dc2": 3}
	if len(res.Groups) != len(want) {
		t.Fatalf("groups = %v, want keys %v", res.Groups, want)
	}
	for k, w := range want {
		if got, _ := res.Groups[k].Value.AsInt(); got != w {
			t.Fatalf("group %s = %d, want %d", k, got, w)
		}
	}
	if got, _ := res.Agg.Value.AsInt(); got != 10 {
		t.Fatalf("grouped total = %d, want 10", got)
	}

	res, err = query(nodes[2], "max(cpu) where svc = true and dc = dc0", 10*time.Second)
	if err != nil {
		t.Fatalf("composite: %v", err)
	}
	f, _ := res.Agg.Value.AsFloat()
	// Eligible: even i with i%3==0 -> i in {0, 6}; max cpu 60.
	if f != 60 {
		t.Fatalf("max = %v, want 60", f)
	}
}

func TestTCPRepeatedQueriesPrune(t *testing.T) {
	nodes := startCluster(t, 6, core.Config{})
	for i, nd := range nodes {
		nd.SetAttr("g", value.Bool(i == 0))
	}
	for round := 0; round < 5; round++ {
		res, err := query(nodes[3], "count(*) where g = true", 10*time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got, _ := res.Agg.Value.AsInt(); got != 1 {
			t.Fatalf("round %d: count = %d, want 1", round, got)
		}
	}
}

// TestRestartIncarnationIncreases: an agent listening again on its old
// address keeps its ID, so its queries must be numbered past the last
// life's — from an incarnation stamp that grows across Listens.
func TestRestartIncarnationIncreases(t *testing.T) {
	first, err := Listen("127.0.0.1:0", nil, Options{})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr, stamp := first.Addr(), nodeEnv{first}.Incarnation()
	first.Close()
	second, err := Listen(addr, nil, Options{})
	if err != nil {
		t.Fatalf("listen again on %s: %v", addr, err)
	}
	defer second.Close()
	if second.ID() != first.ID() {
		t.Fatal("restart on the same address changed the ID")
	}
	next := nodeEnv{second}.Incarnation()
	if next <= stamp {
		t.Fatalf("incarnation %d after %d: not increasing", next, stamp)
	}
	sub, err := second.Subscribe(context.Background(), "sum(a) every 1s", func(core.Sample) {})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Unsubscribe()
	if sub.ID().Num <= next {
		t.Fatalf("first query ID %v not numbered past incarnation %d", sub.ID(), next)
	}
}

func TestTCPQueryTimeoutOnBadRequest(t *testing.T) {
	nodes := startCluster(t, 3, core.Config{})
	if _, err := query(nodes[0], "bogus query text", time.Second); err == nil {
		t.Fatal("expected parse error")
	}
}

// TestTCPStandingOneFramePerEdge: standing queries on one tree share
// each agent's epoch: the agent ticks every due entry in one timer turn
// and flushes the reports in one frame per tree edge. Four streams then
// cost about the wire frames of one; one timer turn per entry would ship
// each report alone, at ~4×.
func TestTCPStandingOneFramePerEdge(t *testing.T) {
	const period = 100 * time.Millisecond
	nodes := startCluster(t, 8, core.Config{})
	for i, nd := range nodes {
		nd.SetAttr("load", value.Int(int64(i+1)))
	}
	subscribe := func(agg string) {
		t.Helper()
		req, err := core.ParseRequest(fmt.Sprintf("%s(load) every %v", agg, period))
		if err != nil {
			t.Fatal(err)
		}
		warm := make(chan struct{}, 1)
		if _, err := nodes[0].SubscribeRequest(context.Background(), req, func(s core.Sample) {
			if !s.ColdStart && s.Contributors == int64(len(nodes)) {
				select {
				case warm <- struct{}{}:
				default:
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-warm:
		case <-time.After(20 * time.Second):
			t.Fatalf("%s(load): no warm full sample", agg)
		}
	}
	framesPerEpoch := func() float64 {
		out := func() (total uint64) {
			for _, nd := range nodes {
				total += nd.Stats().MsgsOut
			}
			return total
		}
		const epochs = 10
		before := out()
		time.Sleep(epochs * period)
		return float64(out()-before) / epochs
	}
	subscribe("sum")
	one := framesPerEpoch()
	for _, agg := range []string{"avg", "max", "min"} {
		subscribe(agg)
	}
	four := framesPerEpoch()
	t.Logf("wire frames per epoch: %.1f with one stream, %.1f with four", one, four)
	if four > 1.5*one {
		t.Fatalf("four streams cost %.1f frames per epoch, one %.1f: want at most 1.5×", four, one)
	}
}

// TestTCPConcurrentStandingCoalesced installs two concurrent standing
// queries over real TCP with a generous coalescing window, so their
// per-epoch EpochReportMsg traffic shares BatchMsg envelopes on the
// actual gob wire. Both streams must deliver correct warm samples, and
// cancelling one must not disturb the other.
func TestTCPConcurrentStandingCoalesced(t *testing.T) {
	nodes := startCluster(t, 6, core.Config{CoalesceWindow: 40 * time.Millisecond})
	want := int64(0)
	for i, nd := range nodes {
		nd.SetAttr("load", value.Int(int64(i+1)))
		want += int64(i + 1)
	}
	req, err := core.ParseRequest("sum(load) every 150ms")
	if err != nil {
		t.Fatal(err)
	}
	chA := make(chan core.Sample, 64)
	chB := make(chan core.Sample, 64)
	subA, err := nodes[0].SubscribeRequest(context.Background(), req, func(s core.Sample) { chA <- s })
	if err != nil {
		t.Fatalf("subscribe A: %v", err)
	}
	if _, err := nodes[1].SubscribeRequest(context.Background(), req, func(s core.Sample) { chB <- s }); err != nil {
		t.Fatalf("subscribe B: %v", err)
	}
	waitWarm := func(name string, ch chan core.Sample) core.Sample {
		deadline := time.After(20 * time.Second)
		for {
			select {
			case s := <-ch:
				if v, _ := s.Result.Agg.Value.AsInt(); !s.ColdStart && v == want {
					return s
				}
			case <-deadline:
				t.Fatalf("%s: no warm full sample", name)
			}
		}
	}
	waitWarm("A", chA)
	waitWarm("B", chB)
	if err := subA.Unsubscribe(); err != nil {
		t.Fatalf("unsubscribe A: %v", err)
	}
	// B keeps streaming full samples after A's batched cancel cascade.
	waitWarm("B after cancel", chB)
}

// TestAgentArm drives the agent's real-clock timers directly: a timer
// runs once, Stop before it fires prevents it and after it fired does
// nothing, re-arming a slot replaces its pending timer (even when the
// old callback already waits for the lock), and nothing armed before
// Close runs after Close returns. The core arms and stops
// its timers under the core lock, so the test does too.
func TestAgentArm(t *testing.T) {
	listen := func(t *testing.T) *Node {
		t.Helper()
		nd, err := Listen("127.0.0.1:0", nil, Options{})
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		t.Cleanup(func() { nd.Close() })
		return nd
	}
	locked := func(nd *Node, fn func(env nodeEnv)) {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		fn(nodeEnv{nd})
	}
	wait := func(t *testing.T, fired <-chan string, want string) {
		t.Helper()
		select {
		case got := <-fired:
			if got != want {
				t.Fatalf("timer %q fired, want %q", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timer %q never fired", want)
		}
	}
	quiet := func(t *testing.T, fired <-chan string) {
		t.Helper()
		select {
		case got := <-fired:
			t.Fatalf("timer %q fired, want none", got)
		case <-time.After(100 * time.Millisecond):
		}
	}
	note := func(fired chan<- string, name string) func() {
		return func() { fired <- name }
	}

	t.Run("fires once", func(t *testing.T) {
		nd, fired := listen(t), make(chan string, 4)
		var tm simnet.Timer
		locked(nd, func(env nodeEnv) { env.Arm(time.Millisecond, note(fired, "a"), &tm) })
		wait(t, fired, "a")
		quiet(t, fired)
	})
	t.Run("stop before it fires", func(t *testing.T) {
		nd, fired := listen(t), make(chan string, 4)
		var tm simnet.Timer
		locked(nd, func(env nodeEnv) {
			env.Arm(time.Millisecond, note(fired, "a"), &tm)
			time.Sleep(5 * time.Millisecond) // the clock fires; the callback waits for the lock
			tm.Stop()
		})
		quiet(t, fired)
	})
	t.Run("stop after it fired", func(t *testing.T) {
		nd, fired := listen(t), make(chan string, 4)
		var tm simnet.Timer
		locked(nd, func(env nodeEnv) { env.Arm(time.Millisecond, note(fired, "a"), &tm) })
		wait(t, fired, "a")
		locked(nd, func(nodeEnv) { tm.Stop() })
		locked(nd, func(env nodeEnv) { env.Arm(time.Millisecond, note(fired, "b"), &tm) })
		wait(t, fired, "b")
		quiet(t, fired)
	})
	t.Run("re-arm replaces", func(t *testing.T) {
		nd, fired := listen(t), make(chan string, 4)
		var tm simnet.Timer
		locked(nd, func(env nodeEnv) {
			env.Arm(time.Millisecond, note(fired, "a"), &tm)
			time.Sleep(5 * time.Millisecond)
			env.Arm(10*time.Millisecond, note(fired, "b"), &tm)
		})
		wait(t, fired, "b")
		quiet(t, fired)
	})
	t.Run("re-arm while the old callback waits", func(t *testing.T) {
		// The slot is re-armed in place, with the same callback, while the
		// first arming's callback waits for the lock: that waiting
		// callback must not run the second arming early, and the second
		// arming runs once, at its deadline.
		nd, fired := listen(t), make(chan time.Time, 4)
		tick := func() { fired <- time.Now() }
		const d = 50 * time.Millisecond
		var tm simnet.Timer
		var rearmed time.Time
		locked(nd, func(env nodeEnv) {
			env.Arm(time.Millisecond, tick, &tm)
			time.Sleep(5 * time.Millisecond) // the clock fires; the callback waits for the lock
			rearmed = time.Now()
			env.Arm(d, tick, &tm)
		})
		select {
		case at := <-fired:
			if early := at.Sub(rearmed); early < d {
				t.Fatalf("the re-armed timer ran %v after its arming, before its %v deadline", early, d)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the re-armed timer never ran")
		}
		select {
		case <-fired:
			t.Fatal("the re-armed timer ran twice")
		case <-time.After(100 * time.Millisecond):
		}
	})
	t.Run("nothing runs after close", func(t *testing.T) {
		nd := listen(t)
		var closed atomic.Bool
		var late atomic.Int64
		timers := make([]simnet.Timer, 64)
		locked(nd, func(env nodeEnv) {
			for i := range timers {
				env.Arm(time.Duration(i)*50*time.Microsecond, func() {
					if closed.Load() {
						late.Add(1)
					}
				}, &timers[i])
			}
		})
		time.Sleep(time.Millisecond)
		nd.Close()
		closed.Store(true)
		time.Sleep(20 * time.Millisecond)
		if n := late.Load(); n != 0 {
			t.Fatalf("%d timers ran after Close returned", n)
		}
	})
}
