package simnet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/moara/moara/internal/ids"
)

// shardTestID derives a deterministic node identifier for tests.
func shardTestID(i int) ids.ID {
	return ids.FromKey(fmt.Sprintf("shard-test-node-%d", i))
}

// echoHandler counts deliveries and replies to pings a fixed number of
// times, generating cross-node (and with >= 2 shards, cross-shard)
// traffic.
type echoHandler struct {
	env      *nodeEnv
	got      []string
	remain   int
	lastFrom ids.ID
}

func (h *echoHandler) Handle(from ids.ID, m any) {
	h.got = append(h.got, fmt.Sprintf("%v@%v", m, h.env.Now()))
	h.lastFrom = from
	if h.remain > 0 {
		h.remain--
		h.env.Send(from, "pong")
	}
}

// buildEcho constructs a network of n nodes in a ring where node i
// pings node (i+1)%n a few times; returns the per-node transcripts
// after the run drains.
func buildEcho(t *testing.T, opts Options, n, pings int) ([][]string, *Network) {
	t.Helper()
	net := New(opts)
	handlers := make([]*echoHandler, n)
	envs := make([]*nodeEnv, n)
	for i := 0; i < n; i++ {
		envs[i] = net.AddNode(shardTestID(i))
		handlers[i] = &echoHandler{env: envs[i], remain: 3}
		envs[i].BindHandler(handlers[i])
	}
	for i := 0; i < n; i++ {
		to := shardTestID((i + 1) % n)
		env := envs[i]
		for p := 0; p < pings; p++ {
			d := time.Duration(i*7+p*13) * time.Millisecond
			env.Arm(d, func() { env.Send(to, "ping") }, new(Timer))
		}
	}
	net.Run(0)
	out := make([][]string, n)
	for i := range handlers {
		out[i] = handlers[i].got
	}
	return out, net
}

// counterSummary flattens a counter into a comparable string.
func counterSummary(c *Counter) string {
	return fmt.Sprintf("total=%d wire=%d bykind=%v wirebykind=%v bynode=%d recvbynode=%d",
		c.Total, c.Wire, c.ByKind(), c.WireByKind(), len(c.ByNode()), len(c.RecvByNode()))
}

// TestShardedEchoEquivalence drives the same seeded workload through
// one shard and through 2/3/4-shard configurations (both serial and
// parallel workers) and requires identical per-node delivery
// transcripts, virtual end times, and counters. Latency and processing
// jitter are drawn per message.
func TestShardedEchoEquivalence(t *testing.T) {
	const n, pings = 24, 4
	base := Options{
		Seed:       42,
		Latency:    Uniform(5*time.Millisecond, 8*time.Millisecond),
		ProcDelay:  250 * time.Microsecond,
		ProcJitter: 100 * time.Microsecond,
	}
	ref, refNet := buildEcho(t, base, n, pings)
	refCtr := counterSummary(refNet.Counter())
	refNow := refNet.Now()

	for _, shards := range []int{2, 3, 4} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("shards=%d/workers=%d", shards, workers)
			opts := base
			opts.Shards = shards
			opts.ShardWorkers = workers
			got, net := buildEcho(t, opts, n, pings)
			if now := net.Now(); now != refNow {
				t.Errorf("%s: end time %v, one shard %v", name, now, refNow)
			}
			if ctr := counterSummary(net.Counter()); ctr != refCtr {
				t.Errorf("%s: counters diverged:\n got %s\nwant %s", name, ctr, refCtr)
			}
			for i := range ref {
				if fmt.Sprint(got[i]) != fmt.Sprint(ref[i]) {
					t.Fatalf("%s: node %d transcript diverged:\n got %v\nwant %v",
						name, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestShardedRunUntil checks the time-bounded run contract: events at
// or before the target run, later ones stay queued, and the clock
// lands exactly on the target.
func TestShardedRunUntil(t *testing.T) {
	net := New(Options{Shards: 2, Latency: Fixed(10 * time.Millisecond)})
	env := net.AddNode(shardTestID(0))
	env.BindHandler(&echoHandler{env: env})
	var fired []time.Duration
	for _, d := range []time.Duration{5, 20, 35, 50} {
		d := d * time.Millisecond
		env.Arm(d, func() { fired = append(fired, d) }, new(Timer))
	}
	net.RunUntil(35 * time.Millisecond)
	if net.Now() != 35*time.Millisecond {
		t.Fatalf("now = %v, want 35ms", net.Now())
	}
	if len(fired) != 3 {
		t.Fatalf("fired %v, want the 5/20/35ms timers", fired)
	}
	if net.PendingEvents() != 1 {
		t.Fatalf("pending = %d, want 1", net.PendingEvents())
	}
	net.Run(0)
	if len(fired) != 4 {
		t.Fatalf("fired %v after drain, want all four", fired)
	}
}

// TestShardedScheduleOrdering checks that driver events run before
// node events at the same instant and in creation order, and that
// driver cancels work.
func TestShardedScheduleOrdering(t *testing.T) {
	net := New(Options{Shards: 2, Latency: Fixed(time.Millisecond)})
	env := net.AddNode(shardTestID(0))
	env.BindHandler(&echoHandler{env: env})
	var order []string
	env.Arm(10*time.Millisecond, func() { order = append(order, "node") }, new(Timer))
	net.Schedule(10*time.Millisecond, func() { order = append(order, "driver-a") })
	cancel := net.Schedule(10*time.Millisecond, func() { order = append(order, "cancelled") })
	net.Schedule(10*time.Millisecond, func() { order = append(order, "driver-b") })
	cancel()
	net.Run(0)
	want := "[driver-a driver-b node]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestShardedTimerCancel checks After-cancel, Timer.Stop and Timer
// re-arming on the sharded scheduler: re-arming a slot whose timer is
// still pending replaces it.
func TestShardedTimerCancel(t *testing.T) {
	net := New(Options{Shards: 3, Latency: Fixed(time.Millisecond)})
	env := net.AddNode(shardTestID(0))
	env.BindHandler(&echoHandler{env: env})
	fired := 0
	cancel := env.After(5*time.Millisecond, func() { fired += 100 })
	cancel()
	var tm Timer
	env.Arm(6*time.Millisecond, func() { fired += 10 }, &tm)
	tm.Stop()
	env.Arm(7*time.Millisecond, func() { fired += 1000 }, &tm)
	env.Arm(9*time.Millisecond, func() { fired++ }, &tm)
	net.Run(0)
	if fired != 1 {
		t.Fatalf("fired = %d, want only the re-armed timer", fired)
	}
	if net.PendingEvents() != 0 {
		t.Fatalf("pending = %d after the run, want 0", net.PendingEvents())
	}
	tm.Stop() // after it fired: a no-op
}

// TestShardedDownNode checks that a down node neither receives nor
// fires timers, and that accounting still counts the send.
func TestShardedDownNode(t *testing.T) {
	net := New(Options{Shards: 2, Latency: Fixed(time.Millisecond)})
	a := net.AddNode(shardTestID(0))
	b := net.AddNode(shardTestID(1))
	ha := &echoHandler{env: a}
	hb := &echoHandler{env: b}
	a.BindHandler(ha)
	b.BindHandler(hb)
	b.Arm(5*time.Millisecond, func() { hb.got = append(hb.got, "timer") }, new(Timer))
	net.SetDown(shardTestID(1), true)
	a.Send(shardTestID(1), "hello")
	net.Run(0)
	if len(hb.got) != 0 {
		t.Fatalf("down node observed %v", hb.got)
	}
	ctr := net.Counter()
	if ctr.Total != 1 || len(ctr.RecvByNode()) != 0 {
		t.Fatalf("counter total=%d recv=%v, want sent-but-undelivered", ctr.Total, ctr.RecvByNode())
	}
	net.SetDown(shardTestID(1), false)
	a.Send(shardTestID(1), "hello again")
	net.Run(0)
	if len(hb.got) != 1 {
		t.Fatalf("recovered node observed %v", hb.got)
	}
}

// TestShardedGates checks that unsupported feature combinations are
// rejected at construction.
func TestShardedGates(t *testing.T) {
	expectPanic := func(name string, opts Options) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		New(opts)
	}
	expectPanic("serializeproc", Options{Shards: 2, SerializeProc: true, ProcDelay: time.Millisecond})
	expectPanic("cpuof", Options{Shards: 2, CPUOf: func(ids.ID) int { return 0 }})
	expectPanic("tap", Options{Shards: 2, Tap: func(_, _ ids.ID, _ any, _ time.Duration) {}})
	expectPanic("no-lookahead", Options{Shards: 2, Latency: Uniform(0, time.Millisecond)})
	expectPanic("no-lookahead one shard", Options{Latency: Uniform(0, time.Millisecond)})
	// ProcDelay alone is a usable bound.
	New(Options{Shards: 2, Latency: Uniform(0, time.Millisecond), ProcDelay: time.Millisecond})
}

// TestShardedLookaheadHorizon checks horizon resolution from the model
// bound plus ProcDelay.
func TestShardedLookaheadHorizon(t *testing.T) {
	net := New(Options{Shards: 2, Latency: Fixed(3 * time.Millisecond), ProcDelay: time.Millisecond})
	if h := net.horizon; h != 4*time.Millisecond {
		t.Fatalf("derived horizon %v, want 4ms", h)
	}
	if len(net.shards) != 2 {
		t.Fatalf("%d shards, want 2", len(net.shards))
	}
	if h := New(Options{}).horizon; h != time.Millisecond {
		t.Fatalf("one shard derived horizon %v from the default 1ms model, want 1ms", h)
	}
}

// TestPairwiseModel checks the deterministic pairwise model: stable,
// draw-free, bounded, direction-dependent.
func TestPairwiseModel(t *testing.T) {
	m := Pairwise(2*time.Millisecond, time.Millisecond, 7)
	a, b := shardTestID(0), shardTestID(1)
	l1 := m.Latency(a, b, 0, nil)
	l2 := m.Latency(a, b, time.Hour, nil)
	if l1 != l2 {
		t.Fatalf("pairwise latency unstable: %v vs %v", l1, l2)
	}
	if l1 < 2*time.Millisecond || l1 >= 3*time.Millisecond {
		t.Fatalf("latency %v outside [base, base+spread)", l1)
	}
	if m.MinLatency() != 2*time.Millisecond {
		t.Fatal("pairwise MinLatency wrong")
	}
	rev := m.Latency(b, a, 0, nil)
	fwd := m.Latency(a, b, 0, nil)
	// Directions hash independently; equality would be a (harmless)
	// coincidence, so only check both stay in range.
	if rev < 2*time.Millisecond || rev >= 3*time.Millisecond || fwd != l1 {
		t.Fatalf("reverse latency %v out of range", rev)
	}
}

// TestMinLatencyBounds spot-checks the published bounds against
// sampled draws for every model.
func TestMinLatencyBounds(t *testing.T) {
	models := []struct {
		name string
		m    LatencyModel
	}{
		{"fixed", Fixed(3 * time.Millisecond)},
		{"uniform", Uniform(2*time.Millisecond, 9*time.Millisecond)},
		{"lan", LAN(LANConfig{})},
		{"wan", WAN(WANConfig{Seed: 5})},
		{"pairwise", Pairwise(time.Millisecond, time.Millisecond, 3)},
	}
	rng := rand.New(rand.NewSource(11))
	for _, tc := range models {
		bound := tc.m.MinLatency()
		if bound <= 0 {
			t.Errorf("%s: bound %v not positive", tc.name, bound)
		}
		for i := 0; i < 2000; i++ {
			from, to := shardTestID(i%50), shardTestID((i+1+i/50)%50)
			at := time.Duration(i) * 37 * time.Millisecond
			if l := tc.m.Latency(from, to, at, rng); l < bound {
				t.Errorf("%s: draw %v below bound %v", tc.name, l, bound)
				break
			}
		}
	}
}
