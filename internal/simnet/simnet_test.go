package simnet

import (
	"math/rand"
	"testing"
	"time"

	"github.com/moara/moara/internal/ids"
)

type recordingHandler struct {
	got []string
}

func (h *recordingHandler) Handle(from ids.ID, m any) {
	h.got = append(h.got, m.(string))
}

func TestDeliveryAndOrdering(t *testing.T) {
	net := New(Options{Seed: 1, Latency: Fixed(time.Millisecond)})
	a, b := ids.FromUint64(1), ids.FromUint64(2)
	envA := net.AddNode(a)
	h := &recordingHandler{}
	envB := net.AddNode(b)
	envB.BindHandler(h)
	envA.BindHandler(&recordingHandler{})

	envA.Send(b, "one")
	envA.Send(b, "two")
	net.Run(0)
	if len(h.got) != 2 || h.got[0] != "one" || h.got[1] != "two" {
		t.Fatalf("delivery order: %v", h.got)
	}
	if net.Counter().Total != 2 {
		t.Fatalf("counter = %d", net.Counter().Total)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		net := New(Options{Seed: 42, Latency: Uniform(time.Millisecond, 10*time.Millisecond)})
		a := ids.FromUint64(1)
		h := &recordingHandler{}
		envA := net.AddNode(a)
		envA.BindHandler(h)
		for i := 0; i < 5; i++ {
			msg := string(rune('a' + i))
			envA.Send(a, msg)
			net.Schedule(time.Duration(i)*time.Millisecond, func() {
				h.got = append(h.got, "timer-"+msg)
			})
		}
		net.Run(0)
		return h.got
	}
	first := run()
	second := run()
	if len(first) != len(second) {
		t.Fatalf("lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("run diverged at %d: %q vs %q", i, first[i], second[i])
		}
	}
}

// TestNodeRandLazy: at one and two shards a node's random source exists only
// once the node draws from it, and the stream it then yields is the one
// an eagerly built source over Seed ^ id.Seed() would have.
func TestNodeRandLazy(t *testing.T) {
	const seed, k = 77, 64
	for _, shards := range []int{0, 2} {
		net := New(Options{Seed: seed, Shards: shards, Latency: Fixed(time.Millisecond)})
		var envs []*nodeEnv
		for i := uint64(1); i <= 4; i++ {
			env := net.AddNode(ids.FromUint64(i))
			env.BindHandler(&recordingHandler{})
			envs = append(envs, env)
		}
		drawer := envs[1]
		var got []int64
		drawer.Arm(time.Millisecond, func() {
			for i := 0; i < k; i++ {
				got = append(got, drawer.Rand().Int63())
			}
		}, new(Timer))
		net.RunFor(10 * time.Millisecond)
		want := rand.New(rand.NewSource(seed ^ int64(drawer.id.Seed())))
		if len(got) != k {
			t.Fatalf("shards=%d: %d draws, want %d", shards, len(got), k)
		}
		for i, v := range got {
			if w := want.Int63(); v != w {
				t.Fatalf("shards=%d: draw %d = %d, eager source gives %d", shards, i, v, w)
			}
		}
		for i, env := range envs {
			if drew := env == drawer; (env.rng != nil) != drew {
				t.Fatalf("shards=%d: node %d holds a source = %v, drew = %v", shards, i, env.rng != nil, drew)
			}
		}
	}
}

func TestTimersAndCancel(t *testing.T) {
	net := New(Options{Seed: 1})
	a := ids.FromUint64(1)
	env := net.AddNode(a)
	env.BindHandler(&recordingHandler{})
	fired := 0
	var keep, drop Timer
	env.Arm(5*time.Millisecond, func() { fired++ }, &keep)
	env.Arm(time.Millisecond, func() { fired += 100 }, &drop)
	drop.Stop()
	net.RunFor(10 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (cancel leaked)", fired)
	}
	if net.Now() != 10*time.Millisecond {
		t.Fatalf("now = %v", net.Now())
	}
}

func TestDownNodesDropTraffic(t *testing.T) {
	net := New(Options{Seed: 1})
	a, b := ids.FromUint64(1), ids.FromUint64(2)
	envA := net.AddNode(a)
	envA.BindHandler(&recordingHandler{})
	h := &recordingHandler{}
	envB := net.AddNode(b)
	envB.BindHandler(h)

	net.SetDown(b, true)
	envA.Send(b, "lost")
	net.Run(0)
	if len(h.got) != 0 {
		t.Fatal("down node received a message")
	}
	net.SetDown(b, false)
	envA.Send(b, "kept")
	net.Run(0)
	if len(h.got) != 1 || h.got[0] != "kept" {
		t.Fatalf("recovered node state: %v", h.got)
	}
	// A down node cannot send either.
	net.SetDown(a, true)
	envA.Send(b, "fromDown")
	net.Run(0)
	if len(h.got) != 1 {
		t.Fatal("down node sent a message")
	}
}

func TestDropHook(t *testing.T) {
	dropped := 0
	net := New(Options{
		Seed: 1,
		Drop: func(_, _ ids.ID, m any) bool {
			if m == "drop-me" {
				dropped++
				return true
			}
			return false
		},
	})
	a, b := ids.FromUint64(1), ids.FromUint64(2)
	envA := net.AddNode(a)
	envA.BindHandler(&recordingHandler{})
	h := &recordingHandler{}
	net.AddNode(b).BindHandler(h)
	envA.Send(b, "drop-me")
	envA.Send(b, "keep-me")
	net.Run(0)
	if dropped != 1 || len(h.got) != 1 || h.got[0] != "keep-me" {
		t.Fatalf("drop hook: dropped=%d got=%v", dropped, h.got)
	}
}

func TestSerializedProcessingQueues(t *testing.T) {
	const proc = 10 * time.Millisecond
	net := New(Options{
		Seed:          1,
		Latency:       Fixed(time.Millisecond),
		ProcDelay:     proc,
		SerializeProc: true,
	})
	a, b := ids.FromUint64(1), ids.FromUint64(2)
	envA := net.AddNode(a)
	envA.BindHandler(&recordingHandler{})
	var arrivals []time.Duration
	envB := net.AddNode(b)
	envB.BindHandler(handlerFunc(func(ids.ID, any) { arrivals = append(arrivals, envB.Now()) }))

	// Five messages sent simultaneously must be processed serially,
	// 10ms apart.
	for i := 0; i < 5; i++ {
		envA.Send(b, i)
	}
	net.Run(0)
	if len(arrivals) != 5 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	for i := 1; i < len(arrivals); i++ {
		gap := arrivals[i] - arrivals[i-1]
		if gap != proc {
			t.Fatalf("gap %d = %v, want %v (CPU not serialized)", i, gap, proc)
		}
	}
}

func TestSharedCPUQueueing(t *testing.T) {
	const proc = 10 * time.Millisecond
	net := New(Options{
		Seed:          1,
		Latency:       Fixed(time.Millisecond),
		ProcDelay:     proc,
		SerializeProc: true,
		CPUOf:         func(ids.ID) int { return 0 }, // all share one CPU
	})
	a := ids.FromUint64(1)
	envA := net.AddNode(a)
	envA.BindHandler(&recordingHandler{})
	var arrivals []time.Duration
	for i := 2; i <= 4; i++ {
		env := net.AddNode(ids.FromUint64(uint64(i)))
		env.BindHandler(handlerFunc(func(ids.ID, any) { arrivals = append(arrivals, env.Now()) }))
	}
	for i := 2; i <= 4; i++ {
		envA.Send(ids.FromUint64(uint64(i)), "x")
	}
	net.Run(0)
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	// Distinct receivers on a shared CPU still serialize.
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i]-arrivals[i-1] != proc {
			t.Fatalf("shared CPU gap = %v", arrivals[i]-arrivals[i-1])
		}
	}
}

// TestCPUOfOutOfRangePanics: a node whose CPUOf number cannot index the
// busy horizons is refused at AddNode, not queued on some shared CPU.
func TestCPUOfOutOfRangePanics(t *testing.T) {
	for _, cpu := range []int{-1, 1 << 20} {
		net := New(Options{SerializeProc: true, CPUOf: func(ids.ID) int { return cpu }})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CPUOf = %d: AddNode did not panic", cpu)
				}
			}()
			net.AddNode(ids.FromUint64(1))
		}()
	}
}

func TestRunWhileStopsEarly(t *testing.T) {
	net := New(Options{Seed: 1})
	count := 0
	for i := 0; i < 10; i++ {
		net.Schedule(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	net.RunWhile(func() bool { return count < 3 })
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestWANModelStability(t *testing.T) {
	m := WAN(WANConfig{Seed: 7})
	a, b := ids.FromUint64(1), ids.FromUint64(2)
	if m.BaseRTT(a, b) != m.BaseRTT(b, a) {
		t.Fatal("BaseRTT not symmetric")
	}
	if m.BaseRTT(a, b) != m.BaseRTT(a, b) {
		t.Fatal("BaseRTT not stable")
	}
	if m.BaseRTT(a, a) != 0 {
		t.Fatal("self RTT should be zero")
	}
	// Per-pair and per-node draws come from a stack source.
	if n := testing.AllocsPerRun(100, func() { m.RTTAt(a, b, time.Second) }); n != 0 {
		t.Fatalf("a WAN RTT allocates %v times", n)
	}
}

func TestWANStragglerStatistics(t *testing.T) {
	m := WAN(WANConfig{Seed: 3})
	stragglers := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if m.StragglerDelay(ids.FromUint64(uint64(i))) > 0 {
			stragglers++
		}
	}
	frac := float64(stragglers) / n
	if frac < 0.02 || frac > 0.07 {
		t.Fatalf("straggler fraction = %v, want ~0.04", frac)
	}
}

func TestWANStragglerDutyCycle(t *testing.T) {
	m := WAN(WANConfig{Seed: 3})
	// Find a straggler (the zero ID can be one).
	var s ids.ID
	found := false
	for i := 0; i < 2000 && !found; i++ {
		s = ids.FromUint64(uint64(i))
		found = m.StragglerDelay(s) > 0
	}
	if !found {
		t.Skip("no straggler found")
	}
	slow, total := 0, 200
	for w := 0; w < total; w++ {
		if m.stragglerAt(s, time.Duration(w)*m.cfg.StragglerWindow) > 0 {
			slow++
		}
	}
	frac := float64(slow) / float64(total)
	if frac < 0.15 || frac > 0.5 {
		t.Fatalf("duty fraction = %v, want ~0.3", frac)
	}
}

type handlerFunc func(ids.ID, any)

func (f handlerFunc) Handle(from ids.ID, m any) { f(from, m) }

// testBatch implements Batch for accounting tests.
type testBatch struct {
	items []any
}

func (b testBatch) Unpack() []any { return b.items }
func (testBatch) MsgKind() string { return "test.batch" }

type kindMsg string

func (k kindMsg) MsgKind() string { return string(k) }

// TestBatchAccounting checks the wire/logical counter split: a Batch
// counts once at the wire level (under its envelope kind) and once per
// carried item at the logical level (under the items' own kinds), and
// delivery credits the receiver with the logical count.
func TestBatchAccounting(t *testing.T) {
	net := New(Options{Seed: 1})
	a, b := ids.FromUint64(1), ids.FromUint64(2)
	ea := net.AddNode(a)
	eb := net.AddNode(b)
	delivered := 0
	ea.BindHandler(handlerFunc(func(ids.ID, any) {}))
	eb.BindHandler(handlerFunc(func(_ ids.ID, m any) {
		if bm, ok := m.(Batch); ok {
			delivered += len(bm.Unpack())
		} else {
			delivered++
		}
	}))
	ea.Send(b, testBatch{items: []any{kindMsg("moara.epoch"), kindMsg("moara.epoch"), kindMsg("moara.cancel")}})
	ea.Send(b, kindMsg("moara.status"))
	net.Run(0)

	c := net.Counter()
	if c.Total != 4 {
		t.Errorf("logical Total = %d, want 4", c.Total)
	}
	if c.Wire != 2 {
		t.Errorf("Wire = %d, want 2", c.Wire)
	}
	if c.Logical("moara.epoch") != 2 || c.Logical("moara.cancel") != 1 || c.Logical("moara.status") != 1 {
		t.Errorf("logical ByKind = %v", c.ByKind())
	}
	if c.Logical("test.batch") != 0 {
		t.Errorf("batch envelope leaked into logical counts: %v", c.ByKind())
	}
	if c.WireCount("test.batch") != 1 || c.WireCount("moara.status") != 1 {
		t.Errorf("WireByKind = %v", c.WireByKind())
	}
	if c.ByNode()[a] != 4 {
		t.Errorf("ByNode[a] = %d, want 4", c.ByNode()[a])
	}
	if c.RecvByNode()[b] != 4 {
		t.Errorf("RecvByNode[b] = %d, want 4", c.RecvByNode()[b])
	}
	if delivered != 4 {
		t.Errorf("delivered items = %d, want 4", delivered)
	}
}
