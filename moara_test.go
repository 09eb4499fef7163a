package moara

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/simnet"
)

func TestSimClusterQuickstart(t *testing.T) {
	c := NewSimCluster(64, WithSeed(5))
	if c.Size() != 64 {
		t.Fatalf("size = %d", c.Size())
	}
	for i := 0; i < c.Size(); i++ {
		c.SetAttr(i, "cpu", Float(float64(i)))
		c.SetAttr(i, "apache", Bool(i%2 == 0))
	}
	res, err := c.Client(0).Query(context.Background(), "count(*) where apache = true")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Agg.Value.AsInt(); v != 32 {
		t.Fatalf("count = %d", v)
	}
	res, err = c.Client(0).Query(context.Background(), "max(cpu) where apache = true")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Agg.Value.AsFloat(); v != 62 {
		t.Fatalf("max = %v", v)
	}
	if got := c.Attr(3, "cpu"); !got.IsValid() {
		t.Fatal("attr read failed")
	}
}

func TestSimClusterOptions(t *testing.T) {
	c := NewSimCluster(32, WithSeed(9), WithThreshold(1), WithLANModel())
	for i := 0; i < c.Size(); i++ {
		c.SetAttr(i, "g", Bool(i < 4))
	}
	res, err := c.Client(1).Query(context.Background(), "sum(*) where g = true")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Agg.Value.AsInt(); v != 4 {
		t.Fatalf("sum = %d", v)
	}
	if res.Stats.TotalTime <= 0 {
		t.Fatal("LAN model should produce nonzero latency")
	}
}

// TestQueryTimeFromVirtualZero checks that a query whose sub-queries
// go out at virtual time 0 still reports its query phase: a count(*)
// needs no probes, so its query time is its total time.
func TestQueryTimeFromVirtualZero(t *testing.T) {
	c := NewSimCluster(16)
	for q := 0; q < 2; q++ {
		res, err := c.Client(0).Query(context.Background(), "count(*)")
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Stats; st.TotalTime <= 0 || st.QueryTime != st.TotalTime {
			t.Fatalf("query %d: total=%v query=%v, want equal and positive", q, st.TotalTime, st.QueryTime)
		}
	}
}

func TestSimClusterWANModel(t *testing.T) {
	c := NewSimCluster(48, WithSeed(3), WithWANModel())
	for i := 0; i < c.Size(); i++ {
		c.SetAttr(i, "v", Int(1))
	}
	res, err := c.Client(0).Query(context.Background(), "sum(v)")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Agg.Value.AsInt(); v != 48 {
		t.Fatalf("sum = %d", v)
	}
	if res.Stats.TotalTime < 10*time.Millisecond {
		t.Fatalf("WAN latency suspiciously low: %v", res.Stats.TotalTime)
	}
}

// TestModelSeedOptionOrder: a seeded latency model is built from the
// final seed, so WithSeed before or after it gives the same network;
// the WAN model's raised timeouts likewise fill the final node
// configuration, whichever side of WithNodeConfig it comes.
func TestModelSeedOptionOrder(t *testing.T) {
	cfg := WithNodeConfig(core.Config{Threshold: 2})
	for _, opts := range [][]Option{{WithWANModel(), cfg}, {cfg, WithWANModel()}} {
		if got := clusterOptions(8, opts).Node; got.ChildTimeout != 90*time.Second || got.QueryTimeout != 240*time.Second || got.Threshold != 2 {
			t.Errorf("timeouts %v/%v, threshold %d; want 1m30s/4m0s, 2", got.ChildTimeout, got.QueryTimeout, got.Threshold)
		}
	}

	for _, model := range []Option{WithWANModel(), WithLANModel()} {
		seedFirst := clusterOptions(48, []Option{WithSeed(11), model})
		seedLast := clusterOptions(48, []Option{model, WithSeed(11)})
		for i := 0; i < 16; i++ {
			a, b := cluster.NodeID(i), cluster.NodeID(i+1)
			if wan, ok := seedFirst.Latency.(*simnet.WANModel); ok {
				if x, y := wan.BaseRTT(a, b), seedLast.Latency.(*simnet.WANModel).BaseRTT(a, b); x != y {
					t.Fatalf("BaseRTT(%d, %d) = %v with the seed first, %v with it last", i, i+1, x, y)
				}
			}
			x := seedFirst.Latency.Latency(a, b, 0, rand.New(rand.NewSource(1)))
			y := seedLast.Latency.Latency(a, b, 0, rand.New(rand.NewSource(1)))
			if x != y {
				t.Fatalf("latency %d->%d = %v with the seed first, %v with it last", i, i+1, x, y)
			}
		}
		query := func(opts ...Option) Result {
			c := NewSimCluster(48, opts...)
			for i := 0; i < c.Size(); i++ {
				c.SetAttr(i, "v", Int(int64(i)))
			}
			res, err := c.Client(0).Query(context.Background(), "sum(v)")
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if x, y := query(WithSeed(11), model), query(model, WithSeed(11)); x.Agg.String() != y.Agg.String() || x.Stats.TotalTime != y.Stats.TotalTime {
			t.Fatalf("seed first: %s in %v; seed last: %s in %v", x.Agg, x.Stats.TotalTime, y.Agg, y.Stats.TotalTime)
		}
	}
}

// TestProtocolBootstrapOption grows a cluster from one node through the
// real Pastry join handshake, one join every 200 ms, and queries it.
func TestProtocolBootstrapOption(t *testing.T) {
	c := NewSimCluster(1, WithSeed(7))
	for c.Size() < 24 {
		c.AddNode()
		c.RunFor(200 * time.Millisecond)
	}
	c.RunFor(2 * time.Second)
	for i := 0; i < c.Size(); i++ {
		c.SetAttr(i, "x", Int(2))
	}
	res, err := c.Client(2).Query(context.Background(), "sum(x)")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Agg.Value.AsInt(); v != 48 {
		t.Fatalf("sum = %d", v)
	}
}

func TestParseRequestFacade(t *testing.T) {
	req, err := ParseRequest("top3(cpu) where dc = east")
	if err != nil {
		t.Fatal(err)
	}
	if req.Attr != "cpu" || req.Pred == nil {
		t.Fatalf("req = %+v", req)
	}
	if _, err := ParseRequest("nonsense"); err == nil {
		t.Fatal("bad query should fail to parse")
	}
}

func TestFormatEntries(t *testing.T) {
	c := NewSimCluster(16, WithSeed(11))
	for i := 0; i < c.Size(); i++ {
		c.SetAttr(i, "v", Int(int64(i)))
	}
	res, err := c.Client(0).Query(context.Background(), "top3(v)")
	if err != nil {
		t.Fatal(err)
	}
	entries := FormatEntries(res)
	if len(entries) != 3 {
		t.Fatalf("entries = %v", entries)
	}
	// The top entry's node resolves back to an index.
	short := entries[0][:8]
	if idx := c.IndexOfShort(short); idx < 0 {
		t.Fatalf("IndexOfShort(%q) failed", short)
	}
}

func TestMessageAccounting(t *testing.T) {
	c := NewSimCluster(32, WithSeed(13))
	for i := 0; i < c.Size(); i++ {
		c.SetAttr(i, "a", Int(1))
	}
	c.ResetMessageCounter()
	if _, err := c.Client(0).Query(context.Background(), "sum(a)"); err != nil {
		t.Fatal(err)
	}
	if c.Messages() == 0 {
		t.Fatal("query should produce messages")
	}
	c.ResetMessageCounter()
	if c.Messages() != 0 {
		t.Fatal("reset failed")
	}
}

func TestTreesIntrospection(t *testing.T) {
	c := NewSimCluster(48, WithSeed(21))
	for i := 0; i < c.Size(); i++ {
		c.SetAttr(i, "g", Bool(i%3 == 0))
	}
	if _, err := c.Client(0).Query(context.Background(), "count(*) where g = true"); err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 0; i < c.Size(); i++ {
		for _, ti := range c.Trees(i) {
			if ti.Group == "g = true" {
				found = true
				if ti.QSetSize < 0 || ti.Np < 0 {
					t.Fatalf("nonsense tree info: %+v", ti)
				}
			}
		}
	}
	if !found {
		t.Fatal("no node holds tree state after a query")
	}
}

// TestChurnPublicAPI exercises the membership-churn surface end to end:
// heartbeat-enabled cluster, a standing query with completeness
// accounting, Kill with liveness-path repair, AddNode, and Recover.
func TestChurnPublicAPI(t *testing.T) {
	c := NewSimCluster(64, WithSeed(31), WithHeartbeats(100*time.Millisecond),
		WithNodeConfig(core.Config{
			// Epoch-scale lease renewals so even a tree-root death is
			// repaired within a few epochs (the renewal re-routes the
			// subscription to the takeover root).
			SubTTL:           2 * time.Second,
			SubRenewInterval: 500 * time.Millisecond,
		}))
	for i := 0; i < c.Size(); i++ {
		c.SetAttr(i, "load", Int(int64(i%50)))
	}
	var latest Sample
	warm := false
	sub, err := c.Client(0).Subscribe(context.Background(), "count(*) every 200ms", func(s Sample) {
		if !s.ColdStart {
			warm = true
		}
		latest = s
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	for i := 0; !warm && i < 64; i++ {
		c.RunFor(200 * time.Millisecond)
	}
	if !warm {
		t.Fatal("subscription never warmed")
	}
	if latest.Contributors != 64 || latest.Completeness() < 0.95 {
		t.Fatalf("warm sample: contributors=%d completeness=%.2f", latest.Contributors, latest.Completeness())
	}

	// Kill three nodes; the obituary purge plus subscription repair must
	// settle the stream on exactly the survivors.
	for _, i := range []int{5, 9, 23} {
		c.Kill(i)
	}
	if c.LiveCount() != 61 || !c.Down(5) {
		t.Fatalf("live=%d down5=%v", c.LiveCount(), c.Down(5))
	}
	c.RunFor(3 * time.Second)
	if latest.Contributors != 61 {
		t.Fatalf("post-kill contributors = %d, want 61", latest.Contributors)
	}

	// A joining node enters the stream; a recovered one returns.
	j := c.AddNode()
	c.SetAttr(j, "load", Int(7))
	c.Recover(9)
	c.RunFor(4 * time.Second)
	if latest.Contributors != 63 {
		t.Fatalf("post-join/recover contributors = %d, want 63", latest.Contributors)
	}
	if v, _ := latest.Result.Agg.Value.AsInt(); v != 63 {
		t.Fatalf("count = %d, want 63", v)
	}
}
