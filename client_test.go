package moara

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// renderSample renders every observable field of a sample, so stream
// comparisons are byte-exact (Epoch, RootEpoch, timing, coverage, and
// the full aggregate — not just the headline value).
func renderSample(s Sample) string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch=%d root=%d at=%s lag=%s cold=%v contrib=%d expected=%g agg=%s",
		s.Epoch, s.RootEpoch, s.At, s.Lag, s.ColdStart, s.Contributors, s.Expected, s.Result.Agg)
	if s.Result.Groups != nil {
		for _, l := range FormatGroups(s.Result) {
			fmt.Fprintf(&b, " %s", l)
		}
	}
	return b.String()
}

func renderStream(samples []Sample) string {
	lines := make([]string, len(samples))
	for i, s := range samples {
		lines[i] = renderSample(s)
	}
	return strings.Join(lines, "\n")
}

func seedEquivAttrs(c *SimCluster) {
	for i := 0; i < c.Size(); i++ {
		c.SetAttr(i, "cpu", Float(float64((i*37)%100)))
		c.SetAttr(i, "slice", Str(fmt.Sprintf("s%d", i%3)))
		c.SetAttr(i, "apache", Bool(i%2 == 0))
	}
}

// TestSharedStreamByteIdentical is the subsumption equivalence
// guarantee: syntactic variants of one standing query, all served from
// a single shared in-tree subscription, deliver streams byte-identical
// to a direct (service-less) installation of the same query on an
// identically-seeded cluster.
func TestSharedStreamByteIdentical(t *testing.T) {
	const (
		n      = 48
		seed   = 11
		window = 12 * time.Second
	)
	query := "avg(cpu) where apache = true group by slice every 2s"
	variants := []string{
		query,
		"avg( cpu )  where  apache = true group by slice every 2000ms",
		"avg(cpu) where apache = true and apache = true group by slice every 2s",
	}

	// Direct run: one subscription, no service in the path. The install
	// goes through the service with sharing trivially (single
	// subscriber) disabled semantics? No — to keep the baseline pure it
	// subscribes straight on the per-node client, with the normalized
	// text the service would install.
	direct := NewSimCluster(n, WithSeed(seed))
	seedEquivAttrs(direct)
	var directSamples []Sample
	dsub, err := direct.Client(0).Subscribe(context.Background(), query,
		func(s Sample) { directSamples = append(directSamples, s) })
	if err != nil {
		t.Fatal(err)
	}
	direct.RunFor(window)
	if err := dsub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if len(directSamples) == 0 {
		t.Fatal("direct run produced no samples")
	}

	// Service run: an identically-seeded cluster, three variant
	// subscriptions through the service — one install, three streams.
	shared := NewSimCluster(n, WithSeed(seed))
	seedEquivAttrs(shared)
	svc := NewService(shared.Client(0), ServiceOptions{})
	streams := make([][]Sample, len(variants))
	subs := make([]Sub, len(variants))
	for i, v := range variants {
		i := i
		subs[i], err = svc.Subscribe(context.Background(), v,
			func(s Sample) { streams[i] = append(streams[i], s) })
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
	}
	if st := svc.Stats(); st.Installs != 1 || st.Attaches != 2 {
		t.Fatalf("service stats = %+v, want 1 install / 2 attaches", st)
	}
	shared.RunFor(window)
	for i, sub := range subs {
		if err := sub.Unsubscribe(); err != nil {
			t.Fatalf("unsubscribe %d: %v", i, err)
		}
	}

	want := renderStream(directSamples)
	for i := range variants {
		if got := renderStream(streams[i]); got != want {
			t.Errorf("variant %d stream differs from direct run:\ndirect:\n%s\nvariant:\n%s",
				i, want, got)
		}
	}
}

// TestIndependentRunsByteIdentical is the determinism baseline the
// subsumption test leans on: two identically-seeded clusters running
// the same subscription deliver identical streams.
func TestIndependentRunsByteIdentical(t *testing.T) {
	run := func() string {
		c := NewSimCluster(32, WithSeed(5))
		seedEquivAttrs(c)
		var samples []Sample
		sub, err := c.Client(0).Subscribe(context.Background(), "sum(cpu) every 1s",
			func(s Sample) { samples = append(samples, s) })
		if err != nil {
			t.Fatal(err)
		}
		c.RunFor(6 * time.Second)
		sub.Unsubscribe()
		return renderStream(samples)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identically-seeded runs diverge:\n%s\n---\n%s", a, b)
	}
}

// TestCachedOneShotIdenticalModuloAge proves a cache hit is the same
// answer — every field — except the staleness stamp.
func TestCachedOneShotIdenticalModuloAge(t *testing.T) {
	c := NewSimCluster(32, WithSeed(3))
	seedEquivAttrs(c)
	svc := NewService(c.Client(0), ServiceOptions{CacheTTL: time.Minute})
	ctx := context.Background()

	fresh, err := svc.Query(ctx, "avg(cpu) group by slice")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached || fresh.Age != 0 {
		t.Fatalf("fresh answer stamped cached: Cached=%v Age=%v", fresh.Cached, fresh.Age)
	}
	c.RunFor(2 * time.Second) // advance the virtual clock
	cached, err := svc.Query(ctx, "avg( cpu ) group by slice")
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Cached {
		t.Fatal("second query missed the cache")
	}
	if cached.Age != 2*time.Second {
		t.Fatalf("Age = %v, want the 2s the virtual clock advanced", cached.Age)
	}
	cached.Cached = false
	cached.Age = 0
	if !reflect.DeepEqual(fresh, cached) {
		t.Fatalf("cached answer differs beyond the stamp:\nfresh:  %+v\ncached: %+v", fresh, cached)
	}
}

// TestServiceBufferedHandoffNoDeadlock wedges a subscriber callback
// behind a channel nobody reads until the pump finishes. With
// synchronous fan-out that callback would run on the event-loop
// goroutine and deadlock RunFor; the service's buffered hand-off
// (Buffer > 0) keeps the pump live by dropping the stalled
// subscriber's oldest samples instead. Run with -race in CI.
func TestServiceBufferedHandoffNoDeadlock(t *testing.T) {
	c := NewSimCluster(24, WithSeed(2))
	seedEquivAttrs(c)
	svc := NewService(c.Client(0), ServiceOptions{Buffer: 2})

	wedge := make(chan Sample) // unbuffered, drained only after the pump
	var delivered atomic.Int64
	sub, err := svc.Subscribe(context.Background(), "count(*) every 1s", func(s Sample) {
		delivered.Add(1)
		wedge <- s
	})
	if err != nil {
		t.Fatal(err)
	}

	pumped := make(chan struct{})
	go func() {
		c.RunFor(15 * time.Second)
		close(pumped)
	}()
	select {
	case <-pumped:
	case <-time.After(60 * time.Second):
		t.Fatal("epoch pump deadlocked behind a wedged subscriber callback")
	}

	// Release the dispatcher and let it hand over what survived the
	// buffer, then detach.
	go func() {
		for range wedge {
		}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for delivered.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no sample ever reached the subscriber")
		}
		time.Sleep(time.Millisecond)
	}
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorClientOverService runs the Monitor helper against the
// service-fronted client, proving the monitoring layer is written
// against the interface, not a concrete deployment.
func TestMonitorClientOverService(t *testing.T) {
	c := NewSimCluster(24, WithSeed(9))
	seedEquivAttrs(c)
	svc := NewService(c.Client(0), ServiceOptions{})
	samples, err := MonitorClient(context.Background(), svc, "count(*)", time.Second, 8, c.RunFor)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 8 {
		t.Fatalf("got %d samples, want 8", len(samples))
	}
	warm := 0
	for _, s := range samples {
		if s.ColdStart {
			continue
		}
		warm++
		if s.Result.Contributors != int64(c.Size()) {
			t.Fatalf("warm epoch %d: contributors = %d, want %d", s.Epoch, s.Result.Contributors, c.Size())
		}
	}
	if warm == 0 {
		t.Fatal("no warm samples in the window")
	}
}
