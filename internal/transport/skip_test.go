package transport

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/value"
)

// TestTCPInteriorAgentsSkip: over real sockets an unchanged subtree
// crosses a tree edge as an unchanged report, so an agent whose children
// send only those re-sends its retained state: it decodes, merges and
// rebuilds nothing. With nothing written, every agent with children on
// the stream over an attribute nobody writes counts reuses and no
// rebuild; a write at a leaf of the other stream still reaches that
// stream's samples; and every warm sample of either is exact. An agent
// that rebuilt from every decoded report would count a rebuild per
// epoch here.
func TestTCPInteriorAgentsSkip(t *testing.T) {
	const n, period = 16, 200 * time.Millisecond
	// No renewal inside the run: a renewal re-installs every entry, and
	// an install makes the next report full.
	nodes := startCluster(t, n, core.Config{SubTTL: 3 * time.Hour, SubRenewInterval: time.Hour})
	var load, idle int64
	for i, nd := range nodes {
		nd.SetAttr("load", value.Int(int64(i+1)))
		nd.SetAttr("idle", value.Int(int64(10*(i+1))))
		load += int64(i + 1)
		idle += int64(10 * (i + 1))
	}

	// stream counts one subscription's exact warm samples since want was
	// set, and keeps the first inexact one that follows an exact one.
	type stream struct {
		mu   sync.Mutex
		want int64
		warm int
		bad  string
	}
	subscribe := func(attr string, want int64) *stream {
		s := &stream{want: want}
		req, err := core.ParseRequest(fmt.Sprintf("sum(%s) every %v", attr, period))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nodes[0].SubscribeRequest(context.Background(), req, func(smp core.Sample) {
			if smp.ColdStart {
				return
			}
			v, _ := smp.Result.Agg.Value.AsInt()
			s.mu.Lock()
			defer s.mu.Unlock()
			if smp.Contributors == n && v == s.want {
				s.warm++
				return
			}
			if s.warm > 0 && s.bad == "" {
				s.bad = fmt.Sprintf("sum(%s) epoch %d: %d from %d contributors, want %d from %d",
					attr, smp.Epoch, v, smp.Contributors, s.want, n)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	written, quiet := subscribe("load", load), subscribe("idle", idle)
	waitWarm := func(s *stream, samples int) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			s.mu.Lock()
			warm, bad := s.warm, s.bad
			s.mu.Unlock()
			if bad != "" {
				t.Fatal(bad)
			}
			if warm >= samples {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d exact warm samples, want %d", warm, samples)
			}
		}
	}
	waitWarm(written, 10)
	waitWarm(quiet, 10)

	// counters snapshots the entries with children on one stream's tree,
	// by node.
	counters := func(attr string) map[int]core.SubInfo {
		out := make(map[int]core.SubInfo)
		for i, nd := range nodes {
			nd.Do(func(c *core.Node) {
				for _, si := range c.Subs() {
					if strings.HasSuffix(si.Group, attr) && si.Targets > 0 {
						out[i] = si
					}
				}
			})
		}
		return out
	}
	before := counters("idle")
	if len(before) < 2 {
		t.Fatalf("%d agents with children on the idle tree, want a root and an interior agent at least", len(before))
	}
	time.Sleep(8 * period)
	after := counters("idle")
	for i, b := range before {
		a, ok := after[i]
		switch {
		case !ok:
			t.Errorf("agent %d left the idle tree's interior while nothing was written", i)
		case a.Rebuilds != b.Rebuilds:
			t.Errorf("agent %d (%d children): %d rebuilds over eight idle epochs, want none", i, a.Targets, a.Rebuilds-b.Rebuilds)
		case a.Reuses <= b.Reuses:
			t.Errorf("agent %d (%d children): no reuse over eight idle epochs", i, a.Targets)
		}
	}

	// A write at a leaf of the written stream reaches its samples.
	leaf := -1
	for i := len(nodes) - 1; i > 0 && leaf < 0; i-- {
		nodes[i].Do(func(c *core.Node) {
			for _, si := range c.Subs() {
				if strings.HasSuffix(si.Group, "load") && !si.Root && si.Targets == 0 {
					leaf = i
				}
			}
		})
	}
	if leaf < 0 {
		t.Fatal("no leaf on the load tree")
	}
	written.mu.Lock()
	written.want += 1000
	written.warm = 0
	written.mu.Unlock()
	wrote := time.Now()
	nodes[leaf].SetAttr("load", value.Int(int64(leaf+1)+1000))
	waitWarm(written, 1)
	// One epoch per tree level plus delivery, generously: the window in
	// which a sample may still fold the value a leaf held before.
	if took := time.Since(wrote); took > 6*period {
		t.Errorf("the write at agent %d reached the samples after %v, want within %v", leaf, took, 6*period)
	}
	waitWarm(written, 3)
	waitWarm(quiet, 20)
}
