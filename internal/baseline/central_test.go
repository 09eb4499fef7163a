package baseline

import (
	"testing"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/ids"
)

func TestCentralQueryAllNodes(t *testing.T) {
	c := cluster.New(cluster.Options{N: 40, Seed: 3})
	for i, nd := range c.Nodes {
		AttachResponder(nd)
		nd.Store().SetInt("v", int64(i))
	}
	coordID := ids.FromKey("coordinator")
	env := c.Net.AddNode(coordID)
	coord := NewCentral(env, c.IDs)
	env.BindHandler(coord)

	var got CentralResult
	done := false
	coord.Query("v", aggregate.Spec{Kind: aggregate.KindSum}, "", func(r CentralResult) {
		got, done = r, true
	})
	c.Net.RunWhile(func() bool { return !done })
	if !done {
		t.Fatal("query did not complete")
	}
	want := int64(39 * 40 / 2)
	if v, _ := got.Agg.Value.AsInt(); v != want {
		t.Fatalf("sum = %d, want %d", v, want)
	}
	if got.Contributors != 40 || len(got.Replies) != 40 {
		t.Fatalf("contributors=%d replies=%d", got.Contributors, len(got.Replies))
	}
	if got.Latency <= 0 {
		t.Fatal("latency not measured")
	}
}

func TestCentralPredicateFiltering(t *testing.T) {
	c := cluster.New(cluster.Options{N: 30, Seed: 5})
	for i, nd := range c.Nodes {
		AttachResponder(nd)
		nd.Store().SetBool("g", i%3 == 0)
	}
	coordID := ids.FromKey("coordinator")
	env := c.Net.AddNode(coordID)
	coord := NewCentral(env, c.IDs)
	env.BindHandler(coord)

	done := false
	var got CentralResult
	coord.Query("*", aggregate.Spec{Kind: aggregate.KindCount}, "g = true", func(r CentralResult) {
		got, done = r, true
	})
	c.Net.RunWhile(func() bool { return !done })
	if v, _ := got.Agg.Value.AsInt(); v != 10 {
		t.Fatalf("count = %d, want 10", v)
	}
	// Every node replies, satisfying or not (the paper's completion
	// rule: wait for all).
	if len(got.Replies) != 30 {
		t.Fatalf("replies = %d, want 30", len(got.Replies))
	}
}

func TestCentralRepliesCarryArrivalTimes(t *testing.T) {
	c := cluster.New(cluster.Options{N: 10, Seed: 7})
	for _, nd := range c.Nodes {
		AttachResponder(nd)
		nd.Store().SetInt("v", 1)
	}
	env := c.Net.AddNode(ids.FromKey("coordinator"))
	coord := NewCentral(env, c.IDs)
	env.BindHandler(coord)
	done := false
	coord.Query("v", aggregate.Spec{Kind: aggregate.KindSum}, "", func(r CentralResult) {
		for _, at := range r.Replies {
			if at <= 0 || at > time.Second {
				t.Errorf("reply arrival out of range: %v", at)
			}
		}
		done = true
	})
	c.Net.RunWhile(func() bool { return !done })
	if !done {
		t.Fatal("query did not complete")
	}
}

func TestCentralConcurrentQueries(t *testing.T) {
	c := cluster.New(cluster.Options{N: 12, Seed: 9})
	for i, nd := range c.Nodes {
		AttachResponder(nd)
		nd.Store().SetInt("v", int64(i))
	}
	env := c.Net.AddNode(ids.FromKey("coordinator"))
	coord := NewCentral(env, c.IDs)
	env.BindHandler(coord)
	finished := 0
	for q := 0; q < 3; q++ {
		coord.Query("v", aggregate.Spec{Kind: aggregate.KindMax}, "", func(r CentralResult) {
			if v, _ := r.Agg.Value.AsInt(); v != 11 {
				t.Errorf("max = %d", v)
			}
			finished++
		})
	}
	c.Net.Run(0)
	if finished != 3 {
		t.Fatalf("finished = %d", finished)
	}
}
