package moara

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// TestStandingSeedReproducible pins "a standing query's answer is a
// function of the seed": two clusters booted from one seed deliver the
// same samples — timestamps, coverage and the aggregate's every digit —
// and spend the same messages. The float sum behind avg and the quantile
// sketch behind p99 are order-sensitive, so this holds only while every
// merge (child reports at each tree node, per-tree samples at the
// front-end) and every per-tree install runs in an order the seed fixes.
func TestStandingSeedReproducible(t *testing.T) {
	models := []struct {
		name string
		opts []Option
	}{
		{"lan", []Option{WithLANModel()}},
		{"lan-4-shards", []Option{WithLANModel(), WithShards(4)}},
	}
	queries := []string{
		"avg(load) every 1s",
		"avg(load) where a = true every 1s",
		"p99(load) every 1s",
		"avg(load) where a = true or b = true or d = true every 1s",
		"count(*) where a = true or b = true or d = true every 1s",
	}
	run := func(opts []Option, query string) string {
		c := NewSimCluster(200, append([]Option{WithSeed(7)}, opts...)...)
		for i := 0; i < c.Size(); i++ {
			c.SetAttr(i, "load", Float(100*math.Sqrt(float64(i+1))/3))
			c.SetAttr(i, "a", Bool(i%2 == 0))
			c.SetAttr(i, "b", Bool(i%3 == 0))
			c.SetAttr(i, "d", Bool(i%5 == 0))
		}
		var b strings.Builder
		sub, err := c.Client(0).Subscribe(context.Background(), query, func(s Sample) {
			fmt.Fprintf(&b, "%v %v %v %v %v\n", s.Epoch, s.At, s.Contributors, s.Lag, s.Result.Agg.Value)
		})
		if err != nil {
			t.Fatal(err)
		}
		c.RunFor(12 * time.Second)
		if err := sub.Unsubscribe(); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "messages %d wire %d\n", c.Messages(), c.WireMessages())
		return b.String()
	}
	for _, m := range models {
		for _, q := range queries {
			t.Run(m.name+"/"+q, func(t *testing.T) {
				first, second := run(m.opts, q), run(m.opts, q)
				if strings.Count(first, "\n") < 8 {
					t.Fatalf("only %d samples in 12 s:\n%s", strings.Count(first, "\n")-1, first)
				}
				if first != second {
					t.Fatalf("same seed, different transcript:\n--- first\n%s--- second\n%s", first, second)
				}
			})
		}
	}
}
