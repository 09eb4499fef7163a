// Quickstart: boot a 64-node simulated Moara deployment, populate
// monitoring attributes, and run basic, group, and composite queries.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/moara/moara"
)

func main() {
	// A 64-node cluster on the simulated network (virtual time, so it
	// boots instantly and latencies below are simulated latencies).
	c := moara.NewSimCluster(64)

	// Each node runs an agent that publishes (attribute, value) pairs.
	for i := 0; i < c.Size(); i++ {
		c.SetAttr(i, "cpu_util", moara.Float(float64((i*37)%100)))
		c.SetAttr(i, "mem_free_mb", moara.Int(int64(512+(i*131)%7680)))
		c.SetAttr(i, "apache", moara.Bool(i%2 == 0))
		c.SetAttr(i, "service_x", moara.Bool(i%4 == 0))
	}

	queries := []string{
		// Global aggregation (no group predicate).
		"avg(cpu_util)",
		// Simple group query: one group tree, pruned adaptively.
		"count(*) where apache = true",
		// Intersection: the optimizer probes both groups and queries
		// only the cheaper one.
		"max(cpu_util) where service_x = true and apache = true",
		// Union with a numeric range.
		"sum(mem_free_mb) where service_x = true or cpu_util < 10",
		// Top-k over a group.
		"top3(cpu_util) where apache = true",
	}
	// Node 0's view of the cluster: the same Client interface a TCP
	// agent and the query service implement.
	cl, ctx := c.Client(0), context.Background()
	for _, q := range queries {
		res, err := cl.Query(ctx, q)
		if err != nil {
			log.Fatalf("%s: %v", q, err)
		}
		fmt.Printf("%-58s => %s", q, res.Agg)
		fmt.Printf("   [%d contributors, %.1fms, cover %v]\n",
			res.Contributors,
			float64(res.Stats.TotalTime.Microseconds())/1000,
			res.Stats.Chosen)
	}

	// Repeat a group query: the tree has pruned, so the message cost
	// drops far below a broadcast.
	c.ResetMessageCounter()
	if _, err := cl.Query(ctx, "count(*) where service_x = true"); err != nil {
		log.Fatal(err)
	}
	first := c.Messages()
	c.ResetMessageCounter()
	if _, err := cl.Query(ctx, "count(*) where service_x = true"); err != nil {
		log.Fatal(err)
	}
	second := c.Messages()
	fmt.Printf("\ngroup-tree adaptation: first query %d msgs, warmed query %d msgs (broadcast would be ~%d)\n",
		first, second, 2*c.Size())
}
