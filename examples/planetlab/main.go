// PlanetLab: slice monitoring over a simulated wide-area federation —
// the paper's §2 federated-infrastructure scenario. 200 nodes with
// heavy-tailed WAN latencies host slices whose sizes follow the
// Fig. 2(a) distribution; we run per-slice and cross-slice queries and
// report wide-area latencies.
//
//	go run ./examples/planetlab
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"github.com/moara/moara"
)

func main() {
	const n = 200
	const nSlices = 12
	c := moara.NewSimCluster(n, moara.WithWANModel(), moara.WithSeed(11))
	rng := rand.New(rand.NewSource(11))

	// Assign nodes to slices with a skewed distribution (most slices
	// are small — the paper's Fig. 2(a) observation).
	sliceSize := []int{120, 70, 40, 25, 15, 10, 8, 6, 5, 4, 3, 2}
	assigned := make([][]bool, nSlices)
	for s := range assigned {
		assigned[s] = make([]bool, n)
		for _, i := range rng.Perm(n)[:sliceSize[s]] {
			assigned[s][i] = true
		}
	}
	for i := 0; i < n; i++ {
		for s := 0; s < nSlices; s++ {
			c.SetAttr(i, fmt.Sprintf("slice_%d", s), moara.Bool(assigned[s][i]))
		}
		c.SetAttr(i, "cpu_util", moara.Float(rng.Float64()*100))
		c.SetAttr(i, "free_disk_gb", moara.Int(int64(rng.Intn(500))))
		c.SetAttr(i, "org", moara.Str([]string{"uiuc", "hp", "mit", "epfl"}[rng.Intn(4)]))
	}

	cl, ctx := c.Client(0), context.Background()
	run := func(q string) {
		res, err := cl.Query(ctx, q)
		if err != nil {
			log.Fatalf("%s: %v", q, err)
		}
		fmt.Printf("%-76s => %-18s (%7.0f ms, %d nodes)\n",
			q, res.Agg,
			float64(res.Stats.TotalTime.Microseconds())/1000,
			res.Contributors)
	}

	fmt.Printf("Slice monitoring on a %d-node simulated wide-area federation:\n\n", n)

	// Basic per-slice queries (the CoMon/Ganglia use case, §2).
	run("count(*) where slice_1 = true")
	run("avg(cpu_util) where slice_1 = true")
	run("top3(cpu_util) where slice_0 = true")

	// Intersection: nodes common to two slices — the optimizer probes
	// both trees and queries the cheaper (smaller) one.
	run("count(*) where slice_0 = true and slice_4 = true")

	// Union: free disk across a set of small slices.
	run("sum(free_disk_gb) where slice_8 = true or slice_9 = true or slice_10 = true")

	// Hot-node hunting: slices with overloaded machines.
	run("count(*) where slice_0 = true and cpu_util > 90")

	// Repeated monitoring of a small slice stays cheap: after the
	// first (broadcast) query the group tree prunes to O(slice size).
	run("count(*) where slice_9 = true") // cold: builds the tree
	c.ResetMessageCounter()
	run("count(*) where slice_9 = true") // warmed
	fmt.Printf("\nwarmed 4-node slice query cost: %d messages (global broadcast would be ~%d)\n",
		c.Messages(), 2*n)
}
