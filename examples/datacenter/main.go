// Datacenter: the paper's Fig. 1 management queries running against a
// simulated virtualized enterprise — floors, clusters, racks, VMs,
// services, firewalls — on the Emulab-style LAN model.
//
//	go run ./examples/datacenter
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"github.com/moara/moara"
)

func main() {
	const n = 500
	c := moara.NewSimCluster(n, moara.WithLANModel(), moara.WithSeed(7))
	rng := rand.New(rand.NewSource(7))

	// Populate the virtualized enterprise: every node is a VM host.
	for i := 0; i < n; i++ {
		floor := i / 125
		clusterID := i / 25
		rack := i / 5
		c.SetAttr(i, "floor", moara.Str(fmt.Sprintf("F%d", floor)))
		c.SetAttr(i, "cluster", moara.Str(fmt.Sprintf("C%d", clusterID)))
		c.SetAttr(i, "rack", moara.Str(fmt.Sprintf("R%d", rack)))
		c.SetAttr(i, "util", moara.Float(rng.Float64()*100))
		c.SetAttr(i, "app_x_version", moara.Int(int64(1+rng.Intn(2))))
		c.SetAttr(i, "vmware", moara.Bool(rng.Intn(3) == 0))
		c.SetAttr(i, "firewall", moara.Bool(rng.Intn(10) != 0))
		c.SetAttr(i, "esx", moara.Bool(rng.Intn(4) == 0))
		c.SetAttr(i, "sygate", moara.Bool(rng.Intn(5) == 0))
		c.SetAttr(i, "service_x", moara.Bool(rng.Intn(6) == 0))
		c.SetAttr(i, "svc_x_resp_ms", moara.Float(5+rng.Float64()*200))
		c.SetAttr(i, "up", moara.Bool(rng.Intn(50) != 0))
	}

	// The Fig. 1 task table, expressed in the query language.
	queries := []struct{ task, q string }{
		{"Resource allocation", "avg(util) where floor = F1"},
		{"Resource allocation", "avg(util) where cluster = C3"},
		{"Resource allocation", "avg(util) where rack = R40"},
		{"Resource allocation", "count(*) where cluster = C7"},
		{"VM migration", "avg(util) where app_x_version = 1 or app_x_version = 2"},
		{"VM migration", "enum(rack) where app_x_version = 1 and vmware = true and rack = R2"},
		{"Auditing/Security", "count(*) where firewall = true"},
		{"Auditing/Security", "count(*) where esx = true and sygate = true"},
		{"Dashboard", "max(svc_x_resp_ms) where service_x = true"},
		{"Dashboard", "count(*) where up = true and service_x = true"},
		{"Patch management", "enum(app_x_version) where service_x = true and cluster = C0"},
		{"Patch management", "count(*) where cluster = C2 and service_x = true and app_x_version = 2"},
	}
	fmt.Printf("Fig. 1 management queries on a %d-VM simulated datacenter (LAN model):\n\n", n)
	cl, ctx := c.Client(0), context.Background()
	for _, item := range queries {
		res, err := cl.Query(ctx, item.q)
		if err != nil {
			log.Fatalf("%s: %v", item.q, err)
		}
		answer := res.Agg.String()
		if len(answer) > 44 {
			answer = answer[:41] + "..."
		}
		fmt.Printf("%-18s %-72s => %-44s (%5.1f ms)\n",
			item.task, item.q, answer,
			float64(res.Stats.TotalTime.Microseconds())/1000)
	}
}
