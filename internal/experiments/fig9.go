package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/workload"
)

// Fig9Options parameterize the dynamic-maintenance bandwidth experiment
// (Fig. 9): N nodes, Events total query/churn events at each ratio,
// churn bursts toggling Burst random nodes' attribute A.
type Fig9Options struct {
	N      int // paper: 10,000
	Events int // paper: 500
	Burst  int // paper: 2,000
	Steps  int // ratio steps including the endpoints (paper: 6)
	Seed   int64
}

var fig9Systems = []struct {
	label string
	mode  core.Mode
}{
	{"Global", core.ModeGlobal},
	{"Always-Update", core.ModeAlwaysUpdate},
	{"Moara", core.ModeAdaptive},
}

// RunFig9 reproduces Fig. 9: average Moara-layer messages per node at
// query:churn ratios from 0:Events to Events:0, for the Global,
// Always-Update and adaptive Moara systems.
func RunFig9(opt Fig9Options) *Table {
	t := &Table{
		Title: "Fig. 9: bandwidth vs query:churn ratio",
		Note: fmt.Sprintf("N=%d, burst=%d, events=%d; avg messages per node",
			opt.N, opt.Burst, opt.Events),
		Columns: []string{"ratio(q:c)"},
	}
	for _, sys := range fig9Systems {
		t.Columns = append(t.Columns, sys.label)
	}
	for step := 0; step < opt.Steps; step++ {
		queries := opt.Events * step / (opt.Steps - 1)
		churns := opt.Events - queries
		row := []string{fmt.Sprintf("%d:%d", queries, churns)}
		for _, sys := range fig9Systems {
			perNode := runQueryChurnWorkload(workloadParams{
				n: opt.N, burst: opt.Burst, queries: queries, churns: churns,
				mode: sys.mode, seed: opt.Seed,
				kUpdate: 1, kNoUpdate: 3,
			})
			row = append(row, f1(perNode))
		}
		t.AddRow(row...)
	}
	return t
}

type workloadParams struct {
	n, burst, queries, churns int
	mode                      core.Mode
	seed                      int64
	kUpdate, kNoUpdate        int
}

// runQueryChurnWorkload runs one Fig. 9/10 cell and returns messages
// per node.
func runQueryChurnWorkload(p workloadParams) float64 {
	cfg := core.Config{
		Mode:      p.mode,
		KUpdate:   p.kUpdate,
		KNoUpdate: p.kNoUpdate,
	}
	c := cluster.New(cluster.Options{N: p.n, Seed: p.seed, Node: cfg})
	rng := rand.New(rand.NewSource(p.seed + 7))
	vals := make([]bool, p.n)
	for i, n := range c.Nodes {
		vals[i] = rng.Intn(2) == 0
		n.Store().SetBool("A", vals[i])
	}
	// Warm-up: one query so trees exist and parents are known in every
	// system, then measure only the scheduled events (paper §7.1).
	if err := c.Warm(groupReq); err != nil {
		panic(err)
	}
	schedule := workload.Schedule(rng, p.queries, p.churns)
	for _, ev := range schedule {
		switch ev {
		case workload.EventQuery:
			poll(c, 1, 0, nil, groupReq)
		case workload.EventChurn:
			for _, i := range workload.ToggleBatch(rng, p.n, p.burst) {
				vals[i] = !vals[i]
				c.Nodes[i].Store().SetBool("A", vals[i])
			}
			// Let status cascades settle before the next event.
			c.RunFor(100 * time.Millisecond)
		}
	}
	c.RunFor(2 * time.Second)
	return c.MessagesPerNode()
}
