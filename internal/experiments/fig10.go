package experiments

import (
	"fmt"

	"github.com/moara/moara/internal/core"
)

// Fig10Options parameterize the adaptation-knob sensitivity experiment.
type Fig10Options struct {
	N      int // paper: 500
	Events int // paper: 500
	Burst  int // paper: 100, 20% of N
	Steps  int // ratio steps including the endpoints (paper: 6)
	Seed   int64
	// Pairs are the (kUPDATE, kNO-UPDATE) window settings to compare
	// (paper Fig. 10 shows a representative subset).
	Pairs [][2]int
}

// RunFig10 reproduces Fig. 10: bandwidth across query:churn ratios for
// different (kUPDATE, kNO-UPDATE) adaptation windows.
func RunFig10(opt Fig10Options) *Table {
	t := &Table{
		Title: "Fig. 10: sensitivity to (kUPDATE, kNO-UPDATE)",
		Note: fmt.Sprintf("N=%d, burst=%d, events=%d; avg messages per node",
			opt.N, opt.Burst, opt.Events),
		Columns: []string{"ratio(q:c)"},
	}
	for _, p := range opt.Pairs {
		t.Columns = append(t.Columns, fmt.Sprintf("(%d,%d)", p[0], p[1]))
	}
	for step := 0; step < opt.Steps; step++ {
		queries := opt.Events * step / (opt.Steps - 1)
		churns := opt.Events - queries
		row := []string{fmt.Sprintf("%d:%d", queries, churns)}
		for _, p := range opt.Pairs {
			perNode := runQueryChurnWorkload(workloadParams{
				n: opt.N, burst: opt.Burst, queries: queries, churns: churns,
				mode: core.ModeAdaptive, seed: opt.Seed,
				kUpdate: p[0], kNoUpdate: p[1],
			})
			row = append(row, f1(perNode))
		}
		t.AddRow(row...)
	}
	return t
}
