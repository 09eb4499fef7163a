package experiments

import "time"

// Figure is one table cmd/moara-bench regenerates.
type Figure struct {
	Name string // the command-line name and the -tsv file name
	Desc string
	// Run runs the driver at the paper profile, or at the scaled-down
	// quick one (CI smoke) when quick is set.
	Run func(quick bool) *Table
}

// figure declares a registry row: run with the paper parameters, or
// with the paper parameters as quick changes them.
func figure[O any](name, desc string, run func(O) *Table, paper O, quick func(*O)) Figure {
	return Figure{Name: name, Desc: desc, Run: func(q bool) *Table {
		o := paper
		if q && quick != nil {
			quick(&o)
		}
		return run(o)
	}}
}

// Figures lists every table, in the order moara-bench prints them. A
// row writes its paper parameters once, as a complete value (for an
// extension study these are the repo's chosen scale, which its Options
// comments also call "paper"), and its quick profile as the fields it
// changes. Adding a figure is one driver plus one row here.
var Figures = []Figure{
	figure("fig2a", "slice-size distribution (synthetic trace)", RunFig2a,
		Fig2aOptions{Slices: 400, MaxNodes: 450, Seed: 1}, nil),
	figure("fig2b", "utility-computing job trace (synthetic)", RunFig2b,
		Fig2bOptions{Minutes: 1400, Peak: 170, Seed: 1}, nil),
	figure("fig9", "bandwidth vs query:churn ratio", RunFig9,
		Fig9Options{N: 10000, Events: 500, Burst: 2000, Steps: 6, Seed: 1},
		func(o *Fig9Options) { o.N, o.Events, o.Burst = 1000, 100, 200 }),
	figure("fig10", "(kUPDATE,kNO-UPDATE) sensitivity", RunFig10,
		Fig10Options{N: 500, Events: 500, Burst: 100, Steps: 6, Seed: 1,
			Pairs: [][2]int{{1, 1}, {1, 3}, {2, 1}, {3, 1}, {3, 3}}},
		func(o *Fig10Options) { o.N, o.Events, o.Burst = 200, 100, 40 }),
	figure("fig11a", "SQP query cost vs system size", RunFig11a,
		Fig11aOptions{Sizes: []int{16, 64, 256, 1024, 4096, 16384}, GroupSizes: []int{8, 32, 128},
			Thresholds: []int{1, 2, 4}, Queries: 1000, Seed: 1},
		func(o *Fig11aOptions) { o.Sizes, o.Queries = []int{16, 64, 256, 1024, 4096}, 200 }),
	figure("fig11b", "SQP query/update cost vs subset size", RunFig11b,
		Fig11bOptions{N: 8192, GroupSizes: []int{8, 32, 128, 512, 2048, 8192},
			Thresholds: []int{2, 4, 16}, Queries: 1000, Seed: 1},
		func(o *Fig11bOptions) { o.N, o.GroupSizes, o.Queries = 2048, []int{8, 32, 128, 512, 2048}, 200 }),
	figure("fig12a", "static groups: Moara vs SDIMS global tree", RunFig12a,
		Fig12aOptions{N: 500, GroupSizes: []int{32, 64, 128, 256, 500}, Queries: 100, Seed: 1},
		func(o *Fig12aOptions) { o.Queries = 40 }),
	figure("fig12b", "dynamic group latency", RunFig12b,
		Fig12bOptions{N: 500, GroupSize: 100, Churns: []int{40, 80, 120, 160, 200},
			Intervals: []time.Duration{5 * time.Second, 45 * time.Second}, Queries: 100, Seed: 1},
		func(o *Fig12bOptions) { o.Queries = 40 }),
	figure("fig13a", "latency timeline under churn", RunFig13a,
		Fig13aOptions{N: 500, GroupSize: 200, Churn: 160, Interval: 5 * time.Second, Seconds: 100, Seed: 1},
		func(o *Fig13aOptions) { o.Seconds = 60 }),
	figure("fig13b", "composite query latency", RunFig13b,
		Fig13bOptions{N: 500, GroupSize: 50, MaxGroups: 10, Queries: 300, ComplexTi: 3, Seed: 1},
		func(o *Fig13bOptions) { o.Queries = 60 }),
	figure("fig14", "PlanetLab latency CDF", RunFig14,
		Fig14Options{N: 200, GroupSizes: []int{50, 100, 150, 200}, Queries: 500, Seed: 1},
		func(o *Fig14Options) { o.Queries = 100 }),
	figure("fig15", "Moara vs centralized aggregator", RunFig15,
		Fig15Options{N: 200, GroupSizes: []int{100, 150}, Queries: 100, Seed: 1},
		func(o *Fig15Options) { o.Queries = 40 }),
	figure("fig16", "bottleneck link analysis", RunFig16,
		Fig16Options{N: 200, Queries: 220, Seed: 1},
		func(o *Fig16Options) { o.Queries = 60 }),
	figure("groupby", "grouped queries: keyed in-tree merge vs one query per group", RunGroupBy,
		GroupByOptions{N: 1000, Slices: 32, Queries: 20, Seed: 1},
		func(o *GroupByOptions) { o.N, o.Slices, o.Queries = 300, 16, 10 }),
	figure("standing", "standing queries: installed epoch re-aggregation vs one-shot polling", RunStanding,
		StandingOptions{N: 1000, Slices: 32, Epochs: 20, Period: 200 * time.Millisecond, Seed: 1},
		func(o *StandingOptions) { o.N, o.Slices = 300, 16 }),
	figure("multiquery", "concurrent queries: per-destination wire coalescing vs Q", RunMultiQuery,
		MultiQueryOptions{N: 1000, Slices: 32, Qs: []int{1, 2, 4, 8}, Epochs: 24, Period: 200 * time.Millisecond, Seed: 1},
		func(o *MultiQueryOptions) { o.N, o.Slices = 300, 16 }),
	// Both profiles run the acceptance contract: 10k subscriptions over
	// 32 forms at N=2000 bill the wire within 1.25x of the 32 forms alone.
	figure("multiservice", "query service: Q>>N subsumption sharing + result caching", RunMultiService,
		MultiServiceOptions{N: 2000, Q: 10000, Forms: 32, Slices: 16, Epochs: 6, Period: 200 * time.Millisecond, Seed: 1}, nil),
	figure("churn", "membership churn: completeness, lag, and repair under kill/join/recover", RunChurn,
		ChurnOptions{N: 1000, PerEpoch: []float64{0, 0.005, 0.01, 0.02}, Epochs: 40,
			Period: 200 * time.Millisecond, RecoverFrac: 0.5, Seed: 1},
		func(o *ChurnOptions) { o.N, o.Epochs = 300, 30 }),
	figure("ablation", "composite cover selection ablation (§6.3)", RunAblationCoverSelection,
		AblationOptions{N: 500, Small: 10, Large: 400, Queries: 100, Seed: 1},
		func(o *AblationOptions) { o.N, o.Large, o.Queries = 200, 150, 40 }),
	// The quick profile is the bounded-state contract end to end, under
	// a second of cluster time.
	figure("sketches", "approximate aggregates: bounded sketch state vs exact enum", RunSketches,
		SketchesOptions{N: 2000, Cardinalities: []int{100, 1000, 10000, 100000}, Epochs: 8,
			Period: 200 * time.Millisecond, Seed: 1},
		func(o *SketchesOptions) { o.Cardinalities, o.Epochs = []int{100, 1000, 10000}, 6 }),
}
