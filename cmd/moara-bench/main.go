// Command moara-bench regenerates every table and figure of the paper's
// evaluation (§7), plus the repo's own extension studies. Each
// subcommand runs one experiment at paper-scale parameters (or a faster
// scaled profile) and prints the series the figure plots; -tsv
// additionally writes machine-readable per-figure tables. Performance
// measurement and regression gating live in bench/ (see BENCHMARK.json).
//
// Usage:
//
//	moara-bench [-profile paper|quick] [-tsv DIR] \
//	            [-cpuprofile FILE] [-memprofile FILE] [-trace FILE] \
//	            fig9 fig10 ... | all
//
// Profiles: "paper" reproduces the paper's parameters, "quick" keeps
// each figure under ~1s for CI smoke.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"github.com/moara/moara/internal/experiments"
)

type runner func(profile string) *experiments.Table

var figures = []struct {
	name string
	desc string
	run  runner
}{
	{"fig2a", "slice-size distribution (synthetic trace)", func(p string) *experiments.Table {
		return experiments.RunFig2a(experiments.Fig2aOptions{})
	}},
	{"fig2b", "utility-computing job trace (synthetic)", func(p string) *experiments.Table {
		return experiments.RunFig2b(experiments.Fig2bOptions{})
	}},
	{"fig9", "bandwidth vs query:churn ratio", func(p string) *experiments.Table {
		o := experiments.Fig9Options{}
		if p != "paper" {
			o = experiments.Fig9Options{N: 1000, Events: 100, Burst: 200}
		}
		return experiments.RunFig9(o)
	}},
	{"fig10", "(kUPDATE,kNO-UPDATE) sensitivity", func(p string) *experiments.Table {
		o := experiments.Fig10Options{}
		if p != "paper" {
			o = experiments.Fig10Options{N: 200, Events: 100, Burst: 40}
		}
		return experiments.RunFig10(o)
	}},
	{"fig11a", "SQP query cost vs system size", func(p string) *experiments.Table {
		o := experiments.Fig11aOptions{}
		if p != "paper" {
			o = experiments.Fig11aOptions{
				Sizes:   []int{16, 64, 256, 1024, 4096},
				Queries: 200,
			}
		}
		return experiments.RunFig11a(o)
	}},
	{"fig11b", "SQP query/update cost vs subset size", func(p string) *experiments.Table {
		o := experiments.Fig11bOptions{}
		if p != "paper" {
			o = experiments.Fig11bOptions{N: 2048, GroupSizes: []int{8, 32, 128, 512, 2048}, Queries: 200}
		}
		return experiments.RunFig11b(o)
	}},
	{"fig12a", "static groups: Moara vs SDIMS global tree", func(p string) *experiments.Table {
		o := experiments.Fig12aOptions{}
		if p != "paper" {
			o = experiments.Fig12aOptions{N: 500, Queries: 40}
		}
		return experiments.RunFig12a(o)
	}},
	{"fig12b", "dynamic group latency", func(p string) *experiments.Table {
		o := experiments.Fig12bOptions{}
		if p != "paper" {
			o = experiments.Fig12bOptions{N: 500, Queries: 40}
		}
		return experiments.RunFig12b(o)
	}},
	{"fig13a", "latency timeline under churn", func(p string) *experiments.Table {
		o := experiments.Fig13aOptions{}
		if p != "paper" {
			o = experiments.Fig13aOptions{Seconds: 60}
		}
		return experiments.RunFig13a(o)
	}},
	{"fig13b", "composite query latency", func(p string) *experiments.Table {
		o := experiments.Fig13bOptions{}
		if p != "paper" {
			o = experiments.Fig13bOptions{Queries: 60}
		}
		return experiments.RunFig13b(o)
	}},
	{"fig14", "PlanetLab latency CDF", func(p string) *experiments.Table {
		o := experiments.Fig14Options{}
		if p != "paper" {
			o = experiments.Fig14Options{Queries: 100}
		}
		return experiments.RunFig14(o)
	}},
	{"fig15", "Moara vs centralized aggregator", func(p string) *experiments.Table {
		o := experiments.Fig15Options{}
		if p != "paper" {
			o = experiments.Fig15Options{Queries: 40}
		}
		return experiments.RunFig15(o)
	}},
	{"fig16", "bottleneck link analysis", func(p string) *experiments.Table {
		o := experiments.Fig16Options{}
		if p != "paper" {
			o = experiments.Fig16Options{Queries: 60}
		}
		return experiments.RunFig16(o)
	}},
	{"groupby", "grouped queries: keyed in-tree merge vs one query per group", func(p string) *experiments.Table {
		o := experiments.GroupByOptions{}
		if p != "paper" {
			o = experiments.GroupByOptions{N: 300, Slices: 16, Queries: 10}
		}
		return experiments.RunGroupBy(o)
	}},
	{"standing", "standing queries: installed epoch re-aggregation vs one-shot polling", func(p string) *experiments.Table {
		o := experiments.StandingOptions{}
		if p != "paper" {
			o = experiments.StandingOptions{N: 300, Slices: 16, Epochs: 20}
		}
		return experiments.RunStanding(o)
	}},
	{"multiquery", "concurrent queries: per-destination wire coalescing vs Q", func(p string) *experiments.Table {
		o := experiments.MultiQueryOptions{}
		if p != "paper" {
			o = experiments.MultiQueryOptions{N: 300, Slices: 16, Epochs: 24}
		}
		return experiments.RunMultiQuery(o)
	}},
	{"multiservice", "query service: Q>>N subsumption sharing + result caching", func(p string) *experiments.Table {
		o := experiments.MultiServiceOptions{}
		if p == "quick" {
			// The acceptance contract: 10k subscriptions over 32 forms at
			// N=2000 bill the wire within 1.25x of the 32 forms alone.
			o = experiments.MultiServiceOptions{N: 2000, Q: 10000, Forms: 32, Slices: 16, Epochs: 6}
		}
		return experiments.RunMultiService(o)
	}},
	{"churn", "membership churn: completeness, lag, and repair under kill/join/recover", func(p string) *experiments.Table {
		o := experiments.ChurnOptions{}
		if p != "paper" {
			o = experiments.ChurnOptions{N: 300, Epochs: 30}
		}
		return experiments.RunChurn(o)
	}},
	{"ablation", "composite cover selection ablation (§6.3)", func(p string) *experiments.Table {
		o := experiments.AblationOptions{}
		if p != "paper" {
			o = experiments.AblationOptions{N: 200, Large: 150, Queries: 40}
		}
		return experiments.RunAblationCoverSelection(o)
	}},
	{"sketches", "approximate aggregates: bounded sketch state vs exact enum", func(p string) *experiments.Table {
		o := experiments.SketchesOptions{}
		if p == "quick" {
			// CI smoke: the bounded-state contract end to end, under a
			// second of cluster time.
			o = experiments.SketchesOptions{N: 2000, Cardinalities: []int{100, 1000, 10000}, Epochs: 6}
		}
		return experiments.RunSketches(o)
	}},
}

func main() {
	profile := flag.String("profile", "paper", "parameter profile: paper or quick")
	tsvDir := flag.String("tsv", "", "directory to write per-figure TSV files")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments")
	memprofile := flag.String("memprofile", "", "write a pprof allocation profile after the run")
	traceFile := flag.String("trace", "", "write a runtime execution trace of the run")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	switch *profile {
	case "paper", "quick":
	default:
		fmt.Fprintf(os.Stderr, "unknown profile %q\n", *profile)
		usage()
		os.Exit(2)
	}

	selected := map[string]bool{}
	for _, a := range args {
		if a == "all" {
			for _, f := range figures {
				selected[f.name] = true
			}
			continue
		}
		found := false
		for _, f := range figures {
			if f.name == a {
				selected[a] = true
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", a)
			usage()
			os.Exit(2)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		defer trace.Stop()
	}

	for _, f := range figures {
		if !selected[f.name] {
			continue
		}
		start := time.Now()
		tab := f.run(*profile)
		wall := time.Since(start)
		tab.Note += fmt.Sprintf(" [profile=%s, wall=%s]", *profile, wall.Round(time.Millisecond))
		tab.Fprint(os.Stdout)
		if *tsvDir != "" {
			if err := writeTSV(*tsvDir, f.name, tab); err != nil {
				fmt.Fprintf(os.Stderr, "write tsv: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *memprofile != "" {
		runtime.GC()
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		}
		f.Close()
	}
}

func writeTSV(dir, name string, tab *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".tsv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tab.WriteTSV(f)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: moara-bench [flags] <figure>...|all

flags:
  -profile paper|quick   parameter profile (default paper)
  -tsv DIR               write per-figure TSV files
  -cpuprofile FILE       write pprof CPU profile (feed to go tool pprof)
  -memprofile FILE       write pprof allocation profile
  -trace FILE            write runtime execution trace

figures:
`)
	for _, f := range figures {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", f.name, f.desc)
	}
}
