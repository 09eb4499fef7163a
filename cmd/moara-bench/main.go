// Command moara-bench regenerates every table and figure of the paper's
// evaluation (§7), plus the repo's own extension studies. Each
// subcommand runs one experiment at paper-scale parameters (or a faster
// scaled profile) and prints the series the figure plots; -tsv
// additionally writes machine-readable per-figure tables. Performance
// measurement and regression gating live in bench/ (see BENCHMARK.json).
//
// The figures and their paper and quick parameters are
// experiments.Figures.
//
// Usage:
//
//	moara-bench [-profile paper|quick] [-tsv DIR] \
//	            [-cpuprofile FILE] [-memprofile FILE] [-trace FILE] \
//	            fig9 fig10 ... | all
//
// Profiles: "paper" reproduces the paper's parameters, "quick" scales
// them down for CI smoke (all figures in about a minute, most of it
// churn's).
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
		found := false
		for _, f := range experiments.Figures {
			if a == "all" || f.Name == a {
				selected[f.Name] = true
				found = true
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

	for _, f := range experiments.Figures {
		if !selected[f.Name] {
			continue
		}
		start := time.Now()
		tab := f.Run(*profile == "quick")
		wall := time.Since(start)
		tab.Note += fmt.Sprintf(" [profile=%s, wall=%s]", *profile, wall.Round(time.Millisecond))
		tab.Fprint(os.Stdout)
		if *tsvDir != "" {
			if err := writeTSV(*tsvDir, f.Name, tab); err != nil {
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
	for _, f := range experiments.Figures {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", f.Name, f.Desc)
	}
}
