// Command bench is the repository's benchmark: four workloads, nine
// end-to-end metrics each with its own regression bound, per-layer
// microbenchmarks and a traced run. See README.md in this directory.
//
//	bench -workload <name> -seed <n> [-seconds <s>] [-trace 0|1]
//	bench -aa <k>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

var workloadNames = []string{"tcp-oneshot", "tcp-standing", "sim-groupchurn", "sim-scale"}

// workloadWhy is each workload's one-line reason for existing, as
// BENCHMARK.json records it.
var workloadWhy = map[string]string{
	"tcp-oneshot":    "one-shot queries through service, agent and real loopback sockets, both cores busy: transport, codec and core plan/disseminate/merge do the work, simnet none",
	"tcp-standing":   "standing queries over sockets at a fixed offered rate beside attribute writes: epoch tick/report/merge, columnar codec, batching and service fan-out; cost shows as CPU per sample",
	"sim-groupchurn": "the paper's regime (N=2000, Emulab model): scalar, grouped and composite one-shots with membership churn; core adaptation, predicate, pastry and the classic event heap; no sockets",
	"sim-scale":      "N=10000 standing queries on the sharded simulator with attribute rewrites: the 400 MB working set where per-message cost grows; simnet shards, aggregate and sketch merge dominate",
}

// metricDef describes one end-to-end metric. BENCHMARK.json carries one
// bound per metric, which has to hold on the noisiest workload; bounds
// holds the tighter bounds some workloads support, which `bench -aa`
// applies to the gap between its two sets and the printed table shows.
type metricDef struct {
	name, unit, better string
	bound              float64
	bounds             map[string]float64
}

func (m metricDef) boundOn(workload string) float64 {
	if b, ok := m.bounds[workload]; ok {
		return b
	}
	return m.bound
}

// exactOnSim marks metrics that repeat exactly for a seed on the
// simulator; tcp-standing's throughput is its offered rate.
var exactOnSim = map[string]float64{"sim-groupchurn": 0.01, "sim-scale": 0.01}

// The bounds are what this class of box supports, not what one would
// like: AA.md shows wall- and CPU-derived medians of two sets of ten
// runs within a few percent of each other while single runs can still
// spread by 10% and more, because the box slows large-footprint work by
// up to a third for minutes at a time and the probes recover only part
// of that.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25, bounds: exactOnSim},
	{name: "op_p90_ms", unit: "ms", better: "lower", bound: 0.25, bounds: exactOnSim},
	{name: "throughput", unit: "1/s", better: "higher", bound: 0.25,
		bounds: map[string]float64{"tcp-standing": 0.02}},
	{name: "cpu_us_per_unit", unit: "us", better: "lower", bound: 0.25},
	{name: "msg_cost", unit: "count", better: "lower", bound: 0.05, bounds: exactOnSim},
	{name: "allocs_per_unit", unit: "count", better: "lower", bound: 0.05,
		bounds: map[string]float64{"sim-groupchurn": 0.03, "sim-scale": 0.03}},
	{name: "coverage", unit: "ratio", better: "higher", bound: 0.01},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// diagLine is printed before the result line, prefixed "diag ", for
// `bench -aa` and for people: the environment stamp, the un-normalised
// values and the per-block probes. Nothing in it is gated.
type diagLine struct {
	Env    map[string]any     `json:"env"`
	Raw    map[string]float64 `json:"raw"`
	Probes []probeReading     `json:"probes"`
	Blocks []blockDiag        `json:"blocks"`
	Setups []float64          `json:"setups_s"`
}

// blockDiag is one block as measured, before any normalisation.
type blockDiag struct {
	Wall  float64 `json:"wall_s"`
	CPU   float64 `json:"cpu_s"`
	Units float64 `json:"units"`
	Wake  float64 `json:"wake_ns,omitempty"`
}

func main() {
	var p params
	var trace, aa int
	flag.StringVar(&p.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&p.seed, "seed", 1, "seed for the generated inputs")
	flag.IntVar(&p.seconds, "seconds", refSeconds, "length of the measured phase the fixed work is sized for")
	flag.IntVar(&trace, "trace", 0, "1 runs the per-layer microbenchmarks and the traced run instead")
	flag.IntVar(&aa, "aa", 0, "run every workload k times as two interleaved sets and compare them")
	describe := flag.Bool("describe", false, "print BENCHMARK.json as this program defines it")
	flag.Parse()
	if *describe {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	p.trace = trace != 0
	if p.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if aa > 0 {
		os.Exit(runAA(aa, p.seed, p.seconds))
	}
	if p.workload == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := runOne(p); err != nil {
		fatal(err)
	}
}

// benchmarkJSON renders the pipeline's description of this benchmark
// from the tables above, so that the file and the program cannot drift.
func benchmarkJSON() []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: refSeconds}
	for _, w := range workloadNames {
		doc.Workloads = append(doc.Workloads, named{w, workloadWhy[w]})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers
	}
	return append(out, '\n')
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// spanFile is where a traced run writes its spans: beside the binary,
// in the build directory the launcher made inside the checkout.
func spanFile(p params) string {
	dir := "."
	if exe, err := os.Executable(); err == nil {
		dir = filepath.Dir(exe)
	}
	return filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", p.workload, p.seed))
}

func runOne(p params) error {
	w, err := newWorkload(p)
	if err != nil {
		return err
	}
	pinned, unpin := -1, func() {}
	if w.spec().timerBound {
		if pinned, unpin, err = pinToOneCPU(); err != nil {
			return err
		}
	}
	pr := newProber()
	res, err := run(w, p, pr)
	env := envStamp(p)         // while still pinned: it stamps GOMAXPROCS
	env["pinned_cpu"] = pinned // -1: not pinned, every allowed CPU is used
	unpin()                    // the per-layer microbenchmarks of a traced run are not pinned
	if err != nil {
		return err
	}
	for k, v := range res.env {
		env[k] = v
	}
	env["disturbed_blocks"] = res.sum.disturbed
	env["p90_supported"] = res.sum.p90Supported
	env["incomplete_samples"] = res.incomplete
	if res.firstErr != nil {
		env["first_error"] = res.firstErr.Error()
	}

	out := resultLine{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	out.Correct = float64(res.failed) <= w.spec().failTolerance*float64(res.attempted) && res.sum.p90Supported
	diag := diagLine{Env: env, Raw: res.sum.raw, Setups: res.setups}
	for _, b := range res.blocks {
		diag.Probes = append(diag.Probes, b.Before)
		diag.Blocks = append(diag.Blocks, blockDiag{b.Wall, b.CPU, b.Units, b.Wake})
	}
	diag.Probes = append(diag.Probes, res.blocks[len(res.blocks)-1].After)

	if p.trace {
		layers := runLayers(pr, p.seed)
		for name, v := range res.perLayer {
			layers[name] = v
		}
		fmt.Printf("per-layer metrics, workload %s, seed %d (spans in %s)\n", p.workload, p.seed, spanFile(p))
		for _, def := range perLayer {
			v := layers[def.name] // a trace.* metric of another workload kind reads 0
			out.Metrics[def.name] = metricValue{v, def.unit}
			fmt.Printf("  %-40s %14.4f %s\n", def.name, v, def.unit)
		}
	} else {
		vals := res.sum.norm
		vals["setup_s"] = median(res.setups)
		diag.Raw["setup_s"] = median(res.setupsRaw)
		vals["peak_rss_mb"], diag.Raw["peak_rss_mb"] = res.peakRSSMB, res.peakRSSMB
		fmt.Printf("end-to-end metrics, workload %s, seed %d\n", p.workload, p.seed)
		fmt.Printf("  %-18s %14s %-6s %-7s %s\n", "metric", "value", "unit", "better", "bound")
		for _, def := range endToEnd {
			v := vals[def.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("metric %s is %v", def.name, v)
			}
			out.Metrics[def.name] = metricValue{v, def.unit}
			fmt.Printf("  %-18s %14.4f %-6s %-7s %.0f%%\n", def.name, v, def.unit, def.better, 100*def.boundOn(p.workload))
		}
	}
	fmt.Printf("attempted %d, failed %d\n", out.Attempted, out.Failed)
	dj, err := json.Marshal(diag)
	if err != nil {
		return err
	}
	fmt.Printf("diag %s\n", dj)
	rj, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", rj)
	return nil
}

// envStamp describes where and on what the run happened.
func envStamp(p params) map[string]any {
	env := map[string]any{
		"go":           runtime.Version(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"seed":         p.seed,
		"seconds":      p.seconds,
		"probe_ref_ns": probeRefNS,
		"wake_ref_ns":  wakeProbeRefNS,
		"kernel":       "unknown",
		"commit":       "unknown",
		"dirty":        "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(b))
	}
	// The real HEAD and whether the tree differs from it; a checkout
	// that is not a git repository keeps "unknown".
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			env["dirty"] = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return env
}
