package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// `bench -aa k` answers the question a benchmark has to answer before
// anyone trusts a difference it shows: do two sets of runs of the same
// code agree? It runs every workload k times for set A and k times for
// set B, interleaved (A B, then B A, ...) so that slow drift of the box
// lands on both, with seeds base..base+k-1 in each set, and compares the
// two medians of every metric with the metric's bound. The same
// comparison is shown for the un-normalised values, which is the record
// of what the two probes buy on each workload.

type aaRun struct {
	norm, raw map[string]float64
}

// runChild runs one workload in a child process, so that peak RSS and GC
// state are per run, and parses its diag and result lines.
func runChild(workload string, seed int64, seconds int) (aaRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return aaRun{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return aaRun{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return aaRun{}, fmt.Errorf("%s seed %d: short output", workload, seed)
	}
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return aaRun{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	var diag diagLine
	dl, ok := bytes.CutPrefix(lines[len(lines)-2], []byte("diag "))
	if !ok {
		return aaRun{}, fmt.Errorf("%s seed %d: no diag line", workload, seed)
	}
	if err := json.Unmarshal(dl, &diag); err != nil {
		return aaRun{}, fmt.Errorf("%s seed %d: diag line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "aa: %s seed %d: %d of %d failed (%v)\n", workload, seed, res.Failed, res.Attempted, diag.Env["first_error"])
	}
	if !res.Correct {
		return aaRun{}, fmt.Errorf("%s seed %d: incorrect run: %d of %d failed (%v)",
			workload, seed, res.Failed, res.Attempted, diag.Env["first_error"])
	}
	r := aaRun{norm: map[string]float64{}, raw: diag.Raw}
	for name, mv := range res.Metrics {
		r.norm[name] = mv.Value
	}
	return r, nil
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) does (exclusive method), which
// is what the pipeline uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// worse is how much worse b is than a, as a share of a, in the metric's
// bad direction; negative when b is better.
func worse(def metricDef, a, b float64) float64 {
	if def.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func runAA(k int, seed int64, seconds int) int {
	type key struct {
		workload string
		set      int
	}
	runs := map[key][]aaRun{}
	// log keeps every run in the order it was made, for the appendix.
	type logged struct {
		workload string
		set      int
		seed     int64
		run      aaRun
	}
	var log []logged
	for r := 0; r < k; r++ {
		order := []int{0, 1}
		if r%2 == 1 {
			order = []int{1, 0}
		}
		for _, set := range order {
			for _, w := range workloadNames {
				fmt.Fprintf(os.Stderr, "aa: rep %d/%d set %c %s\n", r+1, k, 'A'+set, w)
				run, err := runChild(w, seed+int64(r), seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				runs[key{w, set}] = append(runs[key{w, set}], run)
				log = append(log, logged{w, set, seed + int64(r), run})
			}
		}
	}

	env := envStamp(params{seed: seed, seconds: seconds})
	fmt.Printf("# A/A: two interleaved sets of %d runs of the same code\n\n", k)
	fmt.Printf("Seeds %d..%d in both sets, `-seconds %d`. Environment: %s, %v CPUs, GOMAXPROCS %v, kernel %s, commit %v (dirty: %v), probe_ref_ns %.0f, wake_ref_ns %.0f.\n\n",
		seed, seed+int64(k)-1, seconds, env["go"], env["nproc"], env["gomaxprocs"], env["kernel"], env["commit"], env["dirty"], probeRefNS, wakeProbeRefNS)
	fmt.Print("The stamp is this parent's; `tcp-standing` pins its own process to one CPU and runs with GOMAXPROCS 1.\n\n")
	fmt.Println("`gap` is how much worse set B's median is than set A's, as a share of A's (negative: better);")
	fmt.Println("`spread` is the interquartile range over the median, the larger of the two sets.")
	fmt.Println("`raw` columns are the same estimator without the probes' normalisation.")
	fmt.Println("`bound` is the workload's bound on the gap; the spread, which is across seeds, is held to the")
	fmt.Println("metric's general bound in BENCHMARK.json (`setup_s` excepted), as the pipeline does.")
	fmt.Println()
	failed := 0
	for _, w := range workloadNames {
		fmt.Printf("## %s\n\n", w)
		fmt.Println("| metric | unit | median A | median B | gap | spread | bound | raw gap | raw spread | |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
		for _, def := range endToEnd {
			col := func(set int, raw bool) []float64 {
				var xs []float64
				for _, r := range runs[key{w, set}] {
					if raw {
						xs = append(xs, r.raw[def.name])
					} else {
						xs = append(xs, r.norm[def.name])
					}
				}
				return xs
			}
			stats := func(raw bool) (ma, mb, gap, spread float64) {
				a1, a2, a3 := quartiles(col(0, raw))
				b1, b2, b3 := quartiles(col(1, raw))
				return a2, b2, worse(def, a2, b2), math.Max((a3-a1)/a2, (b3-b1)/b2)
			}
			ma, mb, gap, spread := stats(false)
			_, _, rawGap, rawSpread := stats(true)
			bound := def.boundOn(w)
			verdict := "ok"
			// The gap is between two sets on the same seeds and is held to
			// the workload's own bound. The spread is across seeds, so it
			// is held to the metric's general bound, as in the pipeline;
			// setup_s is exempt from it there too.
			if math.Abs(gap) > bound || (spread > def.bound && def.name != "setup_s") {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("| `%s` | %s | %s | %s | %+.2f%% | %.2f%% | %.0f%% | %+.2f%% | %.2f%% | %s |\n",
				def.name, def.unit, sig(ma), sig(mb), 100*gap, 100*spread, 100*bound, 100*rawGap, 100*rawSpread, verdict)
		}
		fmt.Println()
	}
	if failed > 0 {
		fmt.Printf("%d rows exceed their bound.\n\n", failed)
	} else {
		fmt.Print("Every row is within its bound.\n\n")
	}
	fmt.Print("## Every run, in the order made\n\n")
	for _, w := range workloadNames {
		fmt.Printf("### %s\n\n| set | seed |", w)
		for _, def := range endToEnd {
			fmt.Printf(" %s |", def.name)
		}
		fmt.Printf("\n|---|---|%s\n", strings.Repeat("---|", len(endToEnd)))
		for _, l := range log {
			if l.workload != w {
				continue
			}
			fmt.Printf("| %c | %d |", 'A'+l.set, l.seed)
			for _, def := range endToEnd {
				fmt.Printf(" %s |", sig(l.run.norm[def.name]))
			}
			fmt.Println()
		}
		fmt.Println()
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// sig renders a value with six significant digits.
func sig(v float64) string {
	return strings.TrimSpace(fmt.Sprintf("%.6g", v))
}
