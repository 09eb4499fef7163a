package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// params is what the command line fixes for one run.
type params struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// n, blocks and setups scale a run down for the smoke tests; 0 keeps
	// the workload's own size and the standard counts.
	n      int
	blocks int
	setups int
}

const (
	// measuredBlocks is the number of blocks in an end-to-end run;
	// a traced run does untracedBlocks without recording and then
	// tracedBlocks with it.
	measuredBlocks = 12
	untracedBlocks = 2
	tracedBlocks   = 4
	// setupReps is how many times a run sets the system up; the median
	// is reported, the last one is kept and measured.
	setupReps = 3
	// refSeconds is the run length the per-block op counts below were
	// sized for; -seconds scales them.
	refSeconds = 20
)

// blockCounts is what a workload reports for one block; the runner adds
// wall, CPU and allocation deltas around it.
type blockCounts struct {
	ops    int
	failed int // ops that errored or timed out (wrong answers are found by checkBlock)
	units  float64
	// costOps is the denominator of msg_cost: ops on the one-shot
	// workloads, samples on the standing ones.
	costOps float64
	msgs    float64
	latMS   []float64
}

// checkResult is the oracle's verdict on one block, computed off the
// clock.
type checkResult struct {
	failed int
	// incomplete counts standing samples that reported fewer
	// contributors than members; they lower coverage and are not
	// compared with the oracle.
	incomplete int
	coverSum   float64
	coverN     int
	firstErr   error
}

// workload is one of the four benchmark workloads.
type workload interface {
	spec() estimatorSpec
	// setup boots the system, loads attributes, warms it up and leaves
	// it ready for block 0. teardown stops everything setup started and
	// waits for it.
	setup() error
	teardown()
	// beforeBlock runs untimed just before runBlock (the open-loop tcp
	// workload aligns its window to the agents' epoch grid there);
	// runBlock does block b's fixed work and is the timed region.
	beforeBlock()
	runBlock(b int) blockCounts
	// checkBlock verifies block b's answers against the oracle.
	checkBlock(b int) checkResult
	// stamp adds workload facts to the environment stamp.
	stamp(env map[string]any)
	// traceStart switches recording on; traceMetrics reports the
	// workload's trace.* numbers over the blocks run since.
	traceStart(rec *recorder)
	traceMetrics(ops int, units float64) map[string]float64
}

// scaled turns a per-block op count sized for refSeconds into one for
// the requested run length.
func (p params) scaled(perBlock int) int {
	return max(1, perBlock*p.seconds/refSeconds)
}

func (p params) nblocks() int {
	switch {
	case p.blocks > 0:
		return p.blocks
	case p.trace:
		return untracedBlocks + tracedBlocks
	}
	return measuredBlocks
}

func newWorkload(p params) (workload, error) {
	switch p.workload {
	case "tcp-oneshot":
		return newTCPOneshot(p), nil
	case "tcp-standing":
		return newTCPStanding(p), nil
	case "sim-groupchurn":
		return newSimGroupChurn(p), nil
	case "sim-scale":
		return newSimScale(p), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", p.workload, workloadNames)
}

// runResult is everything one run measured.
type runResult struct {
	blocks     []block
	sum        summary
	setups     []float64 // normalised seconds, one per set-up
	setupsRaw  []float64
	attempted  int
	failed     int
	firstErr   error
	incomplete int
	peakRSSMB  float64
	// perLayer is filled by a traced run only.
	perLayer map[string]float64
	// env holds the workload's own facts for the environment stamp.
	env map[string]any
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return ru
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KB

// gcCPUSeconds reads the runtime's own account of CPU spent in GC.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// run executes one workload: set-up (several times), then the blocks,
// each with the wake probe running inside it, bracketed by speed probes
// and followed by its oracle check.
func run(w workload, p params, pr *prober) (*runResult, error) {
	r := &runResult{}
	wp := newWakeProbe() // before set-up: nothing else allocates yet
	reps := setupReps
	if p.setups > 0 {
		reps = p.setups
	}
	for i := 0; i < reps; i++ {
		before := pr.read()
		wp.start()
		t0 := time.Now()
		err := w.setup()
		wall := time.Since(t0).Seconds()
		wake, _, _ := wp.finish()
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		r.setups = append(r.setups, wall*w.spec().wallSpeed(wake, before, pr.read()))
		r.setupsRaw = append(r.setupsRaw, wall)
		if i < reps-1 {
			w.teardown()
			// Give the discarded system back before booting the next, or
			// peak_rss_mb would measure garbage.
			runtime.GC()
			debug.FreeOSMemory()
		}
	}
	defer w.teardown()

	var rec *recorder
	var tracedOps int
	var tracedUnits, gc0, cpu0 float64
	probe := pr.read()
	for b := 0; b < p.nblocks(); b++ {
		if p.trace && b == untracedBlocks {
			rec = newRecorder()
			w.traceStart(rec)
			gc0, cpu0 = gcCPUSeconds(), cpuSeconds()
		}
		w.beforeBlock()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		wp.start()
		c0 := cpuSeconds()
		t0 := time.Now()
		c := w.runBlock(b)
		wall := time.Since(t0).Seconds()
		c1 := cpuSeconds()
		runtime.ReadMemStats(&ms1)
		wake, wakeBusy, wakeMallocs := wp.finish()
		chk := w.checkBlock(b)
		after := pr.read()
		r.blocks = append(r.blocks, block{
			Wall: wall, CPU: c1 - c0 - wakeBusy, Wake: wake, Mallocs: float64(ms1.Mallocs-ms0.Mallocs) - wakeMallocs,
			Units: c.units, CostOps: c.costOps,
			LatMS: c.latMS, Msgs: c.msgs,
			CoverSum: chk.coverSum, CoverN: chk.coverN,
			Before: probe, After: after,
		})
		probe = after
		r.attempted += c.ops
		r.failed += c.failed + chk.failed
		r.incomplete += chk.incomplete
		if r.firstErr == nil {
			r.firstErr = chk.firstErr
		}
		if rec != nil {
			tracedOps += c.ops
			tracedUnits += c.units
		}
	}
	r.sum = summarize(r.blocks, w.spec())
	r.peakRSSMB = peakRSSMB()
	r.env = map[string]any{}
	w.stamp(r.env)
	if p.trace {
		r.perLayer = w.traceMetrics(tracedOps, tracedUnits)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.perLayer["trace.heap_live_mb"] = float64(ms.HeapAlloc) / (1 << 20)
		if cpu := cpuSeconds() - cpu0; cpu > 0 {
			r.perLayer["trace.gc_cpu_share"] = (gcCPUSeconds() - gc0) / cpu
		}
		untraced := summarize(r.blocks[:untracedBlocks], w.spec())
		traced := summarize(r.blocks[untracedBlocks:], w.spec())
		r.perLayer["trace.overhead_ratio"] = traced.norm["throughput"] / untraced.norm["throughput"]
		if err := rec.writeFile(spanFile(p)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return r, nil
}
