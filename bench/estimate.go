package main

import (
	"math"
	"sort"
)

// block is what one measured block of fixed work yields. Durations are
// as measured; normalisation happens in summarize.
type block struct {
	Wall    float64 // seconds
	CPU     float64 // seconds of process user+sys time
	Mallocs float64
	Units   float64 // the workload's cost denominator
	// CostOps is the denominator of msg_cost: ops on the one-shot
	// workloads, samples on the standing ones.
	CostOps float64
	// LatMS holds one latency per completed op, in ms: wall on the tcp
	// workloads, virtual time on the sim workloads.
	LatMS []float64
	// Msgs is the Moara-layer message count.
	Msgs float64
	// CoverSum/CoverN accumulate contributors / true members per op.
	CoverSum float64
	CoverN   int
	// Wake is the wake probe's median reading inside the block, in ns, and
	// Before and After are the speed probe's readings around it: what the
	// block's durations are normalised by (see blockSpeed).
	Wake   float64
	Before probeReading
	After  probeReading
}

// latMode says how a workload's op latency becomes a run value.
type latMode int

const (
	// latBlockNormalised: CPU-bound wall latency. Per-block percentile,
	// scaled to reference speed, median over blocks.
	latBlockNormalised latMode = iota
	// latPooled: timer-bound wall latency or virtual time. Never
	// normalised; percentiles over the whole measured phase.
	latPooled
)

// estimatorSpec is the part of a workload definition the estimator
// needs.
type estimatorSpec struct {
	lat latMode
	// timerBound marks a workload whose pace is set by timers, not by
	// the CPU. Its throughput is the offered rate and its set-up mostly
	// waits, so no wall time it measures is normalised; its CPU time is,
	// like everyone's. It leaves the box mostly idle, which is why it
	// runs pinned to one CPU (see pinToOneCPU).
	timerBound bool
	// failTolerance is the share of attempted operations that may fail
	// in a run that is still reported as correct (0 on all but the
	// real-timer workload).
	failTolerance float64
}

// blockSpeed is the factor that turns a duration measured while the
// wake probe read `wake` ns, between two readings of the speed probe,
// into a duration at reference speed: below 1 when the box was slower
// than the reference. It is the geometric mean of the two probes'
// factors. Each alone fails somewhere: the speed probe, a busy loop
// between blocks, misses what slows bursty work and what happens during
// the block (tcp-standing, sim-groupchurn), and the wake probe, a small
// burst on whichever CPU is free, over-reacts beside one hot thread with
// half a gigabyte of working set (sim-scale). Spread of CPU per unit over
// twenty interleaved runs per workload, raw / speed probe / wake probe /
// both: tcp-oneshot 11.5 / 7.6 / 2.7 / 5.0%, tcp-standing 17.6 / 9.5 /
// 5.2 / 6.5%, sim-groupchurn 7.8 / 7.3 / 4.1 / 4.7%, sim-scale 9.5 / 6.6 /
// 17.4 / 6.3%. A block the wake probe never ran in is left to the speed
// probe.
func blockSpeed(wake float64, before, after probeReading) float64 {
	if wake <= 0 {
		return speed(before, after)
	}
	return math.Sqrt(wakeProbeRefNS / wake * speed(before, after))
}

// wallSpeed is the normalisation factor of wall time: 1 on a timer-bound
// workload.
func (spec estimatorSpec) wallSpeed(wake float64, before, after probeReading) float64 {
	if spec.timerBound {
		return 1
	}
	return blockSpeed(wake, before, after)
}

// minBeyond is the least number of samples that must lie beyond a
// reported percentile.
const minBeyond = 10

// supports reports whether n samples leave at least minBeyond beyond the
// q-quantile.
func supports(n int, q float64) bool {
	return n-rankOf(n, q) >= minBeyond
}

// rankOf is the 1-based nearest rank of the q-quantile among n samples;
// the epsilon keeps 0.9*100 from rounding up to 91.
func rankOf(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// percentile is the nearest-rank q-quantile of xs (which it sorts).
// It returns NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rankOf(len(xs), q)-1]
}

// median of xs, interpolating between the middle pair; xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// summary carries a run's values: norm is what is reported and gated,
// raw is the same estimator without speed normalisation (diagnostic).
type summary struct {
	norm, raw map[string]float64
	// p90Supported is false when some block (or the pool) held too few
	// samples for its p90.
	p90Supported bool
	// disturbed counts blocks whose probe was more than 25% slower than
	// the run's best.
	disturbed int
}

// summarize turns the blocks of one run into run values: the median
// over blocks of each per-block value, so that an interference episode
// shorter than half the run cannot move them.
func summarize(blocks []block, spec estimatorSpec) summary {
	s := summary{norm: map[string]float64{}, raw: map[string]float64{}, p90Supported: true}
	per := map[string][]float64{}
	perRaw := map[string][]float64{}
	add := func(name string, norm, raw float64) {
		per[name] = append(per[name], norm)
		perRaw[name] = append(perRaw[name], raw)
	}
	var pooled []float64
	best := math.Inf(1)
	for _, b := range blocks {
		best = math.Min(best, math.Min(b.Before.total(), b.After.total()))
	}
	for _, b := range blocks {
		if math.Max(b.Before.total(), b.After.total()) > 1.25*best {
			s.disturbed++
		}
		sp := spec.wallSpeed(b.Wake, b.Before, b.After)
		add("throughput", b.Units/(b.Wall*sp), b.Units/b.Wall)
		add("cpu_us_per_unit", b.CPU*1e6*blockSpeed(b.Wake, b.Before, b.After)/b.Units, b.CPU*1e6/b.Units)
		add("msg_cost", b.Msgs/b.CostOps, b.Msgs/b.CostOps)
		add("allocs_per_unit", b.Mallocs/b.Units, b.Mallocs/b.Units)
		if b.CoverN > 0 {
			add("coverage", b.CoverSum/float64(b.CoverN), b.CoverSum/float64(b.CoverN))
		}
		switch spec.lat {
		case latBlockNormalised:
			if !supports(len(b.LatMS), 0.9) {
				s.p90Supported = false
			}
			lat := append([]float64(nil), b.LatMS...)
			p50, p90 := percentile(lat, 0.5), percentile(lat, 0.9)
			add("op_p50_ms", p50*sp, p50)
			add("op_p90_ms", p90*sp, p90)
		case latPooled:
			pooled = append(pooled, b.LatMS...)
		}
	}
	for name, xs := range per {
		s.norm[name] = median(xs)
		s.raw[name] = median(perRaw[name])
	}
	if spec.lat == latPooled {
		if !supports(len(pooled), 0.9) {
			s.p90Supported = false
		}
		for name, q := range map[string]float64{"op_p50_ms": 0.5, "op_p90_ms": 0.9} {
			v := percentile(pooled, q)
			s.norm[name], s.raw[name] = v, v
		}
	} else {
		for _, b := range blocks {
			pooled = append(pooled, b.LatMS...)
		}
	}
	// Pooled p99 is a diagnostic only: one interference episode owns it.
	if supports(len(pooled), 0.99) {
		s.raw["op_p99_ms"] = percentile(pooled, 0.99)
	}
	return s
}
