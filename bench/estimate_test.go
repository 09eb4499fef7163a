package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
)

func TestSupportsNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.9, false}, {100, 0.9, true}, {999, 0.99, false}, {1000, 0.99, true}, {20, 0.5, true}, {19, 0.5, false},
	} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // 1..100, unsorted
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("p50 of nothing = %v, want NaN", got)
	}
}

func TestMedianOfBlocksIgnoresMinorityOutliers(t *testing.T) {
	if got := median([]float64{5, 1, 100, 1, 1}); got != 1 {
		t.Errorf("median = %v, want 1", got)
	}
	if got := median([]float64{1, 3}); got != 2 {
		t.Errorf("median of a pair = %v, want 2", got)
	}
}

// A box that runs at half speed takes twice as long over the probe, and
// the speed factor must shrink durations measured on it back to what
// the reference box would have shown.
func TestSpeedDirection(t *testing.T) {
	ref := probeReading{ALU: probeRefNS / 2, Chase: probeRefNS / 2}
	slow := probeReading{ALU: probeRefNS, Chase: probeRefNS}
	if got := speed(ref, ref); math.Abs(got-1) > 1e-12 {
		t.Errorf("speed at reference = %v, want 1", got)
	}
	if got := speed(slow, slow); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("speed at half speed = %v, want 0.5", got)
	}
	if got := speed(ref, slow); got >= 1 || got <= 0.5 {
		t.Errorf("speed across a slowdown = %v, want between 0.5 and 1", got)
	}
}

// Both probes read twice their reference on a box at half speed, and the
// factor must shrink durations measured there back to what the reference
// box would have shown; when only one of them shows a slowdown it is
// believed half, and a block the wake probe never ran in is left to the
// speed probe.
func TestBlockSpeedDirection(t *testing.T) {
	ref := probeReading{ALU: probeRefNS / 2, Chase: probeRefNS / 2}
	slow := probeReading{ALU: probeRefNS, Chase: probeRefNS}
	for _, c := range []struct {
		wake float64
		pr   probeReading
		want float64
	}{
		{wakeProbeRefNS, ref, 1},
		{2 * wakeProbeRefNS, slow, 0.5},
		{2 * wakeProbeRefNS, ref, math.Sqrt(0.5)},
		{wakeProbeRefNS, slow, math.Sqrt(0.5)},
		{0, slow, 0.5},
	} {
		if got := blockSpeed(c.wake, c.pr, c.pr); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("blockSpeed(%v, %v) = %v, want %v", c.wake, c.pr, got, c.want)
		}
	}
}

// syntheticBlocks builds a 12-block CPU-bound run; blocks listed in slow
// ran on a box at half speed, with both probes showing it.
func syntheticBlocks(rng *rand.Rand, slow map[int]bool) []block {
	ref := probeReading{ALU: probeRefNS / 2, Chase: probeRefNS / 2}
	blocks := make([]block, 12)
	for b := range blocks {
		f := 1.0
		pr := ref
		if slow[b] {
			f = 2
			pr = probeReading{ALU: probeRefNS, Chase: probeRefNS}
		}
		lat := make([]float64, 200)
		for i := range lat {
			lat[i] = f * (4 + 2*rng.Float64())
		}
		blocks[b] = block{
			Wall: 2 * f, CPU: 3 * f, Mallocs: 5000, Units: 400, CostOps: 400,
			LatMS: lat, Msgs: 52000, CoverSum: 400, CoverN: 400,
			Wake: f * wakeProbeRefNS, Before: pr, After: pr,
		}
	}
	return blocks
}

func TestSlowdownOnFourBlocksLandsNearCleanValue(t *testing.T) {
	spec := estimatorSpec{lat: latBlockNormalised}
	clean := summarize(syntheticBlocks(rand.New(rand.NewSource(1)), nil), spec)
	slowed := summarize(syntheticBlocks(rand.New(rand.NewSource(1)), map[int]bool{2: true, 3: true, 4: true, 9: true}), spec)
	for _, name := range []string{"op_p50_ms", "op_p90_ms", "throughput", "cpu_us_per_unit"} {
		c, s := clean.norm[name], slowed.norm[name]
		if math.Abs(s-c) > 0.03*c {
			t.Errorf("%s: %v with the slowdown, %v clean (more than 3%% apart)", name, s, c)
		}
	}
	for _, name := range []string{"msg_cost", "allocs_per_unit", "coverage"} {
		if clean.norm[name] != slowed.norm[name] {
			t.Errorf("%s moved with speed: %v vs %v", name, slowed.norm[name], clean.norm[name])
		}
	}
	if slowed.disturbed != 4 {
		t.Errorf("disturbed blocks = %d, want 4", slowed.disturbed)
	}
	if !slowed.p90Supported {
		t.Error("200 samples per block must support a p90")
	}
}

func TestPooledLatencyIsNeverNormalised(t *testing.T) {
	blocks := syntheticBlocks(rand.New(rand.NewSource(1)), map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true, 6: true})
	s := summarize(blocks, estimatorSpec{lat: latPooled})
	if s.norm["op_p50_ms"] != s.raw["op_p50_ms"] {
		t.Errorf("pooled p50 was normalised: %v vs raw %v", s.norm["op_p50_ms"], s.raw["op_p50_ms"])
	}
	if s.norm["cpu_us_per_unit"] == s.raw["cpu_us_per_unit"] {
		t.Error("cpu_us_per_unit must be normalised on a CPU-bound workload")
	}
	// A timer-bound workload's wall time is left as measured; its CPU
	// time is normalised like everyone's.
	s = summarize(blocks, estimatorSpec{lat: latPooled, timerBound: true})
	if s.norm["throughput"] != s.raw["throughput"] {
		t.Errorf("timer-bound throughput was normalised: %v vs raw %v", s.norm["throughput"], s.raw["throughput"])
	}
	clean := summarize(syntheticBlocks(rand.New(rand.NewSource(1)), nil), estimatorSpec{lat: latPooled, timerBound: true})
	if c, got := clean.norm["cpu_us_per_unit"], s.norm["cpu_us_per_unit"]; math.Abs(got-c) > 1e-9*c {
		t.Errorf("timer-bound cpu_us_per_unit = %v with 7 slow blocks, %v clean", got, c)
	}
}

func TestTooFewSamplesPerBlockIsFlagged(t *testing.T) {
	blocks := syntheticBlocks(rand.New(rand.NewSource(1)), nil)
	blocks[5].LatMS = blocks[5].LatMS[:99]
	if summarize(blocks, estimatorSpec{lat: latBlockNormalised}).p90Supported {
		t.Error("a block of 99 samples cannot support a p90")
	}
}

func TestEnvelopeWidensByRecentWritesOnly(t *testing.T) {
	log := newWriteLog([]float64{10, 20, 30})
	log.set(1, 0, 11) // old: outside the window below
	log.set(5, 1, 25)
	log.set(6, 1, 22)
	log.set(9, 2, 99) // after the sample: must be undone
	env := log.envelopeAt(6, 2, 0)
	want := envelope{lo: []float64{11, 20, 30}, hi: []float64{11, 25, 30}}
	for i := range want.lo {
		if env.lo[i] != want.lo[i] || env.hi[i] != want.hi[i] {
			t.Errorf("node %d: [%v, %v], want [%v, %v]", i, env.lo[i], env.hi[i], want.lo[i], want.hi[i])
		}
	}
}

// BENCHMARK.json is what the pipeline reads; the tables in this package
// are what the program prints. They must name the same things.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the bench directory: %v", err)
	}
	var got, want any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(benchmarkJSON(), &want); err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Errorf("BENCHMARK.json is out of step with the bench's tables; regenerate it with `bench -describe`")
	}
}
