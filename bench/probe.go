package main

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// Two probes tell how fast this box is right now; durations are scaled
// by what they read (blockSpeed in estimate.go combines them) so that
// "ms at reference speed" repeats on a shared VM whose speed drifts
// within minutes.
//
// The speed probe is a fixed piece of busy work: an ALU loop (core
// clock, steal) and a dependent pointer chase through a 64 MB cycle
// (memory latency, cache pollution by neighbours). It runs between
// blocks with the drivers paused, and around each per-layer
// microbenchmark.
const (
	// probeRefNS is what one probe (ALU + chase) takes on the reference
	// box, a 2-vCPU shared VM, when nothing disturbs it. It is only a
	// scale: changing it rescales every normalised metric by the same
	// factor, so it is frozen here and stamped on every output.
	probeRefNS = 10.5e6

	probeALUIters   = 3_000_000
	probeChaseSteps = 40_000
	probeChaseWords = 8 << 20 // 8M x 8 bytes = 64 MB
	probeReps       = 3
)

// probeReading is one probe: both components in ns.
type probeReading struct {
	ALU   float64 `json:"alu_ns"`
	Chase float64 `json:"chase_ns"`
}

func (p probeReading) total() float64 { return p.ALU + p.Chase }

type prober struct {
	ring []uint64
	pos  uint64
	sink uint64
}

// newProber builds the chase ring: one cycle through all words (Sattolo)
// from a fixed seed, so the memory access pattern is the same in every
// process.
func newProber() *prober {
	ring := make([]uint64, probeChaseWords)
	for i := range ring {
		ring[i] = uint64(i)
	}
	rng := rand.New(rand.NewSource(0x6d6f617261))
	for i := len(ring) - 1; i > 0; i-- {
		j := rng.Intn(i)
		ring[i], ring[j] = ring[j], ring[i]
	}
	return &prober{ring: ring}
}

func (p *prober) once() probeReading {
	t0 := time.Now()
	x := p.sink | 1
	for i := 0; i < probeALUIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	t1 := time.Now()
	pos := p.pos
	for i := 0; i < probeChaseSteps; i++ {
		pos = p.ring[pos]
	}
	t2 := time.Now()
	p.pos, p.sink = pos, x
	return probeReading{ALU: float64(t1.Sub(t0)), Chase: float64(t2.Sub(t1))}
}

// read returns the median of probeReps probes, by total.
func (p *prober) read() probeReading {
	rs := make([]probeReading, probeReps)
	for i := range rs {
		rs[i] = p.once()
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].total() < rs[j].total() })
	return rs[len(rs)/2]
}

// speed is the factor that turns a duration measured between the two
// probes into a duration at reference speed: below 1 when the box was
// slower than the reference (the same work would have taken less time
// there), above 1 when it was faster.
func speed(before, after probeReading) float64 {
	return probeRefNS / ((before.total() + after.total()) / 2)
}

// The wake probe runs inside the measured region, beside the work: a
// goroutine that, all through a block, sleeps for wakeProbeEvery and
// then times a fixed burst (a walk over 256 KB and a small JSON round
// trip through the standard library, about 50 us). The block's reading
// is the median of some 500 bursts.
//
// It exists because of tcp-standing, which leaves its CPU idle three
// quarters of the time and does its work in thousands of short bursts a
// second, each starting on a CPU whose caches a neighbour on the host
// has used meanwhile. What such a burst costs depends on how busy the
// neighbours are, and the speed probe, a busy loop between blocks, read
// the same while CPU per sample drifted by a quarter. The wake probe is
// a burst of the same kind at the same time: over ten runs its reading
// followed CPU per sample with a correlation of 0.97. On tcp-oneshot and
// sim-groupchurn it beats the speed probe too, because it samples the
// box during the block and not before and after it.
const (
	// wakeProbeRefNS is the reading on the reference box when nothing
	// disturbs it. Like probeRefNS it is only a scale.
	wakeProbeRefNS = 52e3
	wakeProbeEvery = 3 * time.Millisecond
	wakeProbeWords = 32 << 10 // 32K x 8 bytes = 256 KB
)

// wakeRecord is what the wake probe encodes and decodes.
type wakeRecord struct {
	Name string             `json:"name"`
	Vals map[string]float64 `json:"vals"`
	Keys []string           `json:"keys"`
}

type wakeProbe struct {
	buf  []uint64
	sink uint64
	// mallocsPerCall is what one probe allocates, so that the workload's
	// allocation count can be cleared of it.
	mallocsPerCall float64
	stop           chan struct{}
	done           chan struct{}
	ns             []float64
}

// newWakeProbe builds the probe and counts what one call allocates; call
// it while nothing else in the process allocates.
func newWakeProbe() *wakeProbe {
	w := &wakeProbe{buf: make([]uint64, wakeProbeWords)}
	const calls = 100
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < calls; i++ {
		w.once()
	}
	runtime.ReadMemStats(&ms1)
	w.mallocsPerCall = float64(ms1.Mallocs-ms0.Mallocs) / calls
	return w
}

func (w *wakeProbe) once() {
	var s uint64
	for i := 0; i < len(w.buf); i += 8 { // one word per cache line
		s += w.buf[i]
		w.buf[i] = s
	}
	r := wakeRecord{Name: "probe", Vals: map[string]float64{}}
	for i := 0; i < 16; i++ {
		k := string(rune('a'+i)) + "key"
		r.Vals[k] = float64(i) * 1.5
		r.Keys = append(r.Keys, k)
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // strings and finite numbers
	}
	var back wakeRecord
	if err := json.Unmarshal(b, &back); err != nil {
		panic(err)
	}
	w.sink += s + uint64(len(back.Keys))
}

// start begins probing in the background; finish ends it.
func (w *wakeProbe) start() {
	w.stop, w.done = make(chan struct{}), make(chan struct{})
	w.ns = w.ns[:0]
	go func() {
		defer close(w.done)
		for {
			select {
			case <-w.stop:
				return
			default:
			}
			time.Sleep(wakeProbeEvery) // allocates nothing, unlike time.After
			t0 := time.Now()
			w.once()
			w.ns = append(w.ns, float64(time.Since(t0)))
		}
	}()
}

// finish stops the probe and returns the median reading in ns (0 if it
// never ran), and the CPU seconds and allocations that were the probe's
// own and not the workload's.
func (w *wakeProbe) finish() (medianNS, busySeconds, mallocs float64) {
	close(w.stop)
	<-w.done
	if len(w.ns) == 0 {
		return 0, 0, 0
	}
	for _, d := range w.ns {
		busySeconds += d / 1e9
	}
	return median(w.ns), busySeconds, float64(len(w.ns)) * w.mallocsPerCall
}
