package cluster

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/workload"
)

// churnTestOptions boots a deployment with the liveness path armed the
// way the churn experiments do: heartbeats at a fraction of the epoch,
// obituary purge, epoch-scale lease renewals.
func churnTestOptions(n int, seed int64, period time.Duration) Options {
	return Options{
		N:    n,
		Seed: seed,
		Node: core.Config{
			ChildTimeout:     2 * period,
			QueryTimeout:     10 * period,
			SubTTL:           8 * period,
			SubRenewInterval: 2 * period,
		},
		Overlay: pastry.Config{
			HeartbeatEvery: period / 2,
			HeartbeatMiss:  2,
		},
	}
}

const soakSlices = 6

func soakSlice(i int) string { return fmt.Sprintf("s%d", i%soakSlices) }

// TestChurnSoak runs a standing grouped query over 60 virtual seconds
// of continuous Poisson kill/join/recover and checks every delivered
// Sample against a per-epoch oracle:
//
//   - RootEpoch is monotone (the stream never skips backward, drops, or
//     duplicates root ticks);
//   - internal consistency: for count(*), the aggregate value, the sum
//     of the per-slice group counts, and Contributors all agree;
//   - Contributors never exceeds the live population plus the nodes
//     killed inside the purge window (a corpse is counted until its
//     obituary lands — never longer);
//   - mean completeness against the harness's exact live count stays
//     within the churn experiment's acceptance bound (>= 0.95), and no
//     sample loses more than a bounded fraction of the population;
//   - after churn stops, the stream reconverges to the exact per-slice
//     oracle over live nodes and stays there.
func TestChurnSoak(t *testing.T) {
	const (
		n      = 120
		period = 250 * time.Millisecond
		window = 60 * time.Second
	)
	c := New(churnTestOptions(n, 71, period))
	for i := range c.Nodes {
		c.Nodes[i].Store().SetString("slice", soakSlice(i))
	}
	req, err := core.ParseRequest("count(*) group by slice every 250ms")
	if err != nil {
		t.Fatal(err)
	}

	type obs struct {
		at           time.Duration
		rootEpoch    uint64
		contributors int64
		total        int64
		groupSum     int64
		live         int
		cold         bool
		groups       map[string]int64
	}
	var (
		samples   []obs
		warm      bool
		recording bool
	)
	if _, err := c.Subscribe(0, req, func(s core.Sample) {
		if !s.ColdStart {
			warm = true
		}
		if !recording {
			return
		}
		total, _ := s.Result.Agg.Value.AsInt()
		var groupSum int64
		groups := make(map[string]int64, len(s.Result.Groups))
		for k, g := range s.Result.Groups {
			v, _ := g.Value.AsInt()
			groupSum += v
			groups[k] = v
		}
		samples = append(samples, obs{
			at:           s.At,
			rootEpoch:    s.RootEpoch,
			contributors: s.Contributors,
			total:        total,
			groupSum:     groupSum,
			live:         c.LiveCount(),
			cold:         s.ColdStart,
			groups:       groups,
		})
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; !warm && i < 64; i++ {
		c.RunFor(period)
	}
	if !warm {
		t.Fatal("standing subscription never warmed")
	}

	// Schedule the Poisson churn: ~1% of nodes leave per epoch, matched
	// by arrivals (half recoveries, half fresh joins).
	rng := rand.New(rand.NewSource(71))
	var killTimes []time.Duration
	for _, ev := range workload.Churn(rng, n, workload.ChurnHalfLife(0.01, period), window, 0.5) {
		ev := ev
		c.Net.Schedule(ev.At, func() {
			switch ev.Kind {
			case workload.ChurnKill:
				candidates := c.LiveIndices()[1:]
				if len(candidates) == 0 {
					return
				}
				killTimes = append(killTimes, c.Net.Now())
				c.Kill(candidates[rng.Intn(len(candidates))])
			case workload.ChurnJoin:
				i := c.AddNode()
				c.Nodes[i].Store().SetString("slice", soakSlice(i))
			case workload.ChurnRecover:
				var dead []int
				for i := 1; i < len(c.Nodes); i++ {
					if c.Down(i) {
						dead = append(dead, i)
					}
				}
				if len(dead) == 0 {
					i := c.AddNode()
					c.Nodes[i].Store().SetString("slice", soakSlice(i))
					return
				}
				c.Recover(dead[rng.Intn(len(dead))])
			}
		})
	}
	recording = true
	c.RunFor(window)

	if len(samples) < int(window/period)*8/10 {
		t.Fatalf("stream starved: %d samples over %d epochs", len(samples), int(window/period))
	}

	var (
		complSum   float64
		warmCount  int
		worst      = 1.0
		overMax    int64
		overRun    int
		overRunMax int
		coldCount  int
	)
	prevRoot := uint64(0)
	for i, o := range samples {
		// Stream integrity and internal consistency hold for EVERY
		// sample, cold or warm: RootEpoch never goes backward (root
		// failovers fast-forward via SubscribeMsg.MinEpoch and the
		// front-end drops demoted roots' stale epochs), and for
		// count(*) the aggregate value, the per-slice sum, and the
		// Contributors count all agree.
		if o.rootEpoch < prevRoot {
			t.Fatalf("sample %d: RootEpoch went backward (%d -> %d)", i, prevRoot, o.rootEpoch)
		}
		prevRoot = o.rootEpoch
		if o.total != o.contributors || o.groupSum != o.total {
			t.Fatalf("sample %d internally inconsistent: total=%d groupSum=%d contributors=%d",
				i, o.total, o.groupSum, o.contributors)
		}
		// Overcounting must be transient: a corpse is counted until its
		// obituary lands, and a repaired subtree can be double-carried
		// for at most the stale-report window while its retraction is
		// in flight — so any run of samples exceeding the live
		// population must die out within the purge+stale horizon.
		if over := o.contributors - int64(o.live); over > 0 {
			overRun++
			if !o.cold && over > overMax {
				// Magnitude is bounded only outside rebuild windows: a
				// root takeover can transiently double-carry big
				// subtrees (old chain + rebuilt tree) and is marked cold.
				overMax = over
			}
		} else {
			overRun = 0
		}
		if overRun > overRunMax {
			overRunMax = overRun
		}
		if o.cold {
			// Root handovers re-raise ColdStart: the rebuilt pipeline's
			// refill samples are flagged, not presented as steady state.
			coldCount++
			continue
		}
		warmCount++
		compl := float64(o.contributors) / float64(o.live)
		if compl > 1 {
			compl = 1
		}
		if compl < worst {
			worst = compl
		}
		complSum += compl
	}
	mean := complSum / float64(warmCount)
	t.Logf("soak: %d samples (%d cold), %d kills, warm mean completeness %.3f, worst %.3f, max overcount %d, longest overcount run %d epochs",
		len(samples), coldCount, len(killTimes), mean, worst, overMax, overRunMax)
	if warmCount < len(samples)/2 {
		t.Errorf("only %d of %d samples warm: failover windows dominate the stream", warmCount, len(samples))
	}
	if overRunMax > 10 {
		t.Errorf("Contributors exceeded live population for %d consecutive epochs: a double-count survived past the purge+stale horizon", overRunMax)
	}
	if overMax > int64(float64(n)/4) {
		t.Errorf("max warm overcount %d exceeds a quarter of the population", overMax)
	}
	if mean < 0.95 {
		t.Errorf("warm mean completeness %.3f below the 0.95 acceptance bound", mean)
	}
	if worst < 0.5 {
		t.Errorf("worst warm-sample completeness %.3f lost more than half the population", worst)
	}

	// Quiet tail: churn stops and the long-lived subscription must
	// reconverge to the exact per-slice oracle over live nodes — and
	// stay there.
	c.RunFor(40 * period)
	oracle := make(map[string]int64)
	var live int64
	for i := range c.Nodes {
		if c.Down(i) {
			continue
		}
		live++
		oracle[soakSlice(i)]++
	}
	final := samples[len(samples)-1]
	if final.contributors != live {
		t.Errorf("post-churn contributors = %d, want %d live", final.contributors, live)
	}
	for k, want := range oracle {
		if final.groups[k] != want {
			t.Errorf("post-churn slice %s = %d, want %d", k, final.groups[k], want)
		}
	}
	if len(final.groups) != len(oracle) {
		t.Errorf("post-churn groups = %d, want %d", len(final.groups), len(oracle))
	}
}

// soakLoad is the deterministic per-node load attribute used by the
// sketch soak: (i*37)%100 cycles through every residue mod 100, so any
// large survivor subset keeps a near-uniform value spread.
func soakLoad(i int) float64 { return float64((i * 37) % 100) }

// soakHost is a per-node distinct string, so the true distinct count of
// `host` over any contributor set is exactly its size.
func soakHost(i int) string { return fmt.Sprintf("h%04d", i) }

// TestSketchChurnSoak runs two standing sketch streams — dcount(host)
// and p99(load) — through 30 virtual seconds of Poisson kill/join/
// recover and checks every delivered sample against survivor oracles:
//
//   - RootEpoch is monotone on both streams (partial merges of sketch
//     states never un-order or duplicate root ticks);
//   - dcount: every node carries a distinct host, so the true distinct
//     count of a sample IS its Contributors count; the HLL estimate
//     must track it within the 3-sigma bound for 2^11 registers on
//     every warm sample, regardless of which survivors contributed;
//   - p99: with at most a few hundred survivors every value fits in the
//     summary's level 0, so warm estimates must stay inside the
//     feasible p99 value window of the live population (rank slack
//     covers the churn-window coverage loss);
//   - after churn stops, both streams reconverge to the exact oracles
//     over live nodes: dcount within the sketch's error bound of the
//     live count, p99 inside the feasible rank window of the sorted
//     live loads.
//
// Tier-1 runs churn schedules 22 (a repair that must not leave a subtree
// counted along two paths) and 83; -schedules picks others,
// a comma-separated list of N or N-M, e.g.
// go test ./internal/cluster -run TestSketchChurnSoak -args -schedules=1-40
func TestSketchChurnSoak(t *testing.T) {
	for _, span := range strings.Split(*soakSchedules, ",") {
		lo, hi, found := strings.Cut(span, "-")
		first, err1 := strconv.Atoi(lo)
		last, err2 := strconv.Atoi(hi)
		if !found {
			last, err2 = first, nil
		}
		if err1 != nil || err2 != nil || last < first {
			t.Fatalf("-schedules=%q: want a comma-separated list of N or N-M", *soakSchedules)
		}
		for s := first; s <= last; s++ {
			t.Run(fmt.Sprintf("schedule=%d", s), func(t *testing.T) { sketchChurnSoak(t, int64(s)) })
		}
	}
}

var soakSchedules = flag.String("schedules", "22,83", "TestSketchChurnSoak's churn schedules: a comma-separated list of N or N-M")

func sketchChurnSoak(t *testing.T, schedule int64) {
	const (
		n      = 96
		period = 250 * time.Millisecond
		window = 30 * time.Second
		hllErr = 3 * 1.04 / 45.25 // 3 sigma at p=11 (m=2048, sqrt(m)=45.25)
	)
	c := New(churnTestOptions(n, 83, period))
	for i := range c.Nodes {
		c.Nodes[i].Store().SetString("host", soakHost(i))
		c.Nodes[i].Store().SetFloat("load", soakLoad(i))
	}
	seedNode := func(i int) {
		c.Nodes[i].Store().SetString("host", soakHost(i))
		c.Nodes[i].Store().SetFloat("load", soakLoad(i))
	}

	type obs struct {
		rootEpoch    uint64
		contributors int64
		est          float64
		live         int
		cold         bool
	}
	var (
		dcountSamples, quantSamples []obs
		dcountWarm, quantWarm       bool
		recording                   bool
	)
	record := func(sink *[]obs, warm *bool) func(core.Sample) {
		return func(s core.Sample) {
			if !s.ColdStart {
				*warm = true
			}
			if !recording {
				return
			}
			est, _ := s.Result.Agg.Value.AsFloat()
			*sink = append(*sink, obs{
				rootEpoch:    s.RootEpoch,
				contributors: s.Contributors,
				est:          est,
				live:         c.LiveCount(),
				cold:         s.ColdStart,
			})
		}
	}
	dreq, err := core.ParseRequest("dcount(host) every 250ms")
	if err != nil {
		t.Fatal(err)
	}
	qreq, err := core.ParseRequest("p99(load) every 250ms")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe(0, dreq, record(&dcountSamples, &dcountWarm)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe(0, qreq, record(&quantSamples, &quantWarm)); err != nil {
		t.Fatal(err)
	}
	for i := 0; !(dcountWarm && quantWarm) && i < 64; i++ {
		c.RunFor(period)
	}
	if !dcountWarm || !quantWarm {
		t.Fatalf("streams never warmed: dcount=%v p99=%v", dcountWarm, quantWarm)
	}

	rng := rand.New(rand.NewSource(schedule))
	kills := 0
	for _, ev := range workload.Churn(rng, n, workload.ChurnHalfLife(0.01, period), window, 0.5) {
		ev := ev
		c.Net.Schedule(ev.At, func() {
			switch ev.Kind {
			case workload.ChurnKill:
				candidates := c.LiveIndices()[1:]
				if len(candidates) == 0 {
					return
				}
				kills++
				c.Kill(candidates[rng.Intn(len(candidates))])
			case workload.ChurnJoin:
				seedNode(c.AddNode())
			case workload.ChurnRecover:
				var dead []int
				for i := 1; i < len(c.Nodes); i++ {
					if c.Down(i) {
						dead = append(dead, i)
					}
				}
				if len(dead) == 0 {
					seedNode(c.AddNode())
					return
				}
				c.Recover(dead[rng.Intn(len(dead))])
			}
		})
	}
	recording = true
	c.RunFor(window)

	minSamples := int(window/period) * 8 / 10
	if len(dcountSamples) < minSamples || len(quantSamples) < minSamples {
		t.Fatalf("stream starved: dcount=%d p99=%d samples over %d epochs",
			len(dcountSamples), len(quantSamples), int(window/period))
	}

	// dcount: monotone epochs, and each warm estimate within the HLL
	// error bound of its own contributor count (the exact truth, since
	// hosts are distinct).
	prevRoot := uint64(0)
	var worstRel float64
	for i, o := range dcountSamples {
		if o.rootEpoch < prevRoot {
			t.Fatalf("dcount sample %d: RootEpoch went backward (%d -> %d)", i, prevRoot, o.rootEpoch)
		}
		prevRoot = o.rootEpoch
		if o.cold || o.contributors == 0 {
			continue
		}
		rel := (o.est - float64(o.contributors)) / float64(o.contributors)
		if rel < 0 {
			rel = -rel
		}
		if rel > worstRel {
			worstRel = rel
		}
		if rel > hllErr {
			t.Errorf("dcount sample %d: estimate %.0f vs %d contributors (relErr %.3f > %.3f)",
				i, o.est, o.contributors, rel, hllErr)
		}
	}

	// p99: monotone epochs, and every warm estimate stays a real load
	// value; the tight feasible-rank window is checked against the
	// survivor oracle in the quiet tail, where the contributor set is
	// known exactly. Rank slack 0.05 covers summary error plus a
	// straggler report.
	p99Window := func() (lo, hi float64) {
		var loads []float64
		for i := range c.Nodes {
			if !c.Down(i) {
				loads = append(loads, soakLoad(i))
			}
		}
		sort.Float64s(loads)
		w := len(loads)
		lor := int(math.Ceil(0.94*float64(w))) - 1
		hir := int(math.Ceil(float64(w))) - 1
		if lor < 0 {
			lor = 0
		}
		return loads[lor], loads[hir]
	}
	prevRoot = 0
	for i, o := range quantSamples {
		if o.rootEpoch < prevRoot {
			t.Fatalf("p99 sample %d: RootEpoch went backward (%d -> %d)", i, prevRoot, o.rootEpoch)
		}
		prevRoot = o.rootEpoch
		if o.cold || o.contributors == 0 {
			continue
		}
		if o.est < 0 || o.est > 99 {
			t.Fatalf("p99 sample %d: estimate %v outside the attribute range", i, o.est)
		}
	}

	// Quiet tail: churn stops, both streams must reconverge to the exact
	// oracles over live nodes and hold there.
	c.RunFor(40 * period)
	var live int64
	for i := range c.Nodes {
		if !c.Down(i) {
			live++
		}
	}
	finalD := dcountSamples[len(dcountSamples)-1]
	relD := math.Abs(finalD.est-float64(live)) / float64(live)
	if relD > hllErr {
		t.Errorf("post-churn dcount %.0f vs %d live (relErr %.3f > %.3f)", finalD.est, live, relD, hllErr)
	}
	if finalD.contributors != live {
		t.Errorf("post-churn dcount contributors = %d, want %d live", finalD.contributors, live)
	}
	finalQ := quantSamples[len(quantSamples)-1]
	lo, hi := p99Window()
	if finalQ.est < lo || finalQ.est > hi {
		t.Errorf("post-churn p99 = %v outside feasible window [%v, %v] over %d live nodes",
			finalQ.est, lo, hi, live)
	}
	t.Logf("sketch soak: %d kills, %d dcount samples (worst relErr %.3f), %d p99 samples, final dcount %.0f/%d live, final p99 %v in [%v, %v]",
		kills, len(dcountSamples), worstRel, len(quantSamples), finalD.est, live, finalQ.est, lo, hi)
}

// TestStandingRepairAfterInteriorKill is the deterministic repair bound
// of the issue: kill the subscribed interior node carrying the largest
// subtree and require (a) the coverage dip to start only after the
// overlay purge (the stale-report window, bounded by detection time),
// (b) full coverage of the live population restored within two epochs
// of the dip starting — the overlay repairs the slot and the
// subscription re-installs on the repaired tree within one epoch, plus
// one epoch for the report pipeline — and (c) coverage to hold
// afterward.
func TestStandingRepairAfterInteriorKill(t *testing.T) {
	const (
		n      = 120
		period = 250 * time.Millisecond
	)
	c := New(churnTestOptions(n, 73, period))
	for i := range c.Nodes {
		c.Nodes[i].Store().SetString("slice", soakSlice(i))
	}
	req, err := core.ParseRequest("count(*) every 250ms")
	if err != nil {
		t.Fatal(err)
	}
	warm, recording := false, false
	type obs struct {
		at      time.Duration
		covered bool
	}
	var trace []obs
	if _, err := c.Subscribe(0, req, func(s core.Sample) {
		if !s.ColdStart {
			warm = true
		}
		if recording {
			trace = append(trace, obs{at: s.At, covered: s.Contributors >= int64(c.LiveCount())})
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; !warm && i < 64; i++ {
		c.RunFor(period)
	}
	if !warm {
		t.Fatal("standing subscription never warmed")
	}
	c.RunFor(2 * period)

	victim, best := -1, 0
	for i := 1; i < len(c.Nodes); i++ {
		for _, si := range c.Nodes[i].Subs() {
			if !si.Root && si.Targets > best {
				victim, best = i, si.Targets
			}
		}
	}
	if victim < 0 {
		t.Fatal("no subscribed interior node found")
	}
	recording = true
	killAt := c.Net.Now()
	c.Kill(victim)
	c.RunFor(24 * period)

	dipStart, dipLast := time.Duration(-1), time.Duration(-1)
	for _, o := range trace {
		if o.covered {
			continue
		}
		if dipStart < 0 {
			dipStart = o.at
		}
		dipLast = o.at
	}
	if dipStart < 0 {
		t.Logf("victim %d (%d targets): coverage never dipped (stale window hid the repair)", victim, best)
		return
	}
	detect := dipStart - killAt
	dip := dipLast - dipStart + period
	t.Logf("victim %d (%d targets): detect=%v dip=%v", victim, best, detect, dip)
	// Detection: heartbeat misses (~1.5 periods) are hidden by the
	// stale-report window (3 periods), so the dip cannot start later
	// than stale expiry plus one delivery epoch.
	if detect > 5*period {
		t.Errorf("coverage dip started %v after the kill (> 5 epochs)", detect)
	}
	if dip > 2*period {
		t.Errorf("coverage dip lasted %v (> 2 epochs): repair too slow", dip)
	}
	if dipLast >= trace[len(trace)-1].at {
		t.Error("coverage did not hold after repair")
	}
}

// TestJoinEntersStandingStream: a node joining a live cluster lands
// inside the subscribed tree and must appear in the delivered samples
// within a handful of epochs (one epoch from the moment a subscribed
// parent learns about it, plus announcement propagation).
func TestJoinEntersStandingStream(t *testing.T) {
	const (
		n      = 96
		period = 250 * time.Millisecond
	)
	c := New(churnTestOptions(n, 79, period))
	for i := range c.Nodes {
		c.Nodes[i].Store().SetString("slice", soakSlice(i))
	}
	req, err := core.ParseRequest("count(*) every 250ms")
	if err != nil {
		t.Fatal(err)
	}
	var latest core.Sample
	warm := false
	if _, err := c.Subscribe(0, req, func(s core.Sample) {
		if !s.ColdStart {
			warm = true
		}
		latest = s
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; !warm && i < 64; i++ {
		c.RunFor(period)
	}
	if !warm {
		t.Fatal("standing subscription never warmed")
	}
	if latest.Contributors != int64(n) {
		t.Fatalf("pre-join contributors = %d, want %d", latest.Contributors, n)
	}
	for j := 0; j < 4; j++ {
		i := c.AddNode()
		c.Nodes[i].Store().SetString("slice", soakSlice(i))
	}
	// Join handshake + announcements, then at most one epoch for the
	// subscribed parents to install the newcomers, plus pipeline depth.
	deadline := 24
	reached := -1
	for e := 0; e < deadline; e++ {
		c.RunFor(period)
		if latest.Contributors == int64(n+4) {
			reached = e
			break
		}
	}
	if reached < 0 {
		t.Fatalf("joined nodes never appeared: contributors = %d, want %d", latest.Contributors, n+4)
	}
	t.Logf("4 joiners fully visible after %d epochs", reached+1)
}
