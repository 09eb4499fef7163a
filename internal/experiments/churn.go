package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/metrics"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/value"
	"github.com/moara/moara/internal/workload"
)

// ChurnOptions parameterize the membership-churn study: nodes crash,
// join, and recover (workload.Churn's Poisson schedule) while one-shot
// and standing queries keep answering, and every answer's Contributors
// count is scored against the harness's exact live population. Not a
// paper figure — the paper delegates membership churn to FreePastry
// (§7) and evaluates static trees only.
type ChurnOptions struct {
	N int // nodes (default 1000)
	// PerEpoch sweeps the churn rate as the expected fraction of nodes
	// leaving per epoch, matched by arrivals (default 0, 0.005, 0.01,
	// 0.02). The headline rate for the coalesce-off contrasts is the
	// entry closest to 0.01.
	PerEpoch    []float64
	Epochs      int           // measured epochs per series (default 40)
	Period      time.Duration // epoch length (default 200ms)
	RecoverFrac float64       // fraction of arrivals that are recoveries (default 0.5)
	Seed        int64
}

// Defaults fills unset parameters.
func (o ChurnOptions) Defaults() ChurnOptions {
	if o.N == 0 {
		o.N = 1000
	}
	if len(o.PerEpoch) == 0 {
		o.PerEpoch = []float64{0, 0.005, 0.01, 0.02}
	}
	if o.Epochs == 0 {
		o.Epochs = 40
	}
	if o.Period == 0 {
		o.Period = 200 * time.Millisecond
	}
	if o.RecoverFrac == 0 {
		o.RecoverFrac = 0.5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// churnCluster boots a deployment with the liveness path enabled:
// leaf-set heartbeats every half epoch with a two-miss budget, so a
// crash is detected and gossiped (obituary purge) within about 1.5
// epochs; renewals every two epochs keep standing queries repairing
// root deaths quickly; child and query timeouts are tightened to epoch
// scale so one-shot answers stay fresh under churn.
func churnCluster(opt ChurnOptions, coalesce time.Duration) *cluster.Cluster {
	return cluster.New(cluster.Options{
		N:    opt.N,
		Seed: opt.Seed,
		Node: core.Config{
			ChildTimeout:     2 * opt.Period,
			QueryTimeout:     10 * opt.Period,
			SubTTL:           8 * opt.Period,
			SubRenewInterval: 2 * opt.Period,
			CoalesceWindow:   coalesce,
		},
		Overlay: pastry.Config{
			HeartbeatEvery: opt.Period / 2,
			HeartbeatMiss:  2,
		},
	})
}

// seedChurnNode writes the monitored attribute a churn-study node
// contributes. Integer values keep sums exact and order-independent.
func seedChurnNode(c *cluster.Cluster, i int) {
	c.Nodes[i].Store().Set("mem_util", value.Int(int64(i*13%100)))
}

// churnDriver schedules a workload.Churn event stream onto the
// cluster's virtual clock: kills pick a random live node (sparing the
// front-end, node 0), joins add-and-seed a fresh node, recoveries
// restart a random casualty. It returns a live-count probe for the
// completeness denominators.
func churnDriver(c *cluster.Cluster, opt ChurnOptions, frac float64, rng *rand.Rand) (live func() int) {
	window := time.Duration(opt.Epochs) * opt.Period
	events := workload.Churn(rng, opt.N, workload.ChurnHalfLife(frac, opt.Period), window, opt.RecoverFrac)
	for _, ev := range events {
		ev := ev
		c.Net.Schedule(ev.At, func() {
			switch ev.Kind {
			case workload.ChurnKill:
				// Victims exclude the front-end: its crash ends the
				// experiment, not the system (a crashed subscriber is
				// the SubTTL GC's subject, tested elsewhere).
				candidates := c.LiveIndices()[1:]
				if len(candidates) == 0 {
					return
				}
				c.Kill(candidates[rng.Intn(len(candidates))])
			case workload.ChurnJoin:
				seedChurnNode(c, c.AddNode())
			case workload.ChurnRecover:
				var dead []int
				for i := 1; i < len(c.Nodes); i++ {
					if c.Down(i) {
						dead = append(dead, i)
					}
				}
				if len(dead) == 0 {
					seedChurnNode(c, c.AddNode())
					return
				}
				c.Recover(dead[rng.Intn(len(dead))])
			}
		})
	}
	return c.LiveCount
}

// complRecorder folds per-answer completeness observations.
type complRecorder struct {
	sum   float64
	min   float64
	count int
}

func (r *complRecorder) add(contributors int64, live int) {
	c := 1.0
	if live > 0 {
		c = float64(contributors) / float64(live)
	}
	if c > 1 {
		// A node killed moments ago can still be counted until the
		// purge propagates; coverage of the live set is still full.
		c = 1
	}
	if r.count == 0 || c < r.min {
		r.min = c
	}
	r.sum += c
	r.count++
}

func (r *complRecorder) mean() float64 {
	if r.count == 0 {
		return 0
	}
	return r.sum / float64(r.count)
}

// churnStandingRun measures one standing query riding out a churn
// window: per-sample completeness against the harness's live count,
// mean delivery lag, and wire messages per epoch.
func churnStandingRun(opt ChurnOptions, frac float64, coalesce time.Duration) (compl complRecorder, lagMs, wire float64) {
	c := churnCluster(opt, coalesce)
	for i := range c.Nodes {
		seedChurnNode(c, i)
	}
	req, err := core.ParseRequest("avg(mem_util)")
	if err != nil {
		panic(err)
	}
	sub := subscribeWarm(c, req, opt.Period)
	rng := rand.New(rand.NewSource(opt.Seed + 101))
	churnDriver(c, opt, frac, rng)
	wire, lags := sub.window(opt.Epochs, c.WireQueryMessages, func(s core.Sample) {
		compl.add(s.Contributors, c.LiveCount())
	})
	return compl, metrics.Ms(lags.Mean()), wire
}

// churnOneShotRun measures one fresh dissemination per epoch through
// the same churn window: per-answer completeness, mean turnaround, and
// wire messages per epoch.
func churnOneShotRun(opt ChurnOptions, frac float64, coalesce time.Duration) (compl complRecorder, latMs, wire float64) {
	c := churnCluster(opt, coalesce)
	for i := range c.Nodes {
		seedChurnNode(c, i)
	}
	req, err := core.ParseRequest("avg(mem_util)")
	if err != nil {
		panic(err)
	}
	if err := c.Warm(req); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(opt.Seed + 103))
	churnDriver(c, opt, frac, rng)
	start := c.WireQueryMessages()
	rec := poll(c, opt.Epochs, opt.Period, func(res core.Result) {
		compl.add(res.Contributors, c.LiveCount())
	}, req)
	wire = float64(c.WireQueryMessages()-start) / float64(opt.Epochs)
	return compl, metrics.Ms(rec.Mean()), wire
}

// churnRepairRun measures subscription repair directly: a warmed
// standing query, one targeted kill — the tree root itself, or its
// biggest subscribed interior child — and a walk of the delivered
// coverage trace. It returns the dip length in epochs (first sample
// missing live members through the last one, i.e. purge landing to the
// repaired tree reporting everybody), the detection time in epochs
// (kill to first dip; the stale-report window hides the heartbeat
// detection itself), and whether full coverage held from the end of
// the dip to the end of the 30-epoch observation window.
func churnRepairRun(opt ChurnOptions, killRoot bool) (repairEpochs, detectEpochs float64, held bool) {
	c := churnCluster(opt, 0)
	for i := range c.Nodes {
		seedChurnNode(c, i)
	}
	req, err := core.ParseRequest("avg(mem_util)")
	if err != nil {
		panic(err)
	}
	sub := subscribeWarm(c, req, opt.Period)
	c.RunFor(2 * opt.Period)

	// The victim: the tree root (worst case — repair needs the renewal
	// to re-route), or the subscribed interior node with the most
	// installed children (killing it orphans the largest subtree).
	victim, best := -1, 0
	for i := 1; i < len(c.Nodes); i++ {
		for _, si := range c.Nodes[i].Subs() {
			if si.Root != killRoot {
				continue
			}
			if si.Targets > best {
				victim, best = i, si.Targets
			}
		}
	}
	if victim < 0 {
		panic("churn: no subscribed victim to kill")
	}
	type obs struct {
		at      time.Duration
		covered bool
	}
	var trace []obs
	killAt := c.Net.Now()
	c.Kill(victim)
	sub.window(30, c.WireQueryMessages, func(s core.Sample) {
		trace = append(trace, obs{at: s.At, covered: s.Contributors >= int64(c.LiveCount())})
	})

	// Walk the trace: detection = kill to the first uncovered sample;
	// repair = first through last uncovered sample (the transient
	// stale-window overshoot inside the dip does not end it).
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
		// Coverage never dipped: the stale-report window hid the whole
		// detect+repair cycle (possible for shallow subtrees).
		return 0, 0, true
	}
	held = dipLast < trace[len(trace)-1].at
	return float64(dipLast-dipStart)/float64(opt.Period) + 1,
		float64(dipStart-killAt) / float64(opt.Period), held
}

// RunChurn measures availability under membership churn: completeness
// (Contributors vs the true live population) and delivery lag or
// turnaround as the churn rate sweeps, for standing and one-shot
// queries, coalesced and not, plus the targeted repair measurement.
func RunChurn(opt ChurnOptions) *Table {
	opt = opt.Defaults()
	t := &Table{
		Title: "Churn resilience: completeness and lag vs membership churn rate",
		Note: fmt.Sprintf("N=%d, epoch=%v, %d measured epochs, Poisson kill/join/recover (recover frac %.1f), heartbeat=epoch/2 x2 misses",
			opt.N, opt.Period, opt.Epochs, opt.RecoverFrac),
		Columns: []string{"series", "churn_per_epoch", "completeness_mean", "completeness_min", "lat_or_lag_ms", "wire_per_epoch"},
	}
	headline := opt.PerEpoch[len(opt.PerEpoch)-1]
	for _, f := range opt.PerEpoch {
		if diff, hd := abs64(f-0.01), abs64(headline-0.01); diff < hd {
			headline = f
		}
	}
	var headlineMean float64
	for _, f := range opt.PerEpoch {
		compl, lag, wire := churnStandingRun(opt, f, 0)
		if f == headline {
			headlineMean = compl.mean()
		}
		t.AddRow("standing", pct(f), f3(compl.mean()), f3(compl.min), f1(lag), f1(wire))
	}
	complOff, lagOff, wireOff := churnStandingRun(opt, headline, core.CoalesceOff)
	t.AddRow("standing (coalesce off)", pct(headline), f3(complOff.mean()), f3(complOff.min), f1(lagOff), f1(wireOff))
	for _, f := range opt.PerEpoch {
		compl, lat, wire := churnOneShotRun(opt, f, 0)
		t.AddRow("one-shot", pct(f), f3(compl.mean()), f3(compl.min), f1(lat), f1(wire))
	}
	complOne, latOne, wireOne := churnOneShotRun(opt, headline, core.CoalesceOff)
	t.AddRow("one-shot (coalesce off)", pct(headline), f3(complOne.mean()), f3(complOne.min), f1(latOne), f1(wireOne))

	repair, detect, held := churnRepairRun(opt, false)
	t.AddRow("repair (interior kill)", "-", "-", "-",
		fmt.Sprintf("dip=%.0fep detect=%.0fep", repair, detect), fmt.Sprintf("held=%v", held))
	repairR, detectR, heldR := churnRepairRun(opt, true)
	t.AddRow("repair (root kill)", "-", "-", "-",
		fmt.Sprintf("dip=%.0fep detect=%.0fep", repairR, detectR), fmt.Sprintf("held=%v", heldR))
	t.Note += fmt.Sprintf("; standing mean completeness at %s churn/epoch = %.3f; targeted repair: interior kill %.0f epoch(s) of reduced coverage after a %.0f-epoch detection window (held=%v), root kill %.0f epoch(s) (held=%v)",
		pct(headline), headlineMean, repair, detect, held, repairR, heldR)
	return t
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

func f3(f float64) string { return fmt.Sprintf("%.3f", f) }

func abs64(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
