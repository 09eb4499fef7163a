package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/predicate"
	"github.com/moara/moara/internal/simnet"
)

// Request is one front-end query: (query-attribute, aggregation
// function, group-predicate), the paper's query triple (§3.1),
// optionally keyed by a group-by attribute.
type Request struct {
	// Attr is the attribute to aggregate; "*" contributes 1 per node.
	Attr string
	// Spec is the aggregation function.
	Spec aggregate.Spec
	// Pred is the group predicate; nil aggregates over all nodes.
	Pred predicate.Expr
	// GroupBy names the attribute whose value partitions the answer
	// into per-key sub-aggregates (the `group by` clause); empty for a
	// scalar query. The keyed merge happens in-tree, so a grouped query
	// still costs one dissemination.
	GroupBy string
	// Period makes the request a standing query (the `every` clause):
	// installed once via Subscribe, it re-aggregates in-tree every
	// Period and streams one Sample per epoch. Zero for one-shot
	// queries; Execute rejects requests with a period.
	Period time.Duration
}

// ExecStats reports how a query was planned and how long its phases
// took; the Fig. 13(b) experiments read these.
type ExecStats struct {
	// Covers are the candidate covers considered.
	Covers [][]string
	// Chosen is the selected cover.
	Chosen []string
	// Costs are the probed per-group query-cost estimates.
	Costs map[string]float64
	// ProbeTime is the size-probe phase duration (zero when no probes
	// were needed).
	ProbeTime time.Duration
	// QueryTime is the dissemination/aggregation phase duration.
	QueryTime time.Duration
	// TotalTime is end-to-end latency.
	TotalTime time.Duration
	// ShortCircuit marks a provably empty result answered locally.
	ShortCircuit bool
	// FellBack marks a plan that skipped CNF optimization.
	FellBack bool
	// Probed is the number of size probes issued.
	Probed int
	// GroupBy echoes the request's group-by attribute.
	GroupBy string
	// GroupKeys is the number of distinct group keys held exactly
	// (grouped queries only).
	GroupKeys int
}

// Result is a completed query.
type Result struct {
	// Agg is the aggregate answer; for grouped queries it is the grand
	// total across every key.
	Agg aggregate.Result
	// Groups holds the per-key answers of a `group by` query (nil for
	// scalar queries). Spilled high-cardinality mass, if any, appears
	// under aggregate.OtherKey.
	Groups map[string]aggregate.Result
	// Truncated reports that the group-key cap was exceeded somewhere
	// in the tree, so some per-key answers are partial (the remainder
	// is under aggregate.OtherKey; Agg stays exact).
	Truncated bool
	// Contributors is the number of group members that answered the
	// query. A member missing the query attribute still counts — it was
	// reached and evaluated — so Contributors measures coverage of the
	// membership, not of the attribute. Under churn it is the numerator
	// of the answer's completeness.
	Contributors int64
	// Expected is the system's own estimate of the population the query
	// should have reached: the sum over the chosen cover's trees of each
	// root's query-plane size estimate (NO-PRUNE count plus cold-region
	// estimate). It is an indicator, not a membership count — composite
	// covers overlap and NO-PRUNE includes recently departed members —
	// and is zero when no tree root answered.
	Expected float64
	// Cached marks an answer served from the query service's one-shot
	// result cache rather than freshly executed; Age is how long ago the
	// cached answer was computed. Both are zero on every answer the
	// engine itself produces — only the service front-end stamps them.
	Cached bool
	// Age is the cached answer's staleness at serve time (zero for
	// fresh answers).
	Age time.Duration
	// Stats describes planning and timing.
	Stats ExecStats
}

// Completeness is Contributors/Expected clamped to [0,1]: the system's
// own estimate of how much of the queried population this answer
// covers. It returns 1 when Expected is unknown (zero); see the README
// for what it does and does not promise under churn.
func (r Result) Completeness() float64 {
	if r.Expected <= 0 {
		return 1
	}
	c := float64(r.Contributors) / r.Expected
	if c > 1 {
		return 1
	}
	return c
}

// frontend drives composite-query planning, size probes, sub-queries,
// and result merging for queries originating at this node (§6).
type frontend struct {
	n *Node
	// pending holds every unfinished one-shot query, from Execute to its
	// callback; probes indexes the in-flight size-probe rounds of
	// one-shot queries and standing-query (re-)installs alike by probe
	// query ID.
	pending map[QueryID]*feQuery
	probes  map[QueryID]*probeRound

	// subs holds the standing-query registry (feSub, below).
	subs map[QueryID]*feSub
}

// probeRound is one §6.3 size-probe round: the probes still unanswered
// (probe query ID → group canon), the owner's cost table they fill, the
// timeout, and what the owner does once every probe has answered or the
// timeout has passed.
type probeRound struct {
	pending map[QueryID]string
	costs   map[string]float64
	timeout simnet.Timer
	done    func()
}

type feQuery struct {
	qid  QueryID
	req  Request
	cb   func(Result, error)
	plan queryPlan

	costs  map[string]float64
	probes *probeRound

	// answers holds each cover tree's root answer, sorted by group canon
	// (QID stays zero until the root answers); finish merges them in
	// that order, whatever order the roots answered in.
	answers []ResponseMsg
	timeout simnet.Timer

	stats        ExecStats
	startAt      time.Duration
	queryStartAt time.Duration
	done         bool
}

func (fe *frontend) init(n *Node) {
	fe.n = n
	fe.pending = make(map[QueryID]*feQuery)
	fe.probes = make(map[QueryID]*probeRound)
	fe.subs = make(map[QueryID]*feSub)
}

// recover re-arms the front-end's periodic loops after a crash-recovery
// (see Node.Recover). In-flight one-shot queries are finished with
// whatever partial state they hold — their timeout timers died with the
// crash, so without this their callbacks would never fire — and
// standing-query renewal and empty-plan streams restart. Probe rounds
// abandoned mid-flight fall back to conservative costs at the next
// renewal.
func (fe *frontend) recover() {
	// Snapshot first (a callback may issue a fresh query), and walk both
	// tables in id order: the callbacks and timers below must not run in
	// map order.
	inflight := slices.SortedFunc(maps.Values(fe.pending), func(a, b *feQuery) int {
		return compareQID(a.qid, b.qid)
	})
	for _, fq := range inflight {
		fq.finish(fe.n, nil)
	}
	subs := slices.SortedFunc(maps.Values(fe.subs), func(a, b *feSub) int {
		return compareQID(a.sid, b.sid)
	})
	for _, fs := range subs {
		// A probe timeout armed before the crash can still be pending
		// (timers are only dropped if they fire during the outage); left
		// armed, it would abort the next renewal's probe round with stale
		// state.
		fe.endProbes(fs.probes)
		if fs.plan.empty {
			fe.armEmptyTick(fs)
			continue
		}
		fe.armRenew(fs)
	}
}

// close stops the front-end's timers: query and probe timeouts,
// subscription renewals and empty-plan ticks.
func (fe *frontend) close() {
	for _, fq := range fe.pending {
		fq.timeout.Stop()
	}
	for _, pr := range fe.probes {
		pr.timeout.Stop()
	}
	for _, fs := range fe.subs {
		fs.renew.Stop()
		fs.empty.Stop()
	}
}

func (n *Node) nextQID() QueryID {
	n.qidCounter++
	return QueryID{Origin: n.self, Num: n.qidCounter}
}

// Execute runs a query from this node, invoking cb exactly once with
// the merged result (or an error). It must be called on the node's
// event goroutine; the callback runs there too.
func (n *Node) Execute(req Request, cb func(Result, error)) {
	n.fe.execute(req, cb)
}

// planRequest validates a request for the entry point it arrived at
// (Execute takes one-shot requests, Subscribe standing ones) and builds
// its query plan.
func (fe *frontend) planRequest(req Request, standing bool) (queryPlan, error) {
	if err := req.Spec.Validate(); err != nil {
		return queryPlan{}, fmt.Errorf("core: invalid aggregation spec: %w", err)
	}
	switch {
	case req.Attr == "":
		return queryPlan{}, fmt.Errorf("core: empty query attribute")
	case standing && req.Period <= 0:
		return queryPlan{}, fmt.Errorf("%w: standing query needs a period (every clause)", ErrNotStanding)
	case !standing && req.Period > 0:
		return queryPlan{}, fmt.Errorf("%w (every %v)", ErrStandingOnly, req.Period)
	}
	plan := buildPlan(req.Attr, req.Pred, 0)
	plan.groupBy = req.GroupBy
	return plan, nil
}

func (fe *frontend) execute(req Request, cb func(Result, error)) {
	n := fe.n
	plan, err := fe.planRequest(req, false)
	if err != nil {
		cb(Result{}, err)
		return
	}
	fq := &feQuery{
		qid:     n.nextQID(),
		req:     req,
		cb:      cb,
		plan:    plan,
		costs:   make(map[string]float64),
		startAt: n.env.Now(),
	}
	fq.stats.FellBack = plan.fellBack
	fq.stats.GroupBy = req.GroupBy
	for _, cover := range plan.covers {
		fq.stats.Covers = append(fq.stats.Covers, coverCanons(cover))
	}
	if plan.empty {
		fq.stats.ShortCircuit = true
		fq.finish(n, nil)
		return
	}
	fe.pending[fq.qid] = fq
	if plan.singleTrivialCover() {
		fe.startSubQueries(fq)
		return
	}
	fq.probes = fe.startProbes(plan, fq.costs, func() { fe.startSubQueries(fq) })
	fq.stats.Probed = len(fq.probes.pending)
	fe.awaitProbes(fq.probes)
}

// startProbes opens a probe round: it fills costs for every group in
// any cover of plan (§6.3) — the global group from the system-size
// estimate — and routes a size probe for each of the rest, on every
// composite query as the paper does. The caller hands the round to
// awaitProbes.
func (fe *frontend) startProbes(plan queryPlan, costs map[string]float64, done func()) *probeRound {
	n := fe.n
	pr := &probeRound{pending: make(map[QueryID]string), costs: costs, done: done}
	for _, g := range plan.distinctGroupsOfPlan() {
		if g.expr == nil {
			costs[g.canon] = 2 * n.overlay.EstimateSize()
			continue
		}
		pqid := n.nextQID()
		pr.pending[pqid] = g.canon
		fe.probes[pqid] = pr
		n.overlay.Route(g.treeKey(), ProbeMsg{
			QID:     pqid,
			Group:   g.canon,
			Attr:    g.attr,
			ReplyTo: n.self,
		})
	}
	return pr
}

// probeTimeout bounds how long the front-end waits for size probes
// before falling back to conservative cost estimates.
const probeTimeout = 2 * time.Second

// awaitProbes completes the round at once when nothing needed probing,
// and otherwise bounds the wait: probes still missing at probeTimeout
// fall back to the conservative system-size cost and planning proceeds.
func (fe *frontend) awaitProbes(pr *probeRound) {
	if len(pr.pending) == 0 {
		pr.done()
		return
	}
	fe.n.env.Arm(probeTimeout, func() {
		fe.endProbes(pr)
		pr.done()
	}, &pr.timeout)
}

// endProbes closes a round, complete or not: answers still in flight
// will be ignored and the timeout is disarmed. A nil or already closed
// round is a no-op.
func (fe *frontend) endProbes(pr *probeRound) {
	if pr == nil {
		return
	}
	for pqid := range pr.pending {
		delete(fe.probes, pqid)
	}
	pr.pending = nil
	pr.timeout.Stop()
}

func (fe *frontend) handleProbeResp(m ProbeRespMsg) {
	pr, ok := fe.probes[m.QID]
	if !ok {
		return
	}
	delete(fe.probes, m.QID)
	delete(pr.pending, m.QID)
	pr.costs[m.Group] = m.Cost
	if len(pr.pending) == 0 {
		fe.endProbes(pr)
		pr.done()
	}
}

// chooseCover picks a cover per the configured policy, for one-shot
// queries and standing-query (re-)installs alike: cheapest by probed
// cost (Moara, breaking ties toward fewer groups and then lexicographic
// order), every group (CoverAll ablation), or the most expensive
// (CoverDearest ablation).
func (fe *frontend) chooseCover(plan queryPlan, costs map[string]float64) []groupSpec {
	n := fe.n
	if n.cfg.Covers == CoverAll {
		return plan.distinctGroupsOfPlan()
	}
	fallbackCost := 2 * n.overlay.EstimateSize()
	best := -1
	bestCost := 0.0
	for i, cover := range plan.covers {
		cost := 0.0
		for _, g := range cover {
			if c, ok := costs[g.canon]; ok {
				cost += c
			} else {
				cost += fallbackCost
			}
		}
		var better bool
		if n.cfg.Covers == CoverDearest {
			better = best < 0 || cost > bestCost
		} else {
			better = best < 0 || cost < bestCost ||
				(cost == bestCost && len(cover) < len(plan.covers[best])) ||
				(cost == bestCost && len(cover) == len(plan.covers[best]) && coverKey(cover) < coverKey(plan.covers[best]))
		}
		if better {
			best, bestCost = i, cost
		}
	}
	return plan.covers[best]
}

func (fe *frontend) startSubQueries(fq *feQuery) {
	n := fe.n
	cover := fe.chooseCover(fq.plan, fq.costs)
	fq.stats.Chosen = coverCanons(cover)
	fq.stats.Costs = fq.costs
	fq.queryStartAt = n.env.Now()
	fq.stats.ProbeTime = fq.queryStartAt - fq.startAt
	fq.answers = make([]ResponseMsg, 0, len(cover))
	for _, g := range cover {
		eval := fq.plan.evalCanon
		if eval == g.canon {
			eval = ""
		}
		fq.answers = append(fq.answers, ResponseMsg{Group: g.canon})
		n.overlay.Route(g.treeKey(), SubQueryMsg{
			QID:     fq.qid,
			Group:   g.canon,
			Eval:    eval,
			Attr:    fq.req.Attr,
			Spec:    fq.req.Spec,
			GroupBy: fq.plan.groupBy,
			ReplyTo: n.self,
		})
	}
	slices.SortFunc(fq.answers, func(a, b ResponseMsg) int { return strings.Compare(a.Group, b.Group) })
	n.env.Arm(n.cfg.QueryTimeout, func() {
		if !fq.done {
			fq.finish(n, nil)
		}
	}, &fq.timeout)
}

// handleQueryResp files a tree root's aggregated answer in its cover
// slot; finish merges the slots.
func (fe *frontend) handleQueryResp(rm ResponseMsg) {
	fq, ok := fe.pending[rm.QID]
	if !ok {
		return
	}
	i, ok := slices.BinarySearchFunc(fq.answers, rm.Group, func(a ResponseMsg, canon string) int {
		return strings.Compare(a.Group, canon)
	})
	if !ok || fq.answers[i].QID == rm.QID {
		return
	}
	fq.answers[i] = rm
	if !slices.ContainsFunc(fq.answers, func(a ResponseMsg) bool { return a.QID != rm.QID }) {
		fq.finish(fe.n, nil)
	}
}

func (fq *feQuery) finish(n *Node, err error) {
	if fq.done {
		return
	}
	fq.done = true
	fq.timeout.Stop()
	n.fe.endProbes(fq.probes)
	delete(n.fe.pending, fq.qid)
	now := n.env.Now()
	fq.stats.TotalTime = now - fq.startAt
	if fq.queryStartAt > 0 || !fq.stats.ShortCircuit {
		fq.stats.QueryTime = now - fq.queryStartAt
		if fq.queryStartAt == 0 {
			fq.stats.QueryTime = 0
		}
	}
	agg := aggregate.NewGrouped(fq.req.Spec, n.cfg.MaxGroupKeys)
	res := Result{Stats: fq.stats}
	for _, a := range fq.answers {
		if a.Dup {
			continue
		}
		if a.State != nil {
			_ = agg.Merge(a.State)
			aggregate.Recycle(a.State)
		}
		// Each root's answer carries the members that answered and its
		// population estimate (np piggyback), which spans the whole tree.
		res.Contributors += a.Contributors
		res.Expected += float64(a.Np) + a.Unknown
	}
	res.take(agg)
	fq.cb(res, err)
}

// take sets r's answer from the merged accumulator agg, per key when
// r.Stats.GroupBy names a key attribute, and hands agg back to the pool:
// the answer holds copies.
func (r *Result) take(agg *aggregate.GroupedState) {
	r.Agg = agg.Result()
	if r.Stats.GroupBy != "" {
		r.Groups = agg.Results()
		r.Truncated = agg.Truncated()
		r.Stats.GroupKeys = agg.KeyCount()
	}
	aggregate.Recycle(agg)
}

func coverCanons(cover []groupSpec) []string {
	out := make([]string, len(cover))
	for i, g := range cover {
		out[i] = g.canon
	}
	sort.Strings(out)
	return out
}

// ParseRequest builds a Request from query-language text (README
// "Query language"), e.g. "avg(mem_util) group by slice where apache =
// true" or, as a standing query, "avg(load) where group = db every 2s".
// Failures wrap ErrParse, so callers branch with errors.Is rather than
// message matching.
func ParseRequest(s string) (Request, error) {
	req, err := parseRequestText(s)
	if err != nil {
		return Request{}, fmt.Errorf("%w: %v", ErrParse, err)
	}
	return req, nil
}

// ---------------------------------------------------------------------
// Front-end side: the subscription registry

// feSub is one standing query owned by this front-end.
type feSub struct {
	sid  QueryID
	req  Request
	cb   func(Sample)
	plan queryPlan

	// groups is the currently installed cover, sorted by canon so that
	// cancels and the per-sample merge run in an order the seed fixes;
	// latest/fresh hold each tree's newest SampleMsg and whether it
	// arrived since the last emitted sample; rootOf tracks which node
	// each tree's samples come from, so a root handover re-raises the
	// warm-up marking.
	groups []groupSpec
	latest map[string]SampleMsg
	fresh  map[string]bool
	rootOf map[string]ids.ID

	epoch     uint64
	warmAfter uint64
	// gen is the renewal round counter: bumped on every
	// (re-)plan-and-install, cascaded down-tree in SubscribeMsg and
	// InstallMsg so stale chains lose their children after a repair.
	gen uint64

	costs  map[string]float64
	probes *probeRound
	renew  simnet.Timer
	empty  simnet.Timer
}

// Subscribe installs a standing query from this node: the request's
// cover is installed once down each group tree, and cb is invoked with
// one Sample per Period until Unsubscribe. Like Execute, it must be
// called on the node's event goroutine and the callback runs there.
func (n *Node) Subscribe(req Request, cb func(Sample)) (QueryID, error) {
	return n.fe.subscribe(req, cb)
}

// Unsubscribe cancels a standing query, tearing its subscription state
// down across the trees it was installed on. It returns ErrUnknownSub
// when sid is not a live subscription of this front-end (already
// unsubscribed, or never installed here) — a double-unsubscribe is a
// caller bug worth surfacing, not a silent no-op.
func (n *Node) Unsubscribe(sid QueryID) error {
	return n.fe.unsubscribe(sid)
}

func (fe *frontend) subscribe(req Request, cb func(Sample)) (QueryID, error) {
	plan, err := fe.planRequest(req, true)
	if err != nil {
		return QueryID{}, err
	}
	fs := &feSub{
		sid:    fe.n.nextQID(),
		req:    req,
		cb:     cb,
		plan:   plan,
		latest: make(map[string]SampleMsg),
		fresh:  make(map[string]bool),
		rootOf: make(map[string]ids.ID),
		costs:  make(map[string]float64),
	}
	fe.subs[fs.sid] = fs
	if plan.empty {
		// Provably empty: no network state at all, but the stream
		// still ticks so dashboards see the (empty) series.
		fe.armEmptyTick(fs)
		return fs.sid, nil
	}
	fe.subPlanAndInstall(fs)
	fe.armRenew(fs)
	return fs.sid, nil
}

func (fe *frontend) unsubscribe(sid QueryID) error {
	fs, ok := fe.subs[sid]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownSub, sid)
	}
	delete(fe.subs, sid)
	fs.renew.Stop()
	fe.endProbes(fs.probes)
	fs.empty.Stop()
	for _, g := range fs.groups {
		fe.n.overlay.Route(g.treeKey(), CancelMsg{SID: sid, Group: g.canon})
	}
	return nil
}

// subPlanAndInstall probes composite covers (reusing the §6.3 size
// probes) and installs the chosen one; trivial plans install directly.
// A still-unfinished previous probe round (a response lost or slower
// than the renewal cadence) is abandoned first, so its timeout cannot
// fire into the new round's state.
func (fe *frontend) subPlanAndInstall(fs *feSub) {
	fs.gen++
	fe.endProbes(fs.probes)
	if fs.plan.singleTrivialCover() {
		fe.setCover(fs, fs.plan.covers[0])
		return
	}
	fs.probes = fe.startProbes(fs.plan, fs.costs, func() {
		fe.setCover(fs, fe.chooseCover(fs.plan, fs.costs))
	})
	fe.awaitProbes(fs.probes)
}

// setCover reconciles the installed cover with the chosen one: dropped
// groups are cancelled (in canon order), every current group is
// (re-)subscribed (in cover order, like a one-shot's sub-queries), and a
// cover flip restarts the warm-up marking.
func (fe *frontend) setCover(fs *feSub, cover []groupSpec) {
	n := fe.n
	next := slices.Clone(cover)
	slices.SortFunc(next, func(a, b groupSpec) int { return strings.Compare(a.canon, b.canon) })
	changed := false
	for _, g := range next {
		if !hasGroup(fs.groups, g.canon) {
			changed = true
		}
	}
	for _, g := range fs.groups {
		if !hasGroup(next, g.canon) {
			changed = true
			n.overlay.Route(g.treeKey(), CancelMsg{SID: fs.sid, Group: g.canon})
			delete(fs.latest, g.canon)
			delete(fs.fresh, g.canon)
			delete(fs.rootOf, g.canon)
		}
	}
	fs.groups = next
	for _, g := range cover {
		eval := fs.plan.evalCanon
		if eval == g.canon {
			eval = ""
		}
		n.overlay.Route(g.treeKey(), SubscribeMsg{
			SID:      fs.sid,
			Group:    g.canon,
			Eval:     eval,
			Attr:     fs.req.Attr,
			Spec:     fs.req.Spec,
			GroupBy:  fs.req.GroupBy,
			Period:   fs.req.Period,
			Gen:      fs.gen,
			MinEpoch: fs.latest[g.canon].Epoch,
			ReplyTo:  n.self,
		})
	}
	if changed {
		fs.warmAfter = fs.epoch + fe.warmupEpochs()
	}
}

func hasGroup(groups []groupSpec, canon string) bool {
	for _, g := range groups {
		if g.canon == canon {
			return true
		}
	}
	return false
}

// warmupEpochs estimates how many epochs the contribution pipeline
// needs to fill: one per tree level (contributions climb one hop per
// epoch), slack for the install dissemination itself, and one more for
// the stale window in which a formation-time handoff (a member
// re-parented while the tree adapted) can still be double-carried.
func (fe *frontend) warmupEpochs() uint64 {
	depth := uint64(3)
	for est := fe.n.overlay.EstimateSize(); est > 1; est /= ids.Radix {
		depth++
	}
	return depth
}

// armRenew schedules the periodic lease renewal: composite plans
// re-probe and may flip covers; trivial plans just re-route the
// subscription to the (possibly moved) root.
func (fe *frontend) armRenew(fs *feSub) {
	n := fe.n
	n.env.Arm(n.cfg.SubRenewInterval, func() {
		if n.closed || fe.subs[fs.sid] != fs {
			return
		}
		fe.subPlanAndInstall(fs)
		fe.armRenew(fs)
	}, &fs.renew)
}

// armEmptyTick streams empty samples for a provably empty plan.
func (fe *frontend) armEmptyTick(fs *feSub) {
	n := fe.n
	n.env.Arm(fs.req.Period, func() {
		if n.closed || fe.subs[fs.sid] != fs {
			return
		}
		fs.epoch++
		empty := fs.req.Spec.New()
		res := Result{Agg: empty.Result()}
		aggregate.Recycle(empty)
		res.Stats.ShortCircuit = true
		res.Stats.GroupBy = fs.req.GroupBy
		fs.cb(Sample{Epoch: fs.epoch, At: n.env.Now(), Result: res})
		fe.armEmptyTick(fs)
	}, &fs.empty)
}

// handleSample consumes a root's per-epoch aggregate, emitting one
// merged Sample to the subscriber when every tree of the cover has
// reported for the epoch.
func (fe *frontend) handleSample(from ids.ID, sm SampleMsg) {
	n := fe.n
	fs, ok := fe.subs[sm.SID]
	if !ok {
		n.send(from, CancelMsg{SID: sm.SID, Group: sm.Group})
		return
	}
	if !hasGroup(fs.groups, sm.Group) {
		// A tree from a flipped-away cover is still streaming.
		n.send(from, CancelMsg{SID: sm.SID, Group: sm.Group})
		return
	}
	prevSm, hadSm := fs.latest[sm.Group]
	if hadSm && sm.Epoch <= prevSm.Epoch {
		// A stale or duplicate root epoch: after the tree key moves
		// (a failover or a closer joiner), the demoted root keeps
		// streaming until its lease expires — the takeover root
		// fast-forwarded past it (SubscribeMsg.MinEpoch), so dropping
		// anything at or behind the newest epoch keeps the delivered
		// stream monotone.
		return
	}
	prevRoot, hadRoot := fs.rootOf[sm.Group]
	if (hadRoot && prevRoot != from) || (hadSm && sm.Epoch > prevSm.Epoch+2) {
		// Root handover — or a gap in the root's tick stream (the root
		// crashed and recovered, or the tree went dark long enough to
		// skip epochs): the contribution pipeline refills from scratch
		// either way, so re-raise the ColdStart marking rather than
		// presenting the refill samples as steady-state readings.
		fs.warmAfter = fs.epoch + fe.warmupEpochs()
	}
	fs.rootOf[sm.Group] = from
	// The displaced sample's state is folded into nothing that outlives
	// this call (every emitted Sample merges into a fresh accumulator).
	aggregate.Recycle(prevSm.State)
	fs.latest[sm.Group] = sm
	fs.fresh[sm.Group] = true
	if len(fs.fresh) < len(fs.groups) {
		return
	}
	clear(fs.fresh)
	fs.epoch++
	now := n.env.Now()
	agg := aggregate.NewGrouped(fs.req.Spec, n.cfg.MaxGroupKeys)
	var lag time.Duration
	var rootEpoch uint64
	var contrib int64
	var expected float64
	for _, g := range fs.groups {
		s, ok := fs.latest[g.canon]
		if !ok || s.State == nil {
			continue
		}
		_ = agg.Merge(s.State)
		contrib += s.Contributors
		expected += s.Expected
		if l := now - s.At; l > lag {
			lag = l
		}
		if s.Epoch > rootEpoch {
			rootEpoch = s.Epoch
		}
	}
	res := Result{Contributors: contrib, Expected: expected}
	res.Stats.GroupBy = fs.req.GroupBy
	res.take(agg)
	fs.cb(Sample{
		Epoch:        fs.epoch,
		RootEpoch:    rootEpoch,
		At:           now,
		Lag:          lag,
		ColdStart:    fs.epoch <= fs.warmAfter,
		Contributors: contrib,
		Expected:     expected,
		Result:       res,
	})
}
