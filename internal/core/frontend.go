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

	// subs holds the standing-query registry (see standing.go).
	subs map[QueryID]*feSub
}

// probeRound is one §6.3 size-probe round: the probes still unanswered
// (probe query ID → group canon), the owner's cost table they fill, the
// timeout, and what the owner does once every probe has answered or the
// timeout has passed.
type probeRound struct {
	pending map[QueryID]string
	costs   map[string]float64
	cancel  func()
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
	answers     []ResponseMsg
	queryCancel func()

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
			if fs.emptyCancel != nil {
				fs.emptyCancel()
			}
			fe.armEmptyTick(fs)
			continue
		}
		if fs.renewCancel != nil {
			fs.renewCancel()
		}
		fe.armRenew(fs)
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
	pr.cancel = fe.n.env.After(probeTimeout, func() {
		pr.cancel = nil
		fe.endProbes(pr)
		pr.done()
	})
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
	if pr.cancel != nil {
		pr.cancel()
		pr.cancel = nil
	}
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
	fq.queryCancel = n.env.After(n.cfg.QueryTimeout, func() {
		if !fq.done {
			fq.finish(n, nil)
		}
	})
}

// handleQueryResp files a tree root's aggregated answer in its cover
// slot; finish merges the slots.
func (fe *frontend) handleQueryResp(_ ids.ID, rm ResponseMsg) {
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
	if fq.queryCancel != nil {
		fq.queryCancel()
	}
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
	var res Result
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
	res.Agg = agg.Result()
	if fq.req.GroupBy != "" {
		res.Groups = agg.Results()
		res.Truncated = agg.Truncated()
		fq.stats.GroupKeys = agg.KeyCount()
	}
	// Results are copies: the accumulator goes back to the pool.
	aggregate.Recycle(agg)
	res.Stats = fq.stats
	fq.cb(res, err)
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
