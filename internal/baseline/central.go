// Package baseline implements the comparison systems of the paper's
// evaluation that are not just Moara configuration points:
//
//   - Central: a centralized aggregator that directly queries every
//     node in parallel and completes when all have answered (Fig. 15).
//     The Global and Always-Update baselines of Fig. 9 and the
//     single-global-tree SDIMS configuration of Fig. 12(a) are Moara
//     modes (core.ModeGlobal / core.ModeAlwaysUpdate) since they differ
//     only in maintenance policy.
package baseline

import (
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/predicate"
	"github.com/moara/moara/internal/simnet"
	"github.com/moara/moara/internal/value"
)

// CentralQueryMsg asks one node for its local contribution.
type CentralQueryMsg struct {
	Num  uint64
	Attr string
	Spec aggregate.Spec
	Pred string // predicate text; empty = unconditional
}

// MsgKind labels the message for accounting.
func (CentralQueryMsg) MsgKind() string { return "central.query" }

// CentralRespMsg returns one node's contribution (State nil when the
// predicate does not hold locally).
type CentralRespMsg struct {
	Num   uint64
	State aggregate.State
}

// MsgKind labels the message for accounting.
func (CentralRespMsg) MsgKind() string { return "central.resp" }

// CentralResult is a completed centralized query.
type CentralResult struct {
	Agg aggregate.Result
	// Contributors is the number of nodes whose predicate held.
	Contributors int64
	// Latency is time to the LAST reply (the paper's completion rule).
	Latency time.Duration
	// Replies records each node's reply arrival offset from injection,
	// for the Fig. 15 per-reply CDF.
	Replies []time.Duration
}

// Central is the centralized aggregator: it knows the full membership
// and queries every node directly.
type Central struct {
	env     simnet.Env
	members []ids.ID
	counter uint64
	pending map[uint64]*centralExec
}

type centralExec struct {
	state    aggregate.State
	missing  map[ids.ID]bool
	started  time.Duration
	replies  []time.Duration
	contribs int64
	cb       func(CentralResult)
}

var _ simnet.Handler = (*Central)(nil)

// NewCentral creates a coordinator on env that queries members.
func NewCentral(env simnet.Env, members []ids.ID) *Central {
	return &Central{
		env:     env,
		members: members,
		pending: make(map[uint64]*centralExec),
	}
}

// Query sends the request to every member and invokes cb when all have
// answered (no timeout: the paper's completion rule).
func (c *Central) Query(attrName string, spec aggregate.Spec, pred string, cb func(CentralResult)) {
	c.counter++
	ex := &centralExec{
		state:   spec.New(),
		missing: make(map[ids.ID]bool, len(c.members)),
		started: c.env.Now(),
		cb:      cb,
	}
	c.pending[c.counter] = ex
	msg := CentralQueryMsg{Num: c.counter, Attr: attrName, Spec: spec, Pred: pred}
	for _, m := range c.members {
		ex.missing[m] = true
		c.env.Send(m, msg)
	}
}

// Handle consumes reply messages (implements simnet.Handler).
func (c *Central) Handle(from ids.ID, m any) {
	rm, ok := m.(CentralRespMsg)
	if !ok {
		return
	}
	ex, ok := c.pending[rm.Num]
	if !ok || !ex.missing[from] {
		return
	}
	delete(ex.missing, from)
	ex.replies = append(ex.replies, c.env.Now()-ex.started)
	if rm.State != nil {
		ex.contribs += rm.State.Nodes()
		_ = ex.state.Merge(rm.State)
	}
	if len(ex.missing) == 0 {
		delete(c.pending, rm.Num)
		ex.cb(CentralResult{
			Agg:          ex.state.Result(),
			Contributors: ex.contribs,
			Latency:      c.env.Now() - ex.started,
			Replies:      ex.replies,
		})
	}
}

// AttachResponder makes a Moara node answer Central queries, using its
// attribute store for predicate evaluation and values.
func AttachResponder(n *core.Node) {
	parseCache := make(map[string]predicate.Expr)
	n.Fallback = func(from ids.ID, m any) {
		qm, ok := m.(CentralQueryMsg)
		if !ok {
			return
		}
		resp := CentralRespMsg{Num: qm.Num}
		sat := true
		if qm.Pred != "" {
			e, cached := parseCache[qm.Pred]
			if !cached {
				var err error
				e, err = predicate.ParseExpr(qm.Pred)
				if err != nil {
					n.Env().Send(from, resp)
					return
				}
				parseCache[qm.Pred] = e
			}
			sat = e.Eval(n.Store())
		}
		if sat {
			st := qm.Spec.New()
			v := n.Store().Get(qm.Attr)
			if qm.Attr == "*" {
				v = value.Int(1)
			}
			st.Add(n.Self(), v)
			if st.Nodes() > 0 {
				resp.State = st
			}
		}
		n.Env().Send(from, resp)
	}
}
