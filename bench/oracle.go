package main

import (
	"fmt"
	"math"

	"github.com/moara/moara/internal/core"
)

// The oracle is the centralized evaluator every workload checks its
// answers against: it holds the attribute table the bench wrote into
// the nodes and recomputes each aggregate by brute force, sharing no
// code with the system under test. Exact aggregates must match (up to
// float summation order); sketches must sit inside the bound the README
// states for them.
//
// Standing queries run beside attribute writes, and a sample folds leaf
// values that are up to a few epochs old, so numeric attributes are
// checked against an envelope [lo, hi] per node: the least and greatest
// value the node held inside the staleness window. With no writes the
// envelope collapses to the value and the check is exact.

const (
	// relTol absorbs float summation order (tree merge vs linear scan).
	relTol = 1e-9
	// kllRankTol is the README's rank-error bound for quantile
	// sketches, dcountRelTol three standard errors of its HLL (2.3%).
	kllRankTol   = 0.01
	dcountRelTol = 0.07
)

// table is the bench's copy of every node's attributes.
type table struct {
	n    int
	num  map[string][]float64
	str  map[string][]string
	flag map[string][]bool
}

func newTable(n int) *table {
	return &table{n: n, num: map[string][]float64{}, str: map[string][]string{}, flag: map[string][]bool{}}
}

// aggKind names the aggregates the workloads use.
type aggKind int

const (
	aggCount aggKind = iota
	aggSum
	aggAvg
	aggMax
	aggP99
	aggDCount
)

// query is one catalogue entry: the text handed to the system and what
// the oracle needs to recompute it.
type query struct {
	text string
	agg  aggKind
	// attr is the aggregated attribute: numeric, except for aggDCount
	// (a string attribute) and aggCount (unused).
	attr string
	// member selects the group; nil selects every node.
	member  func(t *table, i int) bool
	groupBy string
}

// envelope is the per-node value range of one numeric attribute.
type envelope struct{ lo, hi []float64 }

func exact(vals []float64) envelope { return envelope{vals, vals} }

// members returns the indices the query's predicate selects.
func (t *table) members(q query) []int {
	out := make([]int, 0, t.n)
	for i := 0; i < t.n; i++ {
		if q.member == nil || q.member(t, i) {
			out = append(out, i)
		}
	}
	return out
}

// check compares one answer with the oracle. It returns the true member
// count (the coverage denominator) and an error describing the first
// mismatch.
func (t *table) check(q query, env envelope, res core.Result) (int, error) {
	members := t.members(q)
	if err := t.checkAgg(q, env, members, res.Agg.Value.AsFloat); err != nil {
		return len(members), err
	}
	if q.groupBy == "" {
		if res.Groups != nil {
			return len(members), fmt.Errorf("%s: scalar query answered with groups", q.text)
		}
		return len(members), nil
	}
	byKey := map[string][]int{}
	keys := t.str[q.groupBy]
	for _, i := range members {
		byKey[keys[i]] = append(byKey[keys[i]], i)
	}
	if len(res.Groups) != len(byKey) {
		return len(members), fmt.Errorf("%s: %d groups, want %d", q.text, len(res.Groups), len(byKey))
	}
	for k, idx := range byKey {
		g, ok := res.Groups[k]
		if !ok {
			return len(members), fmt.Errorf("%s: group %q missing", q.text, k)
		}
		if err := t.checkAgg(q, env, idx, g.Value.AsFloat); err != nil {
			return len(members), fmt.Errorf("group %q: %w", k, err)
		}
	}
	return len(members), nil
}

// checkAgg checks one aggregate value over the given member indices.
func (t *table) checkAgg(q query, env envelope, idx []int, got func() (float64, bool)) error {
	v, ok := got()
	if len(idx) == 0 {
		// An empty group answers with an invalid value, or 0 for counts.
		if ok && v != 0 {
			return fmt.Errorf("%s: empty group answered %v", q.text, v)
		}
		return nil
	}
	if !ok {
		return fmt.Errorf("%s: no numeric answer over %d members", q.text, len(idx))
	}
	var lo, hi float64
	switch q.agg {
	case aggCount:
		lo, hi = float64(len(idx)), float64(len(idx))
	case aggSum, aggAvg:
		for _, i := range idx {
			lo += env.lo[i]
			hi += env.hi[i]
		}
		if q.agg == aggAvg {
			lo /= float64(len(idx))
			hi /= float64(len(idx))
		}
	case aggMax:
		lo, hi = math.Inf(-1), math.Inf(-1)
		for _, i := range idx {
			lo = math.Max(lo, env.lo[i])
			hi = math.Max(hi, env.hi[i])
		}
	case aggP99:
		lo = rankValue(env.lo, idx, 0.99-kllRankTol)
		hi = rankValue(env.hi, idx, 0.99+kllRankTol)
	case aggDCount:
		seen := map[string]bool{}
		for _, i := range idx {
			seen[t.str[q.attr][i]] = true
		}
		d := float64(len(seen))
		slack := math.Max(1, dcountRelTol*d)
		lo, hi = d-slack, d+slack
	}
	tol := relTol * math.Max(math.Abs(lo), math.Abs(hi))
	if v < lo-tol || v > hi+tol {
		return fmt.Errorf("%s: got %v, want [%v, %v] over %d members", q.text, v, lo, hi, len(idx))
	}
	return nil
}

// rankValue is the nearest-rank q-quantile of vals over idx, with q
// clamped to the sample.
func rankValue(vals []float64, idx []int, q float64) float64 {
	s := make([]float64, len(idx))
	for k, i := range idx {
		s[k] = vals[i]
	}
	return percentile(s, q)
}

// writeLog remembers recent writes to one numeric attribute so that a
// standing sample can be checked against the values a node held inside
// the staleness window. Times are whatever clock the workload uses
// (epoch index on the simulator, seconds of wall time over TCP).
type writeLog struct {
	cur    []float64
	writes []write
}

type write struct {
	at       float64
	node     int
	old, new float64
}

func newWriteLog(vals []float64) *writeLog {
	return &writeLog{cur: append([]float64(nil), vals...)}
}

func (w *writeLog) set(at float64, node int, v float64) {
	w.writes = append(w.writes, write{at, node, w.cur[node], v})
	w.cur[node] = v
}

// envelopeAt returns the per-node range of values held during
// [at-window, at+slack]: the table as of `at` widened by every write in
// that interval. Writes must have been logged in time order.
func (w *writeLog) envelopeAt(at, window, slack float64) envelope {
	lo := append([]float64(nil), w.cur...)
	// Undo writes after at+slack to get the table as of then.
	for i := len(w.writes) - 1; i >= 0 && w.writes[i].at > at+slack; i-- {
		lo[w.writes[i].node] = w.writes[i].old
	}
	hi := append([]float64(nil), lo...)
	for i := len(w.writes) - 1; i >= 0 && w.writes[i].at >= at-window; i-- {
		wr := w.writes[i]
		if wr.at > at+slack {
			continue
		}
		lo[wr.node] = math.Min(lo[wr.node], math.Min(wr.old, wr.new))
		hi[wr.node] = math.Max(hi[wr.node], math.Max(wr.old, wr.new))
	}
	return envelope{lo, hi}
}

// trim drops writes older than `before`; they can no longer widen any
// envelope the workload will ask for.
func (w *writeLog) trim(before float64) {
	k := 0
	for k < len(w.writes) && w.writes[k].at < before {
		k++
	}
	w.writes = w.writes[k:]
}
