package experiments

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/metrics"
	"github.com/moara/moara/internal/value"
)

// SketchesOptions parameterize the approximate-aggregate study: the
// per-node partial-state size of the mergeable sketches (HLL dcount,
// KLL quantile, Misra-Gries topkeys, capped union) against the exact
// enum baseline across value cardinalities, plus a standing-query run
// of dcount/p99 on the simulated cluster with accuracy against the
// exact oracle. Not a paper figure — the paper's aggregation functions
// are exact; this table is the repo's bounded-state extension.
type SketchesOptions struct {
	// N is the cluster size for the standing run (default 2000; the
	// scale profile runs 10000).
	N int
	// Cardinalities sweep the distinct-value counts of the state-size
	// table (default 100, 1000, 10000, 100000).
	Cardinalities []int
	Epochs        int           // measured standing epochs (default 8)
	Period        time.Duration // epoch length (default 200ms)
	Seed          int64
}

// Defaults fills unset parameters.
func (o SketchesOptions) Defaults() SketchesOptions {
	if o.N == 0 {
		o.N = 2000
	}
	if len(o.Cardinalities) == 0 {
		o.Cardinalities = []int{100, 1000, 10000, 100000}
	}
	if o.Epochs == 0 {
		o.Epochs = 8
	}
	if o.Period == 0 {
		o.Period = 200 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// gobSize measures a partial state by its gob encoding, this table's
// yardstick. The transport's columnar layouts are not uniformly
// smaller: the quantile summary's runs larger than gob's.
func gobSize(st aggregate.State) int {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		panic(err)
	}
	return buf.Len()
}

// RunSketches produces the bounded-state table. Part one ingests C
// distinct values into each aggregate and reports the gob-encoded
// partial-state size: enum grows linearly with C while every sketch
// stays flat, and the err column shows what the bound buys — the
// sketch's observed error against the exact answer over the same
// stream. Part two installs standing dcount(host) and p99(load)
// queries (plus the exact enum(host) baseline) on an N-node simulated
// cluster and reports per-epoch wire messages, delivery lag, and the
// final sample's error against the live-population oracle.
func RunSketches(opt SketchesOptions) *Table {
	opt = opt.Defaults()
	t := &Table{
		Title: "Approximate aggregates: bounded sketch state vs exact enum",
		Note: fmt.Sprintf("state bytes are gob-encoded partial states (the wire's unit); standing run at N=%d (Emulab model), epoch=%v, %d warm epochs",
			opt.N, opt.Period, opt.Epochs),
		Columns: []string{"series", "distinct_or_n", "state_bytes", "msgs_per_epoch", "lag_ms", "err"},
	}
	for _, c := range opt.Cardinalities {
		stateSizeRows(t, c)
	}
	standingSketchRows(t, opt)
	return t
}

// stateSizeRows ingests c distinct values into the exact enum and each
// sketch, then reports encoded size and observed error.
func stateSizeRows(t *Table, c int) {
	specs := []struct {
		label string
		spec  aggregate.Spec
	}{
		{"enum (exact)", aggregate.Spec{Kind: aggregate.KindEnum}},
		{"dcount (hll)", aggregate.Spec{Kind: aggregate.KindDCount}},
		{"p99 (quantile summary)", aggregate.Spec{Kind: aggregate.KindQuantile, Q: 0.99}},
		{"topkeys8 (misra-gries)", aggregate.Spec{Kind: aggregate.KindTopKeys, K: 8}},
		{"union (cap+spill)", aggregate.Spec{Kind: aggregate.KindUnion}},
	}
	for _, sp := range specs {
		st := sp.spec.New()
		quant := sp.spec.Kind == aggregate.KindQuantile
		for i := 0; i < c; i++ {
			node := ids.FromKey(fmt.Sprintf("n%06d", i))
			if quant {
				st.Add(node, value.Float(float64(i)))
			} else {
				st.Add(node, value.Str(fmt.Sprintf("h%06d", i)))
			}
		}
		errCell := "0"
		switch sp.spec.Kind {
		case aggregate.KindDCount:
			est, _ := st.Result().Value.AsFloat()
			errCell = fmt.Sprintf("%.1f%%", 100*math.Abs(est-float64(c))/float64(c))
		case aggregate.KindQuantile:
			// Values are 0..c-1, so the estimate's rank is itself; the
			// error is the rank distance from the true p99.
			est, _ := st.Result().Value.AsFloat()
			errCell = fmt.Sprintf("%.1f%%", 100*math.Abs(est/float64(c)-0.99))
		case aggregate.KindTopKeys, aggregate.KindUnion:
			// All-distinct input has no heavy hitters / overflows the
			// cap by design; the bound is the point, not the error.
			errCell = "-"
		}
		t.AddRow(sp.label, itoa(c), itoa(gobSize(st)), "-", "-", errCell)
	}
}

// standingSketchRows runs standing dcount(host), p99(load), and the
// exact enum(host) baseline on the cluster, one at a time, measuring
// per-epoch wire cost, delivery lag, and final-sample accuracy.
func standingSketchRows(t *Table, opt SketchesOptions) {
	c := cluster.New(cluster.Options{N: opt.N, Seed: opt.Seed, Node: core.Config{SubTTL: 10 * time.Minute}}.Emulab())
	loads := make([]float64, opt.N)
	for i, nd := range c.Nodes {
		nd.Store().SetString("host", fmt.Sprintf("h%06d", i))
		loads[i] = math.Mod(float64(i)*13.7, 100)
		nd.Store().SetFloat("load", loads[i])
	}
	sort.Float64s(loads)

	measure := func(label, query string, errOf func(core.Sample) string) {
		req, err := core.ParseRequest(query)
		if err != nil {
			panic(err)
		}
		var last core.Sample
		sub := subscribeWarm(c, req, opt.Period)
		msgs, lags := sub.window(opt.Epochs, c.WireQueryMessages, func(s core.Sample) { last = s })
		c.Unsubscribe(0, sub.id)
		c.RunFor(2 * opt.Period)
		t.AddRow(label, itoa(opt.N), "-", f1(msgs), metrics.FormatMs(lags.Mean()), errOf(last))
	}

	measure("standing enum(host)", "enum(host)", func(core.Sample) string { return "0" })
	measure("standing dcount(host)", "dcount(host)", func(s core.Sample) string {
		est, _ := s.Result.Agg.Value.AsFloat()
		return fmt.Sprintf("%.1f%%", 100*math.Abs(est-float64(s.Contributors))/float64(s.Contributors))
	})
	measure("standing p99(load)", "p99(load)", func(s core.Sample) string {
		est, _ := s.Result.Agg.Value.AsFloat()
		// Error as rank distance: where the estimate sits in the sorted
		// population vs the true 0.99 rank.
		rank := float64(sort.SearchFloat64s(loads, est)) / float64(opt.N)
		return fmt.Sprintf("%.1f%%", 100*math.Abs(rank-0.99))
	})
}
