package moara

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/moara/moara/internal/core"
)

// Sample is one epoch of a monitored (standing) query. It is the
// engine's sample type re-exported: see the field docs in
// internal/core. Highlights:
//
//   - Epoch numbers deliveries (1-based, consecutive); RootEpoch
//     exposes stream faults (gaps, repeats).
//   - ColdStart marks samples taken while the contribution pipeline
//     was still filling — series plots and benchmarks should compare
//     warm epochs only.
//   - Contributors/Expected (and Completeness) report coverage under
//     churn.
type Sample = core.Sample

// MonitorClient implements the paper's continuous-monitoring pattern
// (§1) on the standing-query subsystem: instead of re-executing a
// one-shot query per round (a full dissemination per sample), the query
// is installed once down the group trees and every round is an in-tree
// epoch re-aggregation — one push message per tree edge. Grouped
// queries ("avg(cpu) group by slice") monitor every key in one stream;
// pivot the samples with GroupSeries.
//
// It collects rounds standing-query samples from any Client, the
// earliest of which are marked ColdStart while the contribution
// pipeline fills. The query's own `every` clause takes precedence over
// the every parameter. pump advances time between deliveries: a
// simulated deployment passes its RunFor; a real deployment passes nil
// (or time.Sleep) to wait on the wall clock.
func MonitorClient(ctx context.Context, cl Client, query string, every time.Duration, rounds int, pump func(time.Duration)) ([]Sample, error) {
	query, every, err := monitorQuery(query, every)
	if err != nil {
		return nil, err
	}
	if rounds <= 0 {
		return nil, fmt.Errorf("%w: monitor needs a positive round count", ErrParse)
	}
	if pump == nil {
		pump = time.Sleep
	}
	// On a real deployment the callback runs on the agent's goroutine,
	// not the caller's.
	var mu sync.Mutex
	out := make([]Sample, 0, rounds)
	collected := func() []Sample {
		mu.Lock()
		defer mu.Unlock()
		return out
	}
	sub, err := cl.Subscribe(ctx, query, func(s Sample) {
		mu.Lock()
		defer mu.Unlock()
		if len(out) < rounds {
			out = append(out, s)
		}
	})
	if err != nil {
		return nil, err
	}
	defer sub.Unsubscribe()
	// One sample arrives per period; the generous cap keeps a stalled
	// subscription from hanging the caller.
	for i := 0; len(collected()) < rounds && i < 4*rounds+64; i++ {
		if err := ctx.Err(); err != nil {
			return collected(), err
		}
		pump(every)
	}
	got := collected()
	if len(got) < rounds {
		return got, fmt.Errorf("moara: monitor collected %d/%d samples", len(got), rounds)
	}
	return got, nil
}

// monitorQuery validates the query text and folds the every parameter
// into it when the text has no `every` clause of its own.
func monitorQuery(query string, every time.Duration) (string, time.Duration, error) {
	req, err := ParseRequest(query)
	if err != nil {
		return "", 0, err
	}
	if req.Period > 0 {
		return query, req.Period, nil
	}
	if every <= 0 {
		return "", 0, fmt.Errorf("%w: monitor needs a positive interval", ErrNotStanding)
	}
	return fmt.Sprintf("%s every %s", query, every), every, nil
}

// GroupSeries pivots grouped monitoring samples into one time series
// per group key: series[key][r] is key's aggregate value in round r (an
// invalid Value for rounds where the key was absent). Keys are collected
// across the whole window, so a group that appears mid-run gets a
// full-length, left-padded series.
func GroupSeries(samples []Sample) map[string][]Value {
	series := make(map[string][]Value)
	for r, s := range samples {
		for k, agg := range s.Result.Groups {
			if _, ok := series[k]; !ok {
				series[k] = make([]Value, len(samples))
			}
			series[k][r] = agg.Value
		}
	}
	return series
}
