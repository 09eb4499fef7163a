package experiments

// Seeded-equivalence lock for the perf work on the simulator, the
// aggregation engine, and the standing-query epoch path: with a fixed
// seed, a run's observable behavior — every Result, every Sample
// (including virtual-time latencies), and the logical/wire message
// accounting — must be byte-identical to the committed reference.
// go test -run Seeded -update-seeded regenerates the golden transcripts
// under testdata/seeded: do that only for a deliberate change of the
// simulator's semantics, never to paper over a diff. Any optimization
// that changes scheduling order, rng consumption, float accumulation
// order, or counter semantics shows up here as a transcript diff, in
// the spirit of TestCoalesceEquivalence.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/value"
)

var updateSeeded = flag.Bool("update-seeded", false, "regenerate testdata/seeded transcripts (deliberate simulator changes only)")

// transcript accumulates the observable behavior of one scenario.
type transcript struct {
	b strings.Builder
}

func (tr *transcript) logf(format string, args ...any) {
	fmt.Fprintf(&tr.b, format+"\n", args...)
}

// logResult records every observable field of a one-shot result.
func (tr *transcript) logResult(tag string, res core.Result) {
	tr.logf("%s agg=%s contrib=%d expected=%.6f trunc=%v total=%v query=%v probe=%v probed=%d keys=%d",
		tag, res.Agg.String(), res.Contributors, res.Expected, res.Truncated,
		res.Stats.TotalTime, res.Stats.QueryTime, res.Stats.ProbeTime,
		res.Stats.Probed, res.Stats.GroupKeys)
	keys := make([]string, 0, len(res.Groups))
	for k := range res.Groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		tr.logf("%s   group %q = %s", tag, k, res.Groups[k].String())
	}
}

// logSample records every observable field of a standing-query sample.
func (tr *transcript) logSample(tag string, s core.Sample) {
	tr.logf("%s epoch=%d root=%d at=%v lag=%v cold=%v contrib=%d expected=%.6f agg=%s",
		tag, s.Epoch, s.RootEpoch, s.At, s.Lag, s.ColdStart, s.Contributors, s.Expected, s.Result.Agg.String())
	keys := make([]string, 0, len(s.Result.Groups))
	for k := range s.Result.Groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		tr.logf("%s   group %q = %s", tag, k, s.Result.Groups[k].String())
	}
}

// logCounters pins the full message accounting: logical and wire
// totals, the per-kind breakdown, and an order-independent digest of
// the per-node send/receive counts (so the dense-counter refactor must
// preserve every per-node cell, not just the totals).
func (tr *transcript) logCounters(c *cluster.Cluster) {
	ctr := c.Net.Counter()
	tr.logf("counter total=%d wire=%d", ctr.Total, ctr.Wire)
	byKind, wireByKind := ctr.ByKind(), ctr.WireByKind()
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		tr.logf("counter kind %s logical=%d wire=%d", k, byKind[k], wireByKind[k])
	}
	var sentDigest, recvDigest uint64
	byNode, recvByNode := ctr.ByNode(), ctr.RecvByNode()
	for id, n := range byNode {
		sentDigest += nodeDigest(id) * uint64(n)
	}
	for id, n := range recvByNode {
		recvDigest += nodeDigest(id) * uint64(n)
	}
	tr.logf("counter pernode senders=%d sentdigest=%d receivers=%d recvdigest=%d",
		len(byNode), sentDigest, len(recvByNode), recvDigest)
}

// nodeDigest maps an ID to a stable small mixing factor.
func nodeDigest(id ids.ID) uint64 {
	var h uint64 = 1469598103934665603
	for _, b := range id {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h | 1
}

// seedEquivNodes writes the deterministic attribute state every
// scenario starts from. Integer mem values keep sums exact; the float
// load attribute exercises float accumulation order.
func seedEquivNodes(c *cluster.Cluster) {
	slices := []string{"alpha", "beta", "gamma", "delta"}
	for i, nd := range c.Nodes {
		nd.Store().Set("mem", value.Int(int64(i*17%101)))
		nd.Store().SetFloat("load", float64(i%37)*1.375)
		nd.Store().SetString("slice", slices[i%len(slices)])
		nd.Store().SetBool("apache", i%3 == 0)
	}
}

// scenarioOneShot runs a battery of one-shot queries — scalar,
// filtered, grouped, list-valued, composite-cover — on a mid-size
// Emulab-model cluster and transcribes every result and the full
// message accounting.
func scenarioOneShot(tr *transcript) {
	c := cluster.New(cluster.Options{N: 120, Seed: 7}.Emulab())
	seedEquivNodes(c)
	queries := []string{
		"avg(mem)",
		"count(*) where apache = true",
		"sum(mem) where apache = true and slice = alpha",
		"avg(load) group by slice",
		"top3(mem) where slice = beta",
		"enum(mem) where slice = gamma and apache = true",
		"std(load)",
		"min(mem) where apache = true or slice = delta",
	}
	for _, q := range queries {
		res, err := c.ExecuteText(0, q)
		if err != nil {
			tr.logf("query %q error: %v", q, err)
			continue
		}
		tr.logResult(fmt.Sprintf("query %q", q), res)
	}
	tr.logf("virtual now=%v", c.Net.Now())
	tr.logCounters(c)
}

// scenarioStanding installs scalar and grouped standing queries and
// transcribes every delivered sample over a fixed horizon, then the
// unsubscribe teardown and final accounting.
func scenarioStanding(tr *transcript) {
	c := cluster.New(cluster.Options{N: 120, Seed: 11, Node: core.Config{SubTTL: 60 * time.Second}}.Emulab())
	seedEquivNodes(c)
	period := 200 * time.Millisecond

	req, err := core.ParseRequest("avg(mem) group by slice")
	if err != nil {
		tr.logf("parse error: %v", err)
		return
	}
	req.Period = period
	sid, err := c.Subscribe(0, req, func(s core.Sample) { tr.logSample("standing", s) })
	if err != nil {
		tr.logf("subscribe error: %v", err)
		return
	}
	sreq, err := core.ParseRequest("count(*) where apache = true")
	if err != nil {
		tr.logf("parse error: %v", err)
		return
	}
	sreq.Period = period
	sid2, err := c.Subscribe(0, sreq, func(s core.Sample) { tr.logSample("filtered", s) })
	if err != nil {
		tr.logf("subscribe error: %v", err)
		return
	}
	c.RunFor(14 * period)
	c.Unsubscribe(0, sid)
	c.Unsubscribe(0, sid2)
	c.RunFor(2 * period)
	tr.logf("virtual now=%v", c.Net.Now())
	tr.logCounters(c)
}

// scenarioChurn runs a standing query and interleaved one-shot polls
// through a deterministic kill/join/recover schedule with the liveness
// path (heartbeats, obituaries, repair probes) enabled, transcribing
// samples, results, and accounting.
func scenarioChurn(tr *transcript) {
	period := 200 * time.Millisecond
	c := cluster.New(cluster.Options{
		N:    96,
		Seed: 13,
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
	})
	seedEquivNodes(c)

	req, err := core.ParseRequest("sum(mem)")
	if err != nil {
		tr.logf("parse error: %v", err)
		return
	}
	req.Period = period
	if _, err := c.Subscribe(0, req, func(s core.Sample) { tr.logSample("churn", s) }); err != nil {
		tr.logf("subscribe error: %v", err)
		return
	}
	c.RunFor(8 * period)

	// A fixed churn script: kills, a join, recoveries, at fixed virtual
	// times relative to the warm-up end.
	c.Kill(17)
	c.RunFor(3 * period)
	c.Kill(41)
	c.Kill(63)
	c.RunFor(4 * period)
	ni := c.AddNode()
	c.Nodes[ni].Store().Set("mem", value.Int(55))
	c.RunFor(4 * period)
	c.Recover(17)
	c.RunFor(3 * period)
	c.Recover(41)
	c.RunFor(4 * period)

	res, err := c.ExecuteText(0, "sum(mem)")
	if err != nil {
		tr.logf("oneshot error: %v", err)
	} else {
		tr.logResult("oneshot post-churn", res)
	}
	c.RunFor(2 * period)
	tr.logf("virtual now=%v live=%d", c.Net.Now(), c.LiveCount())
	tr.logCounters(c)
}

// TestSeededEquivalence replays each scenario against its committed
// transcript.
func TestSeededEquivalence(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(*transcript)
	}{
		{"oneshot", scenarioOneShot},
		{"standing", scenarioStanding},
		{"churn", scenarioChurn},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var tr transcript
			sc.run(&tr)
			got := tr.b.String()
			path := filepath.Join("testdata", "seeded", sc.name+".txt")
			if *updateSeeded {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden transcript (generate with -update-seeded): %v", err)
			}
			if got != string(want) {
				t.Fatalf("seeded run diverged from reference %s:\n%s",
					path, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff renders the first differing line with context.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s\n(%d vs %d lines total)",
				i+1, w, g, len(wl), len(gl))
		}
	}
	return "transcripts equal?"
}
