package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/service"
	"github.com/moara/moara/internal/workload"
)

// MultiServiceOptions parameterize the query-service study: Q standing
// queries spanning Forms distinct normalized forms, served by the
// service front-end over one cluster. Not a paper figure — it measures
// the "millions of users" regime (§1) the paper's per-query cost model
// implies: when Q ≫ N and queries repeat, the wire bill must track the
// distinct-form count, not the subscriber count.
type MultiServiceOptions struct {
	N      int           // nodes (paper: 2000)
	Q      int           // concurrent standing subscriptions (paper: 10000)
	Forms  int           // distinct normalized forms among the Q (paper: 32)
	Slices int           // distinct slice values (paper: 16)
	Epochs int           // measured epochs per run (paper: 6)
	Period time.Duration // epoch length (paper: 200ms)
	Seed   int64
}

// msRender renders every observable sample field, so stream comparisons
// across runs are byte-exact — epochs, root epochs, virtual delivery
// times, lags, coverage, and values all participate.
func msRender(s core.Sample) string {
	return fmt.Sprintf("e%d|r%d|at%s|lag%s|cold%v|%s", s.Epoch, s.RootEpoch, s.At, s.Lag, s.ColdStart, sampleKey(s))
}

// msWindow is the pumped virtual time per run: enough for install
// dissemination and pipeline fill plus the measured epochs.
func msWindow(opt MultiServiceOptions) time.Duration {
	return time.Duration(opt.Epochs+8) * opt.Period
}

// msDirectRun installs the given distinct forms once each from node 0 —
// the cost floor any sharing layer is measured against — and returns
// the wire message bill over the window plus each form's full rendered
// stream.
func msDirectRun(opt MultiServiceOptions, reqs []core.Request) (wire int64, streams []string) {
	c := sliceCluster(opt.N, opt.Slices, opt.Seed, 0)
	collected := make([][]string, len(reqs))
	for i, req := range reqs {
		i := i
		if _, err := c.Subscribe(0, req, func(s core.Sample) {
			collected[i] = append(collected[i], msRender(s))
		}); err != nil {
			panic(err)
		}
	}
	c.RunFor(msWindow(opt))
	streams = make([]string, len(reqs))
	for i := range collected {
		if len(collected[i]) == 0 {
			panic(fmt.Sprintf("multiservice: direct form %d delivered no samples", i))
		}
		streams[i] = strings.Join(collected[i], "\n")
	}
	return c.WireQueryMessages(), streams
}

// msServiceRun subscribes all Q variant texts through the service front
// over an identically-seeded cluster and returns the wire bill, each
// subscriber's rendered stream, the form index each subscriber maps to,
// and the service stats.
func msServiceRun(opt MultiServiceOptions, texts []string, formOf []int) (wire int64, streams []string, stats service.Stats) {
	c := sliceCluster(opt.N, opt.Slices, opt.Seed, 0)
	svc := service.New(c.Client(0), service.Options{})
	ctx := context.Background()
	collected := make([][]string, len(texts))
	for i, text := range texts {
		i := i
		if _, err := svc.Subscribe(ctx, text, func(s core.Sample) {
			collected[i] = append(collected[i], msRender(s))
		}); err != nil {
			panic(err)
		}
	}
	c.RunFor(msWindow(opt))
	streams = make([]string, len(texts))
	for i := range collected {
		if len(collected[i]) == 0 {
			panic(fmt.Sprintf("multiservice: subscriber %d delivered no samples", i))
		}
		streams[i] = strings.Join(collected[i], "\n")
	}
	return c.WireQueryMessages(), streams, svc.Stats()
}

// msCachedOneShots measures the service's one-shot cache: rounds
// repeats of one query, re-issued every period with a TTL covering the
// whole run, cost one execution's wire messages.
func msCachedOneShots(opt MultiServiceOptions, rounds int) (execWire, totalWire int64, hits int64) {
	c := sliceCluster(opt.N, opt.Slices, opt.Seed, 0)
	svc := service.New(c.Client(0), service.Options{CacheTTL: time.Hour})
	ctx := context.Background()
	if _, err := svc.Query(ctx, "avg(mem_util)"); err != nil {
		panic(err)
	}
	execWire = c.WireQueryMessages()
	for r := 1; r < rounds; r++ {
		c.RunFor(opt.Period)
		if _, err := svc.Query(ctx, "avg( mem_util )"); err != nil {
			panic(err)
		}
	}
	return execWire, c.WireQueryMessages(), svc.Stats().CacheHits
}

// RunMultiService measures the query-service layer in the Q ≫ N regime.
// The headline: Q standing subscriptions spanning F normalized forms
// bill the wire for F installed queries — the ratio to the direct
// F-query run stays ~1.0 (acceptance bound 1.25) — and every subsumed
// subscriber's sample stream is byte-identical to the stream the same
// form delivers in an independent, service-less run.
func RunMultiService(opt MultiServiceOptions) *Table {
	texts := workload.ServiceQueries(opt.Q, opt.Forms, opt.Slices, opt.Period)

	// Distinct normalized forms in first-appearance order — the install
	// order the service will use, which the direct run must mirror for
	// an identical event schedule.
	var reqs []core.Request
	formOf := make([]int, len(texts))
	index := make(map[string]int)
	for i, text := range texts {
		req, err := core.ParseRequest(text)
		if err != nil {
			panic(err)
		}
		nreq := core.NormalizeRequest(req)
		key := core.CanonicalKey(nreq)
		f, ok := index[key]
		if !ok {
			f = len(reqs)
			index[key] = f
			reqs = append(reqs, nreq)
		}
		formOf[i] = f
	}

	directWire, directStreams := msDirectRun(opt, reqs)
	svcWire, svcStreams, stats := msServiceRun(opt, texts, formOf)

	identical := true
	for i := range svcStreams {
		if svcStreams[i] != directStreams[formOf[i]] {
			identical = false
			break
		}
	}
	ratio := float64(svcWire) / float64(directWire)

	const cacheRounds = 100
	execWire, cachedWire, hits := msCachedOneShots(opt, cacheRounds)

	t := &Table{
		Title: "Query service: Q >> N subsumption sharing, result caching",
		Note: fmt.Sprintf("N=%d (Emulab model), Q=%d subscriptions over %d forms, epoch=%v, window=%v",
			opt.N, opt.Q, len(reqs), opt.Period, msWindow(opt)),
		Columns: []string{"series", "subscriptions", "installs", "wire_msgs", "wire_vs_direct", "streams_identical"},
	}
	t.AddRow("direct (one per form)", fmt.Sprint(len(reqs)), fmt.Sprint(len(reqs)),
		fmt.Sprint(directWire), "1.00x", "")
	t.AddRow(fmt.Sprintf("service x%d", opt.Q), fmt.Sprint(opt.Q), fmt.Sprint(stats.Installs),
		fmt.Sprint(svcWire), fmt.Sprintf("%.2fx", ratio), fmt.Sprint(identical))
	t.AddRow(fmt.Sprintf("one-shot x%d (cached)", cacheRounds), fmt.Sprint(cacheRounds), "1",
		fmt.Sprint(cachedWire), fmt.Sprintf("%.2fx", float64(cachedWire)/float64(execWire)), "")
	t.Note += fmt.Sprintf("; service installs=%d attaches=%d, wire ratio=%.3fx (bound 1.25x), streams identical=%v, cache hits=%d/%d",
		stats.Installs, stats.Attaches, ratio, identical, hits, cacheRounds-1)
	if stats.Installs != int64(len(reqs)) {
		panic(fmt.Sprintf("multiservice: %d installs for %d forms", stats.Installs, len(reqs)))
	}
	return t
}
