package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
)

// Fig11aOptions parameterize the separate-query-plane scaling
// experiment: query cost vs system size for (group size, threshold)
// combinations.
type Fig11aOptions struct {
	Sizes      []int // paper: up to 16,384 (FreePastry simulator)
	GroupSizes []int // paper: 8, 32, 128
	Thresholds []int // paper: 1, 2, 4
	Queries    int   // paper: 1,000
	Seed       int64
}

// Defaults fills the paper's parameters.
func (o Fig11aOptions) Defaults() Fig11aOptions {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{16, 64, 256, 1024, 4096, 16384}
	}
	if len(o.GroupSizes) == 0 {
		o.GroupSizes = []int{8, 32, 128}
	}
	if len(o.Thresholds) == 0 {
		o.Thresholds = []int{1, 2, 4}
	}
	if o.Queries == 0 {
		o.Queries = 1000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// sqpCosts runs Queries identical group queries on a fresh cluster and
// returns (avg query cost, total update cost) in messages. With warm=0
// the query cost includes the cold-start broadcast amortized over all
// queries, exactly as the paper does; warm>0 first runs that many
// unmeasured queries to isolate steady state.
func sqpCosts(n, groupSize, threshold, queries, warm int, seed int64) (queryCost float64, updateCost float64) {
	c := cluster.New(cluster.Options{
		N:    n,
		Seed: seed,
		Node: core.Config{Threshold: threshold},
	})
	rng := rand.New(rand.NewSource(seed + 31))
	members := rng.Perm(n)
	if groupSize > n {
		groupSize = n
	}
	setGroup(c, "A", members[:groupSize])
	poll(c, warm, 0, nil, groupReq)
	if warm > 0 {
		c.RunFor(2 * time.Second)
		c.Net.ResetCounter()
	}
	poll(c, queries, 0, wantSum(fmt.Sprintf("fig11 n=%d t=%d", n, threshold), groupSize), groupReq)
	kinds := c.Net.Counter().ByKind()
	qmsgs := float64(kinds["moara.query"] + kinds["moara.resp"])
	umsgs := float64(kinds["moara.status"])
	return qmsgs / float64(queries), umsgs
}

// RunFig11a reproduces Fig. 11(a): average query cost vs system size,
// with and without the separate query plane.
func RunFig11a(opt Fig11aOptions) *Table {
	opt = opt.Defaults()
	t := &Table{
		Title: "Fig. 11(a): SQP query cost vs number of nodes",
		Note: fmt.Sprintf("%d queries per cell; avg messages per query; series (groupsize,threshold)",
			opt.Queries),
		Columns: []string{"nodes"},
	}
	for _, m := range opt.GroupSizes {
		for _, th := range opt.Thresholds {
			t.Columns = append(t.Columns, fmt.Sprintf("(%d,%d)", m, th))
		}
	}
	for _, n := range opt.Sizes {
		row := []string{itoa(n)}
		for _, m := range opt.GroupSizes {
			for _, th := range opt.Thresholds {
				if m > n {
					row = append(row, "-")
					continue
				}
				qc, _ := sqpCosts(n, m, th, opt.Queries, 0, opt.Seed)
				row = append(row, f1(qc))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Fig11bOptions parameterize the cost/update tradeoff experiment at a
// fixed system size.
type Fig11bOptions struct {
	N          int   // paper: 8,192
	GroupSizes []int // paper: subset sizes, log-spaced
	Thresholds []int // paper: 2, 4, 16 (relative to 1)
	Queries    int
	Seed       int64
}

// Defaults fills the paper's parameters.
func (o Fig11bOptions) Defaults() Fig11bOptions {
	if o.N == 0 {
		o.N = 8192
	}
	if len(o.GroupSizes) == 0 {
		o.GroupSizes = []int{8, 32, 128, 512, 2048, 8192}
	}
	if len(o.Thresholds) == 0 {
		o.Thresholds = []int{2, 4, 16}
	}
	if o.Queries == 0 {
		o.Queries = 1000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// RunFig11b reproduces Fig. 11(b): query cost as % of the threshold=1
// cost, and update cost as % of the threshold=1 update cost, vs group
// size.
func RunFig11b(opt Fig11bOptions) *Table {
	opt = opt.Defaults()
	t := &Table{
		Title: "Fig. 11(b): SQP query/update costs vs subset size",
		Note: fmt.Sprintf("N=%d, %d queries; qc%% = query cost vs threshold=1, uc%% = update cost vs threshold=1",
			opt.N, opt.Queries),
		Columns: []string{"subset"},
	}
	for _, th := range opt.Thresholds {
		t.Columns = append(t.Columns, fmt.Sprintf("qc%%,t=%d", th), fmt.Sprintf("uc%%,t=%d", th))
	}
	for _, m := range opt.GroupSizes {
		if m > opt.N {
			continue
		}
		baseQC, baseUC := sqpCosts(opt.N, m, 1, opt.Queries, 0, opt.Seed)
		row := []string{itoa(m)}
		for _, th := range opt.Thresholds {
			qc, uc := sqpCosts(opt.N, m, th, opt.Queries, 0, opt.Seed)
			qp := 100 * qc / baseQC
			up := 100.0
			if baseUC > 0 {
				up = 100 * uc / baseUC
			}
			row = append(row, f1(qp), f1(up))
		}
		t.AddRow(row...)
	}
	return t
}
