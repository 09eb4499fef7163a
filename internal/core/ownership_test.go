package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/simnet"
	"github.com/moara/moara/internal/value"
)

// foldCase is one query of the ownership test beside its brute-force
// answer: which nodes match, how a node keys its contribution, and how
// contributions fold.
type foldCase struct {
	text  string
	match func(i int) bool
	key   func(i int) string // nil for a scalar query
	fold  func(acc, v int64) int64
	count bool // count(*): every member contributes 1
}

// want folds the case over every node by hand: the answer, the per-key
// answers of a grouped query, and the number of contributors.
func (fc foldCase) want(n int) (string, map[string]string, int64) {
	var total int64
	var members int64
	groups := map[string]int64{}
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		if !fc.match(i) {
			continue
		}
		v := int64(i + 1)
		if fc.count {
			v = 1
		}
		if members == 0 {
			total = v
		} else {
			total = fc.fold(total, v)
		}
		members++
		if fc.key != nil {
			k := fc.key(i)
			if seen[k] {
				groups[k] = fc.fold(groups[k], v)
			} else {
				groups[k], seen[k] = v, true
			}
		}
	}
	var byKey map[string]string
	if fc.key != nil {
		byKey = make(map[string]string, len(groups))
		for k, v := range groups {
			byKey[k] = value.Int(v).String()
		}
	}
	return value.Int(total).String(), byKey, members
}

// check compares one answer with the brute-force fold.
func (fc foldCase) check(n int, res Result) error {
	total, groups, members := fc.want(n)
	if got := res.Agg.Value.String(); got != total {
		return fmt.Errorf("%s: answer %s, want %s", fc.text, got, total)
	}
	if res.Contributors != members {
		return fmt.Errorf("%s: %d contributors, want %d", fc.text, res.Contributors, members)
	}
	if len(res.Groups) != len(groups) {
		return fmt.Errorf("%s: %d groups, want %d", fc.text, len(res.Groups), len(groups))
	}
	for k, want := range groups {
		if got := res.Groups[k].Value.String(); got != want {
			return fmt.Errorf("%s: group %s answers %s, want %s", fc.text, k, got, want)
		}
	}
	return nil
}

// TestPooledMessageOwnership runs one-shot floods, grouped one-shots and
// standing streams side by side on 16 nodes spread over four shards and
// four workers, so pooled queries, responses, reports and batches are
// drawn and handed back on every shard at once. Every answer must equal
// a brute-force fold. A handler that keeps a delivered message past
// Handle reads it zeroed, and a message handed back twice goes out to
// two senders at once; either corrupts an answer here.
func TestPooledMessageOwnership(t *testing.T) {
	const n, rounds, period = 16, 4, 200 * time.Millisecond
	net := simnet.New(simnet.Options{Seed: 11, Shards: 4, ShardWorkers: 4,
		Latency: simnet.Uniform(5*time.Millisecond, 15*time.Millisecond)})
	members := make([]ids.ID, n)
	for i := range members {
		members[i] = ids.FromUint64(uint64(i*2654435761 + 1))
	}
	oracle := pastry.NewOracle(members)
	nodes := make([]*Node, n)
	for i, id := range members {
		env := net.AddNode(id)
		nodes[i] = NewNode(env, Config{SubTTL: time.Hour}, pastry.Config{})
		env.BindHandler(nodes[i])
		oracle.Fill(nodes[i].Overlay())
		nodes[i].Store().SetInt("v", int64(i+1))
		nodes[i].Store().SetBool("g", i%3 == 0)
		nodes[i].Store().SetString("k", fmt.Sprintf("k%d", i%4))
	}
	all := func(int) bool { return true }
	inG := func(i int) bool { return i%3 == 0 }
	byK := func(i int) string { return fmt.Sprintf("k%d", i%4) }
	sum := func(a, v int64) int64 { return a + v }
	maxOf := func(a, v int64) int64 { return max(a, v) }
	oneShots := []foldCase{
		{text: "count(*)", match: all, fold: sum, count: true},
		{text: "sum(v)", match: all, fold: sum},
		{text: "max(v)", match: all, fold: maxOf},
		{text: "sum(v) where g = true", match: inG, fold: sum},
		{text: "sum(v) group by k", match: all, key: byK, fold: sum},
		{text: "count(*) where g = true group by k", match: inG, key: byK, fold: sum, count: true},
	}
	streams := []foldCase{
		{text: "sum(v)", match: all, fold: sum},
		{text: "count(*) group by k", match: all, key: byK, fold: sum, count: true},
		{text: "max(v) where g = true", match: inG, fold: maxOf},
	}

	var mu sync.Mutex
	var failures []error
	fail := func(err error) {
		mu.Lock()
		failures = append(failures, err)
		mu.Unlock()
	}
	warm := make([]atomic.Int64, len(streams))
	for i, fc := range streams {
		req, err := ParseRequest(fc.text)
		if err != nil {
			t.Fatal(err)
		}
		req.Period = period
		if _, err := nodes[(5*i+3)%n].Subscribe(req, func(s Sample) {
			if s.ColdStart {
				return
			}
			warm[i].Add(1)
			if err := fc.check(n, s.Result); err != nil {
				fail(fmt.Errorf("stream %w", err))
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		var pending atomic.Int64
		for q, fc := range oneShots {
			req, err := ParseRequest(fc.text)
			if err != nil {
				t.Fatal(err)
			}
			pending.Add(1)
			nodes[(q+r*7)%n].Execute(req, func(res Result, err error) {
				defer pending.Add(-1)
				if err == nil {
					err = fc.check(n, res)
				}
				if err != nil {
					fail(fmt.Errorf("round %d: %w", r, err))
				}
			})
		}
		net.RunWhile(func() bool { return pending.Load() > 0 })
		if pending.Load() > 0 {
			t.Fatalf("round %d: %d one-shots never answered", r, pending.Load())
		}
	}
	net.RunFor(20 * period)
	for i, fc := range streams {
		if warm[i].Load() < 5 {
			t.Errorf("stream %s: %d warm samples, want at least 5", fc.text, warm[i].Load())
		}
	}
	for _, err := range failures {
		t.Error(err)
	}
}
