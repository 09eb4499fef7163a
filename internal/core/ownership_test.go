package core

import (
	"fmt"
	"reflect"
	"slices"
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
// four workers, so pooled queries, responses, statuses, reports and
// batches are drawn and handed back on every shard at once. Every answer
// must equal a brute-force fold. A handler that keeps a delivered message
// past Handle reads it zeroed, and a message handed back twice goes out
// to two senders at once; either corrupts an answer here. Between rounds
// members flip in and out of a group in bursts a few milliseconds apart,
// so a parent sends its next status while its last one is in flight, and
// every status must reach its parent as it was sent: a sender that
// writes into a status it no longer owns shows there.
func TestPooledMessageOwnership(t *testing.T) {
	const n, rounds, period = 16, 4, 200 * time.Millisecond
	var mu sync.Mutex
	var failures []error
	fail := func(err error) {
		mu.Lock()
		failures = append(failures, err)
		mu.Unlock()
	}
	statuses := newStatusFlights(fail)
	net := simnet.New(simnet.Options{Seed: 11, Shards: 4, ShardWorkers: 4,
		Latency: simnet.Uniform(5*time.Millisecond, 15*time.Millisecond),
		Drop: func(from, to ids.ID, m any) bool {
			statuses.sent(from, to, m)
			return false
		}})
	members := make([]ids.ID, n)
	for i := range members {
		members[i] = ids.FromUint64(uint64(i*2654435761 + 1))
	}
	oracle := pastry.NewOracle(members)
	nodes := make([]*Node, n)
	inH := make([]bool, n)
	for i, id := range members {
		env := net.AddNode(id)
		// Policy windows of 8 events keep the churning group's tree in
		// UPDATE through a burst of flips (the default flips a node to
		// NO-UPDATE at its first change, which silences its statuses).
		nodes[i] = NewNode(env, Config{SubTTL: time.Hour, KUpdate: 8, KNoUpdate: 8}, pastry.Config{})
		env.BindHandler(statusChecked{nodes[i], statuses})
		oracle.Fill(nodes[i].Overlay())
		nodes[i].Store().SetInt("v", int64(i+1))
		nodes[i].Store().SetBool("g", i%3 == 0)
		nodes[i].Store().SetString("k", fmt.Sprintf("k%d", i%4))
		inH[i] = i%2 == 0
		nodes[i].Store().SetBool("h", inH[i])
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
	// Group h churns between rounds: four members flip five times, 2 ms
	// apart. Its one-shots keep its tree in UPDATE, so that every flip
	// sends statuses; their answers are not checked, because a status
	// overtaken in flight by its sender's next one leaves the parent's
	// view stale until the next change.
	hReq, err := ParseRequest("sum(v) where h = true")
	if err != nil {
		t.Fatal(err)
	}
	streams := []foldCase{
		{text: "sum(v)", match: all, fold: sum},
		{text: "count(*) group by k", match: all, key: byK, fold: sum, count: true},
		{text: "max(v) where g = true", match: inG, fold: maxOf},
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
		for q := 0; q < 2; q++ {
			pending.Add(1)
			nodes[(3*q+r)%n].Execute(hReq, func(_ Result, err error) {
				defer pending.Add(-1)
				if err != nil {
					fail(fmt.Errorf("round %d: sum(v) where h = true: %w", r, err))
				}
			})
		}
		net.RunWhile(func() bool { return pending.Load() > 0 })
		if pending.Load() > 0 {
			t.Fatalf("round %d: %d one-shots never answered", r, pending.Load())
		}
		for flip := 0; flip < 5; flip++ {
			for j := 0; j < 4; j++ {
				i := (4*r + j) % n
				inH[i] = !inH[i]
				nodes[i].Store().SetBool("h", inH[i])
			}
			net.RunFor(2 * time.Millisecond)
		}
		net.RunFor(period)
	}
	net.RunFor(20 * period)
	for i, fc := range streams {
		if warm[i].Load() < 5 {
			t.Errorf("stream %s: %d warm samples, want at least 5", fc.text, warm[i].Load())
		}
	}
	if statuses.overlaps == 0 {
		t.Errorf("%d statuses sent, none while another from its sender for its group was in flight", statuses.count)
	}
	t.Logf("%d statuses, %d sent while the last for their group was in flight", statuses.count, statuses.overlaps)
	for _, err := range failures {
		t.Error(err)
	}
}

// statusFlights keeps a copy of every status in flight, taken when its
// sender hands it to the network, and checks at delivery that the status
// still reads as sent.
type statusFlights struct {
	mu       sync.Mutex
	flying   map[*StatusMsg]statusFlight
	fail     func(error)
	count    int
	overlaps int // statuses sent while one with the same ends and group was in flight
}

type statusFlight struct {
	from, to ids.ID
	sent     StatusMsg
}

func newStatusFlights(fail func(error)) *statusFlights {
	return &statusFlights{flying: make(map[*StatusMsg]statusFlight), fail: fail}
}

// eachStatus calls f on every status m carries, batch items included.
func eachStatus(m any, f func(*StatusMsg)) {
	switch m := m.(type) {
	case *StatusMsg:
		f(m)
	case *BatchMsg:
		for _, it := range m.Items {
			eachStatus(it, f)
		}
	}
}

// sent records the statuses m carries from one node to another.
func (s *statusFlights) sent(from, to ids.ID, m any) {
	eachStatus(m, func(sm *StatusMsg) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, f := range s.flying {
			if f.from == from && f.to == to && f.sent.Group == sm.Group {
				s.overlaps++
				break
			}
		}
		s.count++
		c := *sm
		c.UpdateSet = slices.Clone(sm.UpdateSet)
		s.flying[sm] = statusFlight{from: from, to: to, sent: c}
	})
}

// delivered checks the statuses m carries against their copies.
func (s *statusFlights) delivered(from ids.ID, m any) {
	eachStatus(m, func(sm *StatusMsg) {
		s.mu.Lock()
		f, ok := s.flying[sm]
		delete(s.flying, sm)
		s.mu.Unlock()
		if !ok || f.from != from || !reflect.DeepEqual(*sm, f.sent) {
			s.fail(fmt.Errorf("status from %s reads %+v at delivery, was sent as %+v (recorded %v)", from.Short(), *sm, f.sent, ok))
		}
	})
}

// statusChecked checks each status a node receives before the node
// handles it.
type statusChecked struct {
	*Node
	statuses *statusFlights
}

func (h statusChecked) Handle(from ids.ID, m any) {
	h.statuses.delivered(from, m)
	h.Node.Handle(from, m)
}

// TestStatusSendAllocBudget: a warm status update allocates nothing. On
// a two-node cluster a member flips in and out of its group; each flip
// sends the tree parent a PRUNE or NO-PRUNE status drawn from the status
// free list with the update-set buffer it kept, and the parent's Handle
// files it and hands it back. A by-value status boxed per send, or a
// fresh update set per send, shows here.
func TestStatusSendAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled messages at random")
	}
	const group = "x = true"
	net, nodes := miniCluster(t, 2, Config{Mode: ModeAlwaysUpdate})
	parent, child := nodes[0], nodes[1]
	ps, err := child.groupOf(group)
	if err != nil {
		t.Fatal(err)
	}
	ps.setLevel(1)
	ps.adopt(parent.self, false)
	in := false
	flip := func() {
		in = !in
		child.Store().SetBool("x", in)
		net.RunFor(100 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		flip()
	}
	sent := net.Counter().Logical("moara.status")
	if avg := testing.AllocsPerRun(100, flip); avg > 0 {
		t.Errorf("a warm status send, delivery and handling allocates %.1f objects, want 0", avg)
	}
	if got := net.Counter().Logical("moara.status") - sent; got < 100 {
		t.Fatalf("%d statuses sent over 101 flips, want one per flip", got)
	}
	cs := parent.groups[group].children.get(child.self)
	if cs == nil || cs.Prune == in || (len(cs.UpdateSet) == 1) != in {
		t.Fatalf("the parent holds %+v for a child in the group: %v", cs, in)
	}
}
