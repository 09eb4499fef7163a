package core

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/simnet"
)

// pingMsg is one item of a test batch. Every item names its batch, its
// index and the batch length, so a receiver can tell whether the buffer
// it was handed is still the one its sender filled.
type pingMsg struct {
	batch uint64
	i, of int
	ttl   int
}

// batchChecker delivers to a core node after checking that every batch
// arrives exactly as its sender filled it.
type batchChecker struct {
	n      *Node
	broken *atomic.Int64
	seen   *atomic.Int64
}

func (c batchChecker) Handle(from ids.ID, m any) {
	if bm, ok := m.(BatchMsg); ok {
		c.seen.Add(1)
		// Pings sent to one node in one instant share a batch, so a
		// batch is a run of whole test batches, each in index order.
		var head pingMsg
		next := 0
		for _, it := range bm.Items {
			p, ok := it.(pingMsg)
			if next == head.of {
				head, next = p, 0
			}
			if !ok || p.batch != head.batch || p.i != next || p.of != head.of {
				c.broken.Add(1)
				break
			}
			next++
		}
	}
	c.n.Handle(from, m)
}

// TestBatchBufferOwnership pins who owns a BatchMsg's item buffer: the
// receiving node clears it once Handle returns and any later send may
// reuse it, and a batch a node hands over is never written again.
func TestBatchBufferOwnership(t *testing.T) {
	t.Run("handled-batch-is-cleared-and-reused", func(t *testing.T) {
		_, nodes := miniCluster(t, 2, Config{})
		a, b := nodes[0], nodes[1]
		items := []any{
			CancelMsg{SID: QueryID{Num: 1}, Group: "g"},
			CancelMsg{SID: QueryID{Num: 2}, Group: "g"},
		}
		a.Handle(b.Self(), BatchMsg{Items: items})
		for i, it := range items {
			if it != nil {
				t.Fatalf("item %d still set after Handle returned: %v", i, it)
			}
		}
		b.send(a.Self(), CancelMsg{SID: QueryID{Num: 3}, Group: "g"})
		if got := b.outItems[0]; &got[:1][0] != &items[0] {
			t.Fatal("the next send did not reuse the handled batch's buffer")
		}
	})

	t.Run("sent-batch-is-never-written", func(t *testing.T) {
		// Sixteen nodes on four shards and four workers bounce batches of
		// one to four pings; every delivered batch fills a new one, so the
		// free list is drawn from and refilled on every shard at once.
		const nodes, ttl = 16, 200
		net := simnet.New(simnet.Options{Seed: 7, Shards: 4, ShardWorkers: 4})
		var broken, seen atomic.Int64
		members := make([]ids.ID, nodes)
		for i := range members {
			members[i] = ids.FromUint64(uint64(i*2654435761 + 1))
		}
		ns := make([]*Node, nodes)
		for i, id := range members {
			env := net.AddNode(id)
			n := NewNode(env, Config{}, pastry.Config{})
			next, batches := members[(i+1)%nodes], uint64(i)<<32
			n.Fallback = func(_ ids.ID, m any) {
				p, ok := m.(pingMsg)
				if !ok || p.i != 0 || p.ttl == 0 {
					return
				}
				batches++
				of := 1 + int(batches%4)
				for k := 0; k < of; k++ {
					n.send(next, pingMsg{batch: batches, i: k, of: of, ttl: p.ttl - 1})
				}
			}
			env.BindHandler(batchChecker{n: n, broken: &broken, seen: &seen})
			ns[i] = n
		}
		for i, n := range ns {
			for k := 0; k < 3; k++ {
				n.send(members[(i+1)%nodes], pingMsg{batch: uint64(i)<<32 | 1<<31, i: k, of: 3, ttl: ttl})
			}
		}
		net.RunFor(time.Second)
		if b := broken.Load(); b > 0 {
			t.Fatalf("%d of %d delivered batches were written after their sender handed them over", b, seen.Load())
		}
		if seen.Load() < nodes*ttl/2 {
			t.Fatalf("only %d batches delivered", seen.Load())
		}
	})
}
