//go:build !race

package cluster

import (
	"fmt"
	"runtime"
	"testing"
)

// TestNodeFootprint bounds the live heap an idle node holds right after
// an oracle boot: whatever a node allocates up front, every node pays
// for at every N. Routing rows and the node-logic random source are
// allocated on first use, so unused ones cost nothing here, and the
// per-sender latency stream every send draws is a 16-byte counter-based
// source. The shard count does not change the budget. Race
// instrumentation inflates the heap, hence the build tag.
func TestNodeFootprint(t *testing.T) {
	const n = 2000
	const budget = 6 << 10 // bytes per node
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			before := liveHeap()
			c := New(Options{N: n, Seed: 1, Shards: shards})
			perNode := float64(liveHeap()-before) / n
			runtime.KeepAlive(c)
			t.Logf("%.1f KB live heap per idle node", perNode/1024)
			if perNode > budget {
				t.Errorf("an idle node holds %.1f KB, budget %.1f KB", perNode/1024, float64(budget)/1024)
			}
		})
	}
}

// liveHeap returns the bytes of reachable heap objects after a full GC.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
