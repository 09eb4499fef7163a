//go:build !race

package cluster

import (
	"runtime"
	"testing"
)

// TestNodeFootprint bounds the live heap an idle node holds right after
// an oracle boot: whatever a node allocates up front, every node pays
// for at every N. Routing rows and the node-logic random source are
// allocated on first use, so unused ones cost nothing here; the sharded
// engine's extra is the per-sender latency stream, which every send
// draws. Race instrumentation inflates the heap, hence the build tag.
func TestNodeFootprint(t *testing.T) {
	const n = 2000
	for _, tc := range []struct {
		name   string
		shards int
		budget float64 // bytes per node
	}{
		{"classic", 0, 6 << 10},
		{"shards=2", 2, 12 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := liveHeap()
			c := New(Options{N: n, Seed: 1, Shards: tc.shards})
			perNode := float64(liveHeap()-before) / n
			runtime.KeepAlive(c)
			t.Logf("%s: %.1f KB live heap per idle node", tc.name, perNode/1024)
			if perNode > tc.budget {
				t.Errorf("%s: an idle node holds %.1f KB, budget %.1f KB", tc.name, perNode/1024, tc.budget/1024)
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
