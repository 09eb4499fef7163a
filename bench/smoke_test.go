package main

import (
	"sync"
	"testing"
)

// The chase ring takes a moment to build; the smoke tests share one.
var testProber = sync.OnceValue(newProber)

// TestSmoke runs every workload end to end at N=16 with one block: the
// set-up (twice, so that teardown and a second boot on the same ports
// are covered), the block, the oracle check and the summary.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			p := params{workload: name, seed: 7, seconds: 2, n: 16, blocks: 1, setups: 2}
			w, err := newWorkload(p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(w, p, testProber())
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Errorf("%d of %d failed: %v", res.failed, res.attempted, res.firstErr)
			}
			if res.attempted == 0 {
				t.Error("nothing attempted")
			}
			for _, def := range endToEnd {
				if def.name == "setup_s" || def.name == "peak_rss_mb" {
					continue // added by runOne
				}
				if v, ok := res.sum.norm[def.name]; !ok || !(v > 0) {
					t.Errorf("%s = %v, want a positive value", def.name, v)
				}
			}
		})
	}
}
