package main

import (
	"testing"

	"github.com/moara/moara"
)

// TestNodeArgRejectsBadIndex checks that `subs N` and `trees N` refuse
// an index that names no node instead of showing node 0.
func TestNodeArgRejectsBadIndex(t *testing.T) {
	c := moara.NewSimCluster(4)
	for _, line := range []string{"subs 4", "subs -1", "trees x"} {
		if i, ok := nodeArg(c, line); ok {
			t.Errorf("nodeArg(%q) = %d, want a refusal", line, i)
		}
	}
	for line, want := range map[string]int{"subs": 0, "trees": 0, "subs 3": 3} {
		if i, ok := nodeArg(c, line); !ok || i != want {
			t.Errorf("nodeArg(%q) = %d, %v; want %d", line, i, ok, want)
		}
	}
}
