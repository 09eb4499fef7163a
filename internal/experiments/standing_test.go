package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestStandingShape asserts the standing-query headline at the issue's
// target scale (N=300, 16 Zipf slices): an installed standing query's
// per-epoch message cost is at most half of a fresh one-shot
// dissemination, and grouped standing epochs cost no more messages
// than scalar ones.
func TestStandingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	tab := RunStanding(StandingOptions{N: 300, Slices: 16, Epochs: 20, Period: 200 * time.Millisecond, Seed: 1})
	byLabel := map[string]float64{}
	for _, row := range tab.Rows {
		key := row[0]
		switch {
		case strings.HasPrefix(key, "poll scalar"):
			key = "pollScalar"
		case strings.HasPrefix(key, "standing scalar"):
			key = "standScalar"
		case strings.HasPrefix(key, "poll grouped"):
			key = "pollGrouped"
		case strings.HasPrefix(key, "standing grouped"):
			key = "standGrouped"
		}
		byLabel[key] = parseF(t, row[2])
		t.Log(row)
	}
	pollScalar, standScalar := byLabel["pollScalar"], byLabel["standScalar"]
	pollGrouped, standGrouped := byLabel["pollGrouped"], byLabel["standGrouped"]
	if standScalar > 0.5*pollScalar {
		t.Errorf("standing scalar epochs cost %.1f msgs, want <= 0.5x poll (%.1f)",
			standScalar, pollScalar)
	}
	if standGrouped > 0.5*pollGrouped {
		t.Errorf("standing grouped epochs cost %.1f msgs, want <= 0.5x poll (%.1f)",
			standGrouped, pollGrouped)
	}
	// The keyed in-tree merge makes grouped epochs ride the same report
	// stream as scalar ones: no per-key message amplification.
	if standGrouped > 1.02*standScalar {
		t.Errorf("grouped standing epochs cost %.1f msgs vs scalar %.1f, want parity",
			standGrouped, standScalar)
	}
}
