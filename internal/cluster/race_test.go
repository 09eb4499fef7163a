//go:build race

package cluster

// raceEnabled: the race detector drops sync.Pool entries at random, so
// a pooled message is not always handed out again under it.
const raceEnabled = true
