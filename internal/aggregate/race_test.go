//go:build race

package aggregate

// raceEnabled: the race detector drops sync.Pool entries at random, so
// pool-reuse allocation counts do not hold under it.
const raceEnabled = true
