//go:build !race

package aggregate

const raceEnabled = false
