//go:build !race

package table

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
