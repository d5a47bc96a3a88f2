//go:build !race

package profile

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
