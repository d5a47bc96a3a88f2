//go:build race

package table

// raceEnabled reports whether the race detector is on; under it
// sync.Pool randomly drops Puts, so allocation counts mean nothing.
const raceEnabled = true
