//go:build !race

package keys

// raceEnabled scales the generated-corpus fixtures down when the race
// detector (with its ~10x slowdown) is on.
const raceEnabled = false
