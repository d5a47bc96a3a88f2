//go:build race

package keys

// raceEnabled scales the generated-corpus fixtures down when the race
// detector (with its ~10x slowdown) is on, keeping `go test -race`
// within a few minutes on small machines.
const raceEnabled = true
