//go:build race

package repro

// raceEnabled reports whether the race detector instruments this build;
// its runtime allocates on its own, so allocation counts mean nothing.
const raceEnabled = true
