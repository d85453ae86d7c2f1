//go:build race

package sel

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped under it.
const raceEnabled = true
