//go:build !race

package serve

// raceEnabled reports whether the race detector instruments this build;
// allocation counts that depend on sync.Pool are not asserted under it.
const raceEnabled = false
