//go:build race

package partition

// raceEnabled reports whether the race detector instruments this build;
// allocation counts are not meaningful under it.
const raceEnabled = true
