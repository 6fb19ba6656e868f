//go:build race

package estimate

// raceEnabled reports whether the race detector is compiled in; timing
// assertions skip under it.
const raceEnabled = true
