//go:build race

package engine

// raceEnabled reports whether the race detector is compiled in; alloc-count
// assertions skip under it, since the race runtime perturbs AllocsPerRun.
const raceEnabled = true
