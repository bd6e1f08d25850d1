//go:build !race

package main

// raceEnabled reports whether the race detector is compiled in; the
// EXPERIMENTS.md check skips under it, since rerunning every documented
// experiment takes minutes there and the tier-1 run already covers it.
const raceEnabled = false
