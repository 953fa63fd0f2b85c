//go:build race

package learn

// raceEnabled reports whether the race detector is compiled in; the
// scale-sensitive tests shrink their workloads under it (the detector
// multiplies both time and memory by an order of magnitude).
const raceEnabled = true
