//go:build !race

package iodesign

// raceEnabled reports whether the race detector is compiled in; the
// allocation guards skip under it because the race runtime changes
// allocation counts.
const raceEnabled = false
