//go:build race

package iodesign

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
