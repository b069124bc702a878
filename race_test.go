//go:build race

package sring

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
