//go:build !race

package main

// raceEnabled reports a -race build, under which fig8's 100 000 random
// solutions take minutes instead of seconds.
const raceEnabled = false
