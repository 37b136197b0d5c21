//go:build race

package main

// raceEnabled lets timing comparisons skip themselves under the race
// detector, whose slowdown is not uniform across code paths.
const raceEnabled = true
