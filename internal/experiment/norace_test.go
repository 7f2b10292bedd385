//go:build !race

package experiment

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
