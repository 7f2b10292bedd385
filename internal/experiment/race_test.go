//go:build race

package experiment

// raceEnabled reports whether the tests run under the race detector, which
// slows simulation ~10x; tests size their longest streams by it.
const raceEnabled = true
