//go:build !race

package engine

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = false
