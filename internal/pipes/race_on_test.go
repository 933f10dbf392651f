//go:build race

package pipes_test

// See race_off_test.go.
const raceEnabled = true
