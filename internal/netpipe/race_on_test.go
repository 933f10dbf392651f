//go:build race

package netpipe

// See race_off_test.go.
const raceEnabled = true
