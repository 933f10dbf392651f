//go:build !race

package netpipe

// raceEnabled reports whether the race detector instruments this build.
// TestLaneExplorer skips under -race: it is single-goroutine code, so the
// detector has nothing to check, and it slows the search tenfold.
const raceEnabled = false
