//go:build !race

package pipes_test

// raceEnabled reports whether the race detector instruments this build.
// The pipeline alloc guard skips under -race: sync.Pool then drops a quarter
// of its Puts on purpose, so the item pool allocates 0.25 objects per item
// whatever the code under test does.
const raceEnabled = false
