// Package leakcheck is the goroutine-leak check the test suites share: a
// count of the goroutines alive that leaves out the ones the runtime parks
// for the life of the process, and a test-cleanup hook that fails a test
// which leaves more of them behind than it found.  It is test support, reads
// the wall clock by nature, and is exempt from ipvet's wallclock check.
package leakcheck

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// Live counts the goroutines alive now, less the ones vclock parks for the
// life of the process: one reader per pooled timerfd.
func Live() (n int) {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if !strings.Contains(g, "vclock.(*kernelTimer).read") {
			n++
		}
	}
	return n
}

// AtRest returns Live once it has stopped falling: the goroutines of an
// earlier test that are on their way out have gone.  Compare against it one
// way only (more than before is a leak): equality flakes the other way.
func AtRest() int {
	n := Live()
	for {
		time.Sleep(5 * time.Millisecond)
		m := Live()
		if m >= n {
			return m
		}
		n = m
	}
}

// Check fails the test when, after everything registered later than it has
// cleaned up (nodes closed, schedulers stopped), more goroutines are alive
// than when it was called.  Call it first in a test.
func Check(t testing.TB) {
	t.Helper()
	base := Live()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for Live() > base {
			if time.Now().After(deadline) {
				var dump bytes.Buffer
				_ = pprof.Lookup("goroutine").WriteTo(&dump, 1)
				t.Errorf("%d goroutines alive, %d when the test began:\n%s", Live(), base, &dump)
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}
