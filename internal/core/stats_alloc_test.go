package core

import (
	"testing"
	"time"
)

// TestPumpCountersAllocFree pins the exact telemetry sequence the pump loop
// executes per cycle — sampled wall-clock read, atomic cycle/item adds,
// amortised busy-time add, and a coroutine resume's hop add — at zero
// allocations.
func TestPumpCountersAllocFree(t *testing.T) {
	var pc pipeCounters
	var cycle int64
	n := testing.AllocsPerRun(1000, func() {
		sampled := cycle&busySampleMask == 0
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		cycle++
		pc.hops.Add(1)
		pc.cycles.Add(1)
		pc.items.Add(1)
		if sampled {
			pc.busyNs.Add(int64(time.Since(t0)) * (busySampleMask + 1))
		}
	})
	if n != 0 {
		t.Fatalf("pump telemetry allocates %.1f times per cycle, want 0", n)
	}
}

// The end-to-end steady-state guard lives in pipes
// (TestPipelineHotPathAllocSteadyState): it needs the standard components,
// which this package cannot import.
