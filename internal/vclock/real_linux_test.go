//go:build linux

package vclock_test

import (
	"syscall"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// TestRealWaitUntilPrecision: with the netpoller up, a Go timer of 300 us
// fires about 830 us late and one of 2.5 ms about 790 (the runtime's idle
// tick); the kernel timer must land both within 400 us in the median, which
// is five times what it measures on an idle 2-vCPU guest.
func TestRealWaitUntilPrecision(t *testing.T) {
	netpollerUp(t)
	wake := make(chan struct{})
	for _, wait := range []time.Duration{300 * time.Microsecond, 2500 * time.Microsecond} {
		over := make([]time.Duration, 0, 51)
		for i := 0; i < 51; i++ {
			deadline := time.Now().Add(wait)
			if !(vclock.Real{}).WaitUntil(deadline, wake) {
				t.Fatal("WaitUntil = false, but nothing signals wake")
			}
			late := time.Since(deadline)
			if late < 0 {
				t.Fatalf("WaitUntil(%v) returned %v early", wait, -late)
			}
			over = append(over, late)
		}
		m := median(over)
		t.Logf("median overshoot of a %v wait: %v", wait, m)
		if m > 400*time.Microsecond {
			t.Errorf("median overshoot of a %v wait is %v, want < 400us", wait, m)
		}
	}
}

// TestRealWaitUntilSpacesExpiries: one scheduler's kernel timer expires at
// most every 100 us.  Without the gap a 20 kHz pump takes a timer wake and a
// round of thread wakes per item, and on two cores the flow behind it runs
// steady in one process and 1 ms late in the next; with it the pump catches up
// two items at a time.  A deadline already past must still not wait.
func TestRealWaitUntilSpacesExpiries(t *testing.T) {
	netpollerUp(t)
	const (
		n   = 100
		gap = 100 * time.Microsecond
	)
	wake := make(chan struct{})
	start := time.Now()
	for i := 0; i < n; i++ {
		if !(vclock.Real{}).WaitUntil(time.Now().Add(20*time.Microsecond), wake) {
			t.Fatal("WaitUntil = false, but nothing signals wake")
		}
	}
	el := time.Since(start)
	t.Logf("%d waits of 20us took %v", n, el)
	if el < (n-1)*gap {
		t.Errorf("%d waits of 20us took %v: expiries are less than %v apart", n, el, gap)
	}
	if el > 10*n*gap {
		t.Errorf("%d waits of 20us took %v, want about %v", n, el, n*gap)
	}
	past := make([]time.Duration, 0, 11)
	for i := 0; i < 11; i++ {
		(vclock.Real{}).WaitUntil(time.Now().Add(20*time.Microsecond), wake)
		before := time.Now()
		(vclock.Real{}).WaitUntil(before.Add(-time.Microsecond), wake)
		past = append(past, time.Since(before))
	}
	if m := median(past); m > gap/2 {
		t.Errorf("a deadline already past waited %v behind the last expiry", m)
	}
}

func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestRealClockIdlePumpCostsNoCPU: precision must come from sleeping better,
// not from spinning.  A 30 Hz pump — the paper's video rate — on an otherwise
// idle scheduler may use at most 5 % of one core.
func TestRealClockIdlePumpCostsNoCPU(t *testing.T) {
	netpollerUp(t)
	sched := uthread.New(uthread.WithClock(vclock.Real{}))
	p, err := core.Compose("idle", sched, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 0)),
		core.Pmp(pipes.NewClockedPump("pump", 30)),
		core.Comp(pipes.NewFuncSink("sink", func(*core.Ctx, *item.Item) error { return nil })),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := sched.RunBackground()
	before := cpuTime(t)
	p.Start()
	time.Sleep(time.Second)
	used := cpuTime(t) - before
	p.Stop()
	sched.Stop()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	t.Logf("a 30 Hz pump used %v of CPU in one second", used)
	if used > 50*time.Millisecond {
		t.Errorf("a 30 Hz pump used %v of CPU in one second, want < 50ms (5%% of a core)", used)
	}
}
