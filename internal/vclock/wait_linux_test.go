//go:build linux

package vclock

import (
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// Properties of the early arm, not timings: what the lead gains is read from
// the benchmark's vclock.real_wait_overshoot rung; what it must never do is
// return a wait before its deadline.

// neverEarly runs n waits of d each on k and fails on the first that returns
// before its deadline.
func neverEarly(t *testing.T, k *kernelTimer, n int, d time.Duration) {
	t.Helper()
	wake := make(chan struct{})
	for i := 0; i < n; i++ {
		deadline := time.Now().Add(d)
		reached, ok := k.wait(deadline, wake)
		if !ok || !reached {
			t.Fatalf("wait %d of %v = (%v, %v), want reached", i, d, reached, ok)
		}
		if early := time.Until(deadline); early > 0 {
			t.Fatalf("wait %d of %v returned %v early (lead %v)", i, d, early, k.lead)
		}
	}
}

func TestKernelTimerNeverReturnsEarly(t *testing.T) {
	k := getKernelTimer()
	if k == nil {
		t.Skip("no timerfd")
	}
	defer putKernelTimer(k)
	neverEarly(t, k, 500, 150*time.Microsecond) // one arm, set early by the lead
	neverEarly(t, k, 500, time.Millisecond)     // a pre-wake, then the early arm
	if k.lead <= 0 || k.lead > wakeGap/2 {
		t.Fatalf("after 1000 waits lead = %v, want in (0, %v]", k.lead, wakeGap/2)
	}
	t.Logf("lead settled at %v", k.lead)
}

// countedTimer is a kernelTimer whose reader counts the expiries it reads.
func countedTimer(t *testing.T) (*kernelTimer, *atomic.Int64) {
	t.Helper()
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		t.Skipf("timerfd_create: %v", errno)
	}
	k := &kernelTimer{fd: fd, file: os.NewFile(fd, "timerfd"), fired: make(chan struct{}, 1)}
	var expiries atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf [8]byte
		for {
			if _, err := k.file.Read(buf[:]); err != nil {
				return
			}
			expiries.Add(1)
			select {
			case k.fired <- struct{}{}:
			default:
			}
		}
	}()
	t.Cleanup(func() {
		k.file.Close()
		<-done
	})
	return k, &expiries
}

// TestKernelTimerLeadTooLong: with the lead at its cap, far above what a wake
// costs — and at four times the cap, where no reading could put it — the
// early arm's expiry is seen before the deadline; the wait must then sleep
// out the rest exactly: one more expiry, not a chain of early ones, and not
// an early return.
func TestKernelTimerLeadTooLong(t *testing.T) {
	k, expiries := countedTimer(t)
	wake := make(chan struct{})
	for _, lead := range []time.Duration{wakeGap / 2, 2 * wakeGap} {
		for i := 0; i < 100; i++ {
			k.lead = lead
			before := expiries.Load()
			deadline := time.Now().Add(300 * time.Microsecond)
			if reached, ok := k.wait(deadline, wake); !ok || !reached {
				t.Fatalf("wait = (%v, %v), want reached", reached, ok)
			}
			if early := time.Until(deadline); early > 0 {
				t.Fatalf("wait %d returned %v early with the lead at %v", i, early, lead)
			}
			if n := expiries.Load() - before; n > 2 {
				t.Fatalf("wait %d with the lead at %v took %d expiries, want the early one and at most one more", i, lead, n)
			}
		}
	}
}

// TestKernelTimerStaleToken: a wait that was interrupted leaves its timer
// armed, and the token of that expiry is still in fired when the next wait
// starts.  It must cost the next wait a look at the clock, nothing else.
func TestKernelTimerStaleToken(t *testing.T) {
	k, _ := countedTimer(t)
	wake := make(chan struct{})
	for i := 0; i < 100; i++ {
		select {
		case k.fired <- struct{}{}:
		default:
		}
		deadline := time.Now().Add(300 * time.Microsecond)
		if reached, ok := k.wait(deadline, wake); !ok || !reached {
			t.Fatalf("wait = (%v, %v), want reached", reached, ok)
		}
		if early := time.Until(deadline); early > 0 {
			t.Fatalf("wait %d returned %v early on a stale token (lead %v)", i, early, k.lead)
		}
	}
}
