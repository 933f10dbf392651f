//go:build linux

package vclock

import (
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// kernelWindow is how close to the deadline the wait leaves the Go timer
	// for a kernel one: the runtime's 1 ms idle tick plus its wake jitter
	// (measured 1.06-1.11 ms late), so a timer armed for t-kernelWindow has
	// fired before t.
	kernelWindow = 1500 * time.Microsecond
	// wakeLead is how long before its deadline a wait wakes once, so that
	// the deadline finds the core out of deep idle: a wake after 1 ms or
	// more asleep costs 80-200 us on the 2-vCPU reference guest, one after
	// 200 us or less 40-50.
	wakeLead = 200 * time.Microsecond
	// wakeGap is the least time between two expiries of one kernelTimer.  A
	// timer wake costs 25-50 us and, on more than one P, a round of thread
	// wakes in the runtime; past 15 000 of them a second the flow they pace
	// no longer fits the core the kernel packs its threads on and stalls
	// until the next balancing tick (paced_ladder latency p95 at 20 kHz:
	// 0.6-1.3 ms from one run to the next; at 15 kHz 0.2).  A pump faster
	// than the gap catches up at each wake: two items per 100 us instead of
	// one per 50.  So the lateness of such a pump is a sawtooth: an item
	// that falls due just after a wake waits gap + overshoot - busy, where
	// overshoot is what the next expiry costs to be seen and busy is how
	// long the scheduler worked at this wake; one due just before the next
	// wake waits nothing.  A scheduler that finishes its burst sooner
	// therefore reads as later items, unless the overshoot goes: the arm that
	// is to reach a deadline is set early by kernelTimer.lead, the least a
	// wake has lately cost, which takes most of the overshoot out of every
	// tooth and shortens the cycle by as much (20 kHz: 7 300 -> 8 700 wakes
	// a second, still under the 10 000 the gap allows).
	wakeGap = 100 * time.Microsecond
)

// WaitUntil implements Clock.  Far from the deadline it blocks on a Go
// timer; inside kernelWindow it parks on a kernelTimer, and on a Go timer
// again if the process can have none.
func (Real) WaitUntil(t time.Time, wake <-chan struct{}) bool {
	if !timerWait(t.Add(-kernelWindow), wake) {
		return false
	}
	if k := getKernelTimer(); k != nil {
		if reached, ok := k.wait(t, wake); ok {
			putKernelTimer(k)
			return reached
		}
	}
	return timerWait(t, wake)
}

// kernelTimer is one timerfd, registered with the netpoller, and the
// goroutine that reads it.  A timerfd expires on a kernel high-resolution
// timer and its readiness ends the runtime's idle epoll_wait at that instant,
// where the expiry of a Go timer waits for epoll_wait's own timeout, which
// the runtime rounds up to a whole millisecond.
type kernelTimer struct {
	fd    uintptr
	file  *os.File      // owns fd; reading it parks in the netpoller
	fired chan struct{} // one token per expiry read; closed if reading fails
	last  time.Time     // when a wait on this timer last reached its deadline
	// lead is the least an expiry of this timer has lately taken to be seen
	// by wait (host wake, poller, two goroutine switches); the arm that is
	// to reach a deadline is set that much early.
	lead time.Duration
}

// kernelTimers holds the timers no wait is using.  It grows to the largest
// number of schedulers that ever parked at once and stays there: a timer is
// one descriptor and one parked goroutine, and making them per wait would
// cost four system calls and a goroutine start at every pump period.
var kernelTimers struct {
	sync.Mutex
	idle []*kernelTimer
}

// getKernelTimer returns an idle timer or makes one; nil when the process
// can open no more descriptors.
func getKernelTimer() *kernelTimer {
	kernelTimers.Lock()
	if n := len(kernelTimers.idle); n > 0 {
		k := kernelTimers.idle[n-1]
		kernelTimers.idle = kernelTimers.idle[:n-1]
		kernelTimers.Unlock()
		return k
	}
	kernelTimers.Unlock()
	const clockMonotonic = 1
	// TFD_NONBLOCK and TFD_CLOEXEC are defined as the O_ flags.
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	k := &kernelTimer{fd: fd, file: os.NewFile(fd, "timerfd"), fired: make(chan struct{}, 1), lead: wakeGap / 2}
	go k.read()
	return k
}

func putKernelTimer(k *kernelTimer) {
	kernelTimers.Lock()
	kernelTimers.idle = append(kernelTimers.idle, k)
	kernelTimers.Unlock()
}

// read turns expiries into tokens for as long as the descriptor is open.
// The send does not block: a token still unread belongs to a wait that was
// interrupted, and one token is enough for the next wait to look at the clock.
func (k *kernelTimer) read() {
	var expiries [8]byte
	for {
		if _, err := k.file.Read(expiries[:]); err != nil {
			close(k.fired)
			k.file.Close()
			return
		}
		select {
		case k.fired <- struct{}{}:
		default:
		}
	}
}

// arm sets the timer to expire once, d from now, replacing any earlier
// setting and discarding an expiry not yet read.
func (k *kernelTimer) arm(d time.Duration) bool {
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))} // it_interval, it_value
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, k.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	return errno == 0
}

// wait blocks until t or wake; a t already past does not block, and no wait
// returns reached before t.  ok is false when the timer can no longer be set
// or read; the caller waits out the rest another way and does not reuse k.
func (k *kernelTimer) wait(t time.Time, wake <-chan struct{}) (reached, ok bool) {
	if time.Until(t) <= 0 {
		return true, true
	}
	// The pool hands a scheduler the timer it put back, so last is its own
	// except when two of them leave their waits at the same instant.
	if next := k.last.Add(wakeGap); next.After(t) {
		t = next
	}
	var expiry time.Time // of the latest arm meant to reach t; zero before it
	for {
		now := time.Now()
		d := t.Sub(now)
		if d <= 0 {
			k.last = now
			// What this expiry cost to see: lead snaps down to any smaller
			// reading and creeps up (about a second to forget a faster
			// host).  A stale token leaves cost negative: no reading.
			if cost := now.Sub(expiry); !expiry.IsZero() && cost >= 0 {
				if cost < k.lead {
					k.lead = cost
				} else {
					k.lead = min(k.lead+k.lead/1024+1, wakeGap/2)
				}
			}
			return true, true
		}
		// Look before arming: the scheduler's own TimerAt leaves a token in
		// wake, and seeing it here saves the system call.
		select {
		case <-wake:
			return false, true
		default:
		}
		switch {
		case d > 2*wakeLead:
			d -= wakeLead // the pre-wake; the next arm is the one for t
		case expiry.IsZero():
			d = max(d-k.lead, 1)
			expiry = now.Add(d)
		default:
			expiry = t // the early arm was seen before t: the rest, exactly
		}
		if !k.arm(d) {
			return false, false
		}
		select {
		case _, open := <-k.fired:
			if !open {
				return false, false
			}
		case <-wake:
			// The timer stays armed; the token of its expiry is absorbed by
			// the clock check of whichever wait receives it.
			return false, true
		}
	}
}
