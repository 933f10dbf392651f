// Package vclock provides the time base for the Infopipe runtime.
//
// The paper's thread package maps operating-system timer signals to messages
// (§4).  This package abstracts the source of those timer signals so that the
// same scheduler can run against the real wall clock (for interactive tools
// and distributed pipelines) or against a deterministic virtual clock (for
// reproducible experiments: the virtual clock advances only when the
// scheduler is otherwise idle, turning timing experiments into discrete-event
// simulations that run at CPU speed).
//
// The real clock's wait is where pump timing is made or lost.  Once a process
// has a socket or file open, an idle Go runtime sleeps in epoll_wait and rounds
// its timeout up to whole milliseconds (golang/go#44343): a Go timer armed for
// 50 us fires about 1060 us later, and a 20 kHz pump emits twenty items once a
// millisecond.  On Linux Real.WaitUntil therefore leaves the Go timer 1.5 ms
// before the deadline and parks on a kernel timer (wait_linux.go): a timerfd
// the netpoller watches, whose expiry ends epoll_wait on time; the scheduler
// selects on its token and the wake channel, so a wake is seen at once.  One
// timer expires at most every 100 us; a faster pump catches up at each wake,
// and its items are late by a sawtooth of that gap plus what a wake costs to
// be seen, less the time the scheduler was busy.  The timer learns the least
// a wake costs on this host and arms that much early — never returning
// before the deadline: an expiry seen early is followed by an exact one — so
// what is left of the sawtooth is the gap.
// Not a nanosleep that keeps the P: the runtime polls the network only from a
// P with nothing to run, and what the sleeper readied waits for another thread
// to steal it, so an item costs three thread wakes, each as slow as the host
// makes it (latency p95 steady on one host, 0.6 ms apart between runs on
// another).  Not a spin: a Gosched loop starves the netpoller (lane hop 63 us
// -> 1.7 ms), a busy loop takes a P (p95 x2.4).  Other systems keep the timer.
package vclock

import (
	"errors"
	"sync"
	"time"
)

// Epoch is the instant at which every virtual clock starts.  It is an
// arbitrary fixed point so that virtual-time experiments are reproducible
// byte-for-byte.
var Epoch = time.Date(2001, 11, 12, 0, 0, 0, 0, time.UTC) // Middleware 2001

// Clock is a source of time for a scheduler.  Implementations must be safe
// for concurrent use.
type Clock interface {
	// Now reports the current instant on this clock.
	Now() time.Time

	// WaitUntil blocks until the clock reaches t, or until wake is
	// signalled, whichever comes first.  It reports whether the deadline
	// was reached (true) or the wait was interrupted (false).  A nil wake
	// channel means the wait cannot be interrupted.
	//
	// For a virtual clock, reaching t means advancing the clock to t.
	WaitUntil(t time.Time, wake <-chan struct{}) bool
}

// IdleWaiter is implemented by coordinated clocks (GroupVirtual members)
// whose owner may become idle without a pending deadline.  A scheduler that
// has nothing to run and no timer, but registered external sources, calls
// WaitIdle instead of blocking privately, so that the peers' timers can
// advance the shared clock.  WaitIdle returns when wake is signalled; wake
// must not be nil.
type IdleWaiter interface {
	WaitIdle(wake <-chan struct{})
}

// WakeNotifier is implemented by coordinated clocks that must learn about a
// wake signal BEFORE it is sent on the waiter's wake channel.  The scheduler
// calls NotifyWake from signalWake ahead of the channel send, so the group
// can always distinguish "this member has work pending at the current
// instant" from "this member is genuinely idle" — without racing the
// member's own select on the channel.  Without the notification a wake that
// is consumed by the waiter just before the group inspects it would let the
// clock advance past work pending at the current instant.
type WakeNotifier interface {
	NotifyWake()
}

// Binder is implemented by clocks that track which scheduler drives them.
// Bind is called once when the owner starts consuming time (Scheduler.Run)
// and may refuse a configuration the clock cannot serve correctly; Unbind
// releases the claim on shutdown.  Unbind with a non-owner is a no-op.
type Binder interface {
	Bind(owner any) error
	Unbind(owner any)
}

// ErrSharedVirtual is returned by Scheduler.Run when two schedulers try to
// drive one plain Virtual concurrently.  A plain Virtual advances the moment
// its single scheduler goes idle; with two schedulers that jumps time past
// the peer's earlier deadlines (time travel).  Use NewGroupVirtual and give
// each scheduler its own Member for a coordinated shared clock.
var ErrSharedVirtual = errors.New("vclock: plain Virtual driven by a second concurrent scheduler; use GroupVirtual members for shared-clock simulations")

// ErrMemberLeft is returned when binding a group member whose scheduler has
// already shut down and left the group.
var ErrMemberLeft = errors.New("vclock: group member already left its clock group")

// Real is a Clock backed by the system wall clock.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// timerWait blocks on one Go timer until t or wake, whichever comes first,
// and reports whether it was t.  Once the netpoller is up the timer fires at
// the runtime's next whole-millisecond idle tick, not at t.
func timerWait(t time.Time, wake <-chan struct{}) bool {
	d := time.Until(t)
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-wake:
		return false
	}
}

// Virtual is a deterministic simulated clock.  Time advances only through
// WaitUntil or Advance; Now never moves on its own.  The zero value is not
// usable; construct with NewVirtual.
//
// A Virtual serves exactly one scheduler at a time: WaitUntil advances the
// clock the instant its caller goes idle, which is only correct when that
// caller is the sole consumer of time.  Scheduler.Run enforces this through
// Bind and fails with ErrSharedVirtual if a second scheduler drives the same
// Virtual concurrently (sequential reuse is fine — the owner is released on
// shutdown).  Several schedulers sharing one time base must use GroupVirtual
// members instead.
type Virtual struct {
	mu    sync.Mutex
	now   time.Time
	owner any // the scheduler currently driving this clock, nil if none
}

var (
	_ Clock  = (*Virtual)(nil)
	_ Binder = (*Virtual)(nil)
)

// NewVirtual returns a virtual clock positioned at Epoch.
func NewVirtual() *Virtual {
	return &Virtual{now: Epoch}
}

// NewVirtualAt returns a virtual clock positioned at start.
func NewVirtualAt(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// WaitUntil implements Clock.  If wake is already signalled the wait is
// abandoned without moving the clock; otherwise the clock jumps to t.
func (v *Virtual) WaitUntil(t time.Time, wake <-chan struct{}) bool {
	if wake != nil {
		select {
		case <-wake:
			return false
		default:
		}
	}
	v.Advance(t)
	return true
}

// Advance moves the clock forward to t.  Moving backwards is a no-op: the
// clock is monotonic.
func (v *Virtual) Advance(t time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.After(v.now) {
		v.now = t
	}
}

// AdvanceBy moves the clock forward by d and returns the new instant.
func (v *Virtual) AdvanceBy(d time.Duration) time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	if d > 0 {
		v.now = v.now.Add(d)
	}
	return v.now
}

// Bind implements Binder: a plain Virtual refuses a second concurrent owner
// (the shared-clock time-travel bug this replaces was nondeterministic and
// silent; the refusal is deterministic and loud).
func (v *Virtual) Bind(owner any) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.owner != nil && v.owner != owner {
		return ErrSharedVirtual
	}
	v.owner = owner
	return nil
}

// Unbind implements Binder.
func (v *Virtual) Unbind(owner any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.owner == owner {
		v.owner = nil
	}
}
