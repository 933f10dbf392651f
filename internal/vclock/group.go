package vclock

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// GroupVirtual is a deterministic virtual clock shared by several schedulers
// — the coordinated fix for the time-travel bug of sharing a plain Virtual.
// Each scheduler gets its own Member; a member's WaitUntil registers a
// per-waiter deadline instead of advancing immediately, and the group only
// moves global time — to the *minimum* pending deadline — once every member
// is idle (blocked in WaitUntil or WaitIdle).  That turns the multi-
// scheduler case into a proper conservative distributed discrete-event
// simulation: timers across all members fire in global deadline order, and
// runs are deterministic (members waiting on the same instant wake together;
// their relative execution order at that instant is the only freedom left).
//
// A wake signal pending on an idle member vetoes the advance: the member has
// new work at the current instant (a cross-scheduler Post), so the group
// interrupts its wait instead of moving time.  The scheduler announces every
// wake through NotifyWake BEFORE signalling the wake channel, so the veto
// cannot be lost to the waiter's own select racing the group for the channel
// — the flag is visible first, and a set flag with an already-claimed signal
// simply defers the advance until the waiter has deregistered.  Members
// leave the group when their scheduler shuts down, so finished schedulers
// never hold time back.
//
// The schedulers are not the only actors.  A controller goroutine that
// starts, stops or reconfigures flows posts to the members one by one, and
// between two of its posts every member may well be idle with nothing
// pending — the pumps it has reached so far have ticked and gone back to
// sleep, the ones it has not reached yet were never told to start.  Moving
// time then lets one half of a flow run ahead of the other by however long
// the host keeps the controller off the CPU.  Hold/Release make the
// controller count.  The invariant: time advances only when every scheduler
// is idle AND no external actor is mid-action.  At lets such an actor choose
// the virtual instant of its action instead of racing the schedulers to it.
type GroupVirtual struct {
	mu      sync.Mutex
	now     time.Time
	members []*GroupMember
	holds   int           // external actors mid-action (Hold without Release)
	appts   []appointment // booked with At; by instant, FIFO among equals
}

// appointment is an external actor's action booked for a virtual instant.
type appointment struct {
	at time.Time
	fn func()
}

// NewGroupVirtual returns a coordinated shared clock positioned at Epoch.
func NewGroupVirtual() *GroupVirtual {
	return &GroupVirtual{now: Epoch}
}

// NewGroupVirtualAt returns a coordinated shared clock positioned at start.
func NewGroupVirtualAt(start time.Time) *GroupVirtual {
	return &GroupVirtual{now: start}
}

// Now reports the current instant of the shared clock.
func (g *GroupVirtual) Now() time.Time {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.now
}

// Hold freezes the clock at the current instant while an external actor — a
// goroutine that is not one of the member schedulers — acts on them.  Holds
// nest; every Hold needs one Release.  Members keep running and wake-ups
// are still delivered: only the advance of time waits.  An actor must not
// wait for time to pass while it holds.
func (g *GroupVirtual) Hold() {
	g.mu.Lock()
	g.holds++
	g.mu.Unlock()
}

// Release ends one Hold and makes the advance decision the hold deferred.
func (g *GroupVirtual) Release() {
	g.mu.Lock()
	g.holds--
	g.tryAdvanceLocked()
	g.mu.Unlock()
}

// At books fn, one action of an external actor, for the virtual instant t.
// It runs when the group would otherwise move time to t or beyond: every
// member idle, no wake pending, no hold out, and no member deadline before
// t.  The clock moves to t (never backwards: a t already past runs at the
// next decision, at the current instant) and fn runs on its own goroutine
// under one Hold, released when it returns — so fn sees the flow exactly as
// the instant before t left it, and the members due at t run after fn.
// Appointments run one at a time, in order of t, FIFO among equals.
//
// A group whose members are all idle with no deadline has nothing to wait
// for, and runs even a future appointment at once.  Book before anything
// runs, or start the members and the flow under one Hold.
func (g *GroupVirtual) At(t time.Time, fn func()) {
	g.mu.Lock()
	i := len(g.appts)
	for i > 0 && g.appts[i-1].at.After(t) {
		i--
	}
	g.appts = slices.Insert(g.appts, i, appointment{at: t, fn: fn})
	g.tryAdvanceLocked()
	g.mu.Unlock()
}

// Members reports how many members have joined (and not left) the group.
func (g *GroupVirtual) Members() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, m := range g.members {
		if !m.left {
			n++
		}
	}
	return n
}

// Member registers and returns a new member clock.  Pass exactly one Member
// per scheduler (uthread.WithClock); members must not be shared.  A member
// counts as busy until it first waits, so a scheduler may join a running
// group without racing its peers' time.
func (g *GroupVirtual) Member() *GroupMember {
	m := &GroupMember{g: g}
	g.mu.Lock()
	g.members = append(g.members, m)
	g.mu.Unlock()
	return m
}

// GroupMember is one scheduler's handle on a GroupVirtual.
type GroupMember struct {
	g *GroupVirtual

	// wakePending is set by NotifyWake strictly before the corresponding
	// wake-channel send, and cleared by whichever party consumes the
	// signal.  It is the group's race-free view of "work is pending for
	// this member at the current instant".
	wakePending atomic.Bool

	// All fields below are protected by g.mu.
	idle        bool
	hasDeadline bool
	deadline    time.Time
	wakeCh      <-chan struct{} // the waiter's interrupt channel while idle
	outcome     chan bool       // buffered(1); receives the wait result
	left        bool
	owner       any
}

var (
	_ Clock        = (*GroupMember)(nil)
	_ IdleWaiter   = (*GroupMember)(nil)
	_ Binder       = (*GroupMember)(nil)
	_ WakeNotifier = (*GroupMember)(nil)
)

// Now implements Clock.
func (m *GroupMember) Now() time.Time { return m.g.Now() }

// Group returns the shared clock this member belongs to.
func (m *GroupMember) Group() *GroupVirtual { return m.g }

// NotifyWake implements WakeNotifier: called by the scheduler before every
// wake-channel signal, making the pending work visible to the group's
// advance decision ahead of the racy channel.
func (m *GroupMember) NotifyWake() { m.wakePending.Store(true) }

// WaitUntil implements Clock.  It registers t as this member's deadline and
// blocks until the group advances the shared clock to (at least) t — which
// happens only when every member is idle and t is the minimum pending
// deadline — or until wake is signalled, whichever comes first.
func (m *GroupMember) WaitUntil(t time.Time, wake <-chan struct{}) bool {
	if wake != nil {
		select {
		case <-wake:
			m.wakePending.Store(false) // signal consumed before registering
			return false
		default:
		}
	}
	g := m.g
	g.mu.Lock()
	if !t.After(g.now) {
		g.mu.Unlock()
		return true
	}
	out := make(chan bool, 1)
	m.idle, m.hasDeadline, m.deadline = true, true, t
	m.outcome, m.wakeCh = out, wake
	g.tryAdvanceLocked()
	g.mu.Unlock()
	if wake == nil {
		return <-out
	}
	select {
	case ok := <-out:
		return ok
	case <-wake:
		// Deregister BEFORE clearing wakePending: between the channel
		// consume above and this lock, a set flag with an empty channel
		// tells tryAdvance to defer rather than advance past us.
		g.mu.Lock()
		decided := m.outcome != out
		if !decided {
			m.clearLocked()
		}
		m.wakePending.Store(false)
		g.mu.Unlock()
		if !decided {
			return false
		}
		// The group decided this wait concurrently; honour its outcome
		// (the consumed wake signal still took effect: the scheduler
		// re-evaluates either way).
		return <-out
	}
}

// WaitIdle implements IdleWaiter: the member is idle with no deadline of its
// own (its scheduler is blocked waiting for external input), so the peers
// may advance time past it.  Returns when wake is signalled.  wake must not
// be nil.
func (m *GroupMember) WaitIdle(wake <-chan struct{}) {
	g := m.g
	g.mu.Lock()
	if m.wakePending.Load() {
		// Work already announced: don't register as idle at all.
		g.mu.Unlock()
		select {
		case <-wake:
		default:
		}
		m.wakePending.Store(false)
		return
	}
	out := make(chan bool, 1)
	m.idle, m.hasDeadline = true, false
	m.outcome, m.wakeCh = out, wake
	g.tryAdvanceLocked()
	g.mu.Unlock()
	select {
	case <-out:
	case <-wake:
		// As in WaitUntil: deregister before clearing the flag so a
		// concurrent advance decision defers instead of passing us.
		g.mu.Lock()
		decided := m.outcome != out
		if !decided {
			m.clearLocked()
		}
		m.wakePending.Store(false)
		g.mu.Unlock()
		if decided {
			<-out
		}
	}
}

// Bind implements Binder: one scheduler per member.
func (m *GroupMember) Bind(owner any) error {
	g := m.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if m.left {
		return ErrMemberLeft
	}
	if m.owner != nil && m.owner != owner {
		return ErrSharedVirtual
	}
	m.owner = owner
	return nil
}

// Unbind implements Binder: the member leaves the group for good, so the
// remaining members' timers are no longer held back by a stopped scheduler.
func (m *GroupMember) Unbind(owner any) {
	g := m.g
	g.mu.Lock()
	if m.owner != nil && m.owner != owner {
		g.mu.Unlock()
		return
	}
	m.owner = nil
	m.leaveLocked()
	g.mu.Unlock()
}

// Leave permanently removes the member from advance coordination (idempotent).
// Scheduler shutdown does this via Unbind; it is exported for hand-driven
// members.
func (m *GroupMember) Leave() {
	m.g.mu.Lock()
	m.leaveLocked()
	m.g.mu.Unlock()
}

func (m *GroupMember) leaveLocked() {
	if m.left {
		return
	}
	m.left = true
	if m.outcome != nil {
		// A leaving member cannot stay blocked: release it as interrupted.
		out := m.outcome
		m.clearLocked()
		out <- false
	}
	m.g.tryAdvanceLocked()
}

// clearLocked resets the member's waiting state.  Caller holds g.mu.
func (m *GroupMember) clearLocked() {
	m.idle, m.hasDeadline = false, false
	m.outcome, m.wakeCh = nil, nil
}

// tryAdvanceLocked is the heart of the coordinated advance.  Caller holds
// g.mu.  It does nothing while an external actor holds the clock, or unless
// every live member is idle.  Then, if any
// idle member has a wake already pending, that member is released as
// interrupted instead (it has work at the current instant — advancing now
// would be the time-travel bug).  Otherwise the clock moves to the earliest
// appointment, if none of the deadlines is before it, and the appointment
// runs under a hold; or to the minimum pending deadline, and every member due
// at that instant is released.
func (g *GroupVirtual) tryAdvanceLocked() {
	if g.holds > 0 {
		return
	}
	live := 0
	for _, m := range g.members {
		if m.left {
			continue
		}
		live++
		if !m.idle {
			return
		}
	}
	if live == 0 {
		return
	}
	for _, m := range g.members {
		if m.left || !m.wakePending.Load() {
			continue
		}
		if m.wakeCh == nil {
			// Uninterruptible waiter (nil wake): the hint cannot be
			// delivered; drop it so it cannot wedge the advance.
			m.wakePending.Store(false)
			continue
		}
		// Work is pending for m at the current instant (the flag is set
		// strictly before the wake-channel send).  Either the signal is
		// still in the channel — consume it and release m as interrupted
		// — or m's own select already claimed it and m will deregister as
		// soon as it takes g.mu.  In both cases: do not advance.
		select {
		case <-m.wakeCh:
			m.wakePending.Store(false)
			out := m.outcome
			m.clearLocked()
			out <- false
		default:
		}
		return
	}
	var min time.Time
	found := false
	for _, m := range g.members {
		if m.left || !m.hasDeadline {
			continue
		}
		if !found || m.deadline.Before(min) {
			min = m.deadline
			found = true
		}
	}
	if len(g.appts) > 0 && (!found || !g.appts[0].at.After(min)) {
		a := g.appts[0]
		g.appts = slices.Delete(g.appts, 0, 1)
		if a.at.After(g.now) {
			g.now = a.at
		}
		g.holds++
		go func() {
			defer g.Release()
			a.fn()
		}()
		return
	}
	if !found {
		return // all idle with no deadlines: quiescent until external input
	}
	if min.After(g.now) {
		g.now = min
	}
	for _, m := range g.members {
		if m.left || !m.hasDeadline || m.deadline.After(g.now) {
			continue
		}
		out := m.outcome
		m.clearLocked()
		out <- true
	}
}
