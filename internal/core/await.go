package core

import (
	"infopipes/internal/uthread"
)

// AwaitWake is the shared blocking protocol for framework stages that park a
// thread on an external queue (netpipe inboxes, shard links): the caller
// registers a waiter token with its queue, then blocks here until the
// queue's wake message for that token arrives, dispatching control events
// that arrive in the meantime (§3.2 — a blocked component still reacts to
// stop/pause).  kind is the queue's private wake message kind, carrying the
// token as its Tag.
//
// On shutdown (stopping reports true after a control dispatch) the waiter is
// deregistered through the supplied callback; if the wake was already posted
// — deregister reports false — the in-flight wake message is consumed so it
// cannot leak into the thread's next receive.  Returns ErrStopped in that
// case, nil once the wake arrived.
func AwaitWake(t *uthread.Thread, kind uthread.Kind, token uint64, stopping func() bool, deregister func(uint64) bool) error {
	for {
		m := t.ReceiveTagged(kind, token)
		if m.Kind == kind {
			deregister(token)
			return nil
		}
		t.DispatchControl(m)
		if stopping != nil && stopping() {
			if !deregister(token) {
				DiscardWake(t, kind, token)
			}
			return ErrStopped
		}
	}
}

// DiscardWake consumes the wake message of an abandoned wait, already posted
// when the waiter deregistered, so it cannot leak into the thread's next
// receive.
func DiscardWake(t *uthread.Thread, kind uthread.Kind, token uint64) {
	t.TryReceive(func(m uthread.Message) bool { return m.Kind == kind && m.Tag == token })
}

// Waiter is one thread parked in a WaiterList, identified by its token.
type Waiter struct {
	Thread *uthread.Thread
	Token  uint64
}

// Wake posts the waiter's wake message through its own scheduler (safe from
// any goroutine — this is the cross-scheduler edge of the protocol).  Call
// after releasing the owning queue's lock.
func (w Waiter) Wake(kind uthread.Kind) {
	w.WakeAt(kind, uthread.PriorityHigh)
}

// WakeAt is Wake with an explicit constraint level: the cross-flow QoS hook
// that lets a queue wake its receiver at the SENDER's effective priority, so
// a high-priority tenant's items preempt across shard links and TCP lanes
// instead of the relay flattening them.  Callers must pass at least
// PriorityHigh for default traffic (the protocol's liveness floor — a parked
// framework thread reacts to its wake ahead of data work); WakePrio derives
// the right level from a sender priority.
func (w Waiter) WakeAt(kind uthread.Kind, prio uthread.Priority) {
	w.Thread.Scheduler().Post(w.Thread, uthread.Message{
		Kind:       kind,
		Tag:        w.Token,
		Constraint: uthread.At(prio),
	})
}

// WakePrio maps a sender's effective priority to the wake constraint: the
// sender priority when it exceeds the protocol's PriorityHigh floor
// (Control-priority tenants preempt relays end to end), the floor otherwise
// (default traffic keeps today's wake ordering byte-for-byte).
func WakePrio(sender uthread.Priority) uthread.Priority {
	if sender > uthread.PriorityHigh {
		return sender
	}
	return uthread.PriorityHigh
}

// SenderPriority reports the calling thread's current effective priority for
// propagation across a link: the constraint of the message it is processing
// (the pump's constraint in steady state — the tenant priority) or its
// static priority when unconstrained.  A nil thread (endpoint driven outside
// a composed pipeline) reports the default priority.
func SenderPriority(t *uthread.Thread) uthread.Priority {
	if t == nil {
		return uthread.PriorityNormal
	}
	if c := t.CurrentConstraint(); c.Set {
		return c.Level
	}
	return t.StaticPriority()
}

// WaiterList is the bookkeeping half of the AwaitWake protocol: FIFO
// registration with unique tokens, removal by token, wake-one and wake-all.
// It does no locking of its own — every method must be called with the
// owning queue's lock held; Wake the returned waiters after releasing it.
type WaiterList struct {
	nextTok uint64
	entries []Waiter
}

// Register parks t and returns its token, to be passed to AwaitWake.
func (l *WaiterList) Register(t *uthread.Thread) uint64 {
	l.nextTok++
	l.entries = append(l.entries, Waiter{Thread: t, Token: l.nextTok})
	return l.nextTok
}

// Remove deregisters the waiter with the given token, reporting whether it
// was still parked (false means its wake is already in flight).
func (l *WaiterList) Remove(tok uint64) bool {
	for i, w := range l.entries {
		if w.Token == tok {
			l.entries = append(l.entries[:i], l.entries[i+1:]...)
			return true
		}
	}
	return false
}

// PopFront removes and returns the longest-parked waiter.
func (l *WaiterList) PopFront() (Waiter, bool) {
	if len(l.entries) == 0 {
		return Waiter{}, false
	}
	w := l.entries[0]
	l.entries = append(l.entries[:0], l.entries[1:]...) // in place: keep the capacity
	return w, true
}

// TakeAll removes and returns every parked waiter (close paths).
func (l *WaiterList) TakeAll() []Waiter {
	ws := l.entries
	l.entries = nil
	return ws
}

// Len reports the number of parked waiters.
func (l *WaiterList) Len() int { return len(l.entries) }
