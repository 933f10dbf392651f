package uthread

import (
	"fmt"
	"time"
)

type threadState int

const (
	stateBlocked threadState = iota + 1 // waiting for a message
	stateReady                          // runnable, queued for the CPU
	stateRunning                        // holds the run token
	stateTerminated
)

// Thread is a user-level thread: a code function plus a message queue.
// All methods in the "thread-side API" group (Receive*, Send, Call, Reply,
// Yield, Sleep*, …) must only be called from within the thread's own code
// function — directly, or from a pull coroutine (iter.Pull) nested in it at
// any depth, which a blocking call then parks along with the thread; the
// scheduler-side API (on Scheduler) is safe from anywhere.
type Thread struct {
	id     uint64
	name   string
	sched  *Scheduler
	static Priority
	class  *SchedClass // weighted-fair class; nil = default (no accounting)
	code   CodeFunc

	// All fields below are protected by sched.mu unless noted.
	state    threadState
	mq       msgQueue
	waitPred func(Message) bool // non-nil while blocked on a selective receive
	heapIdx  int                // position in the ready queue, -1 if absent
	readySeq int64              // ready-queue arrival order (FIFO tiebreak)
	effPrio  Priority           // cached effective priority while queued
	vtSnap   int64              // cached weighted-fair virtual-time stamp while queued

	current Constraint // constraint of the message being processed

	// ctrlMatch/ctrlHandle implement §3.2/§4: control events are delivered
	// even while the thread is blocked inside a synchronous Call or a wait
	// (a push or pull blocked in a buffer).  Set via SetControlDispatch by
	// the thread itself; senders read ctrlMatch, through waitPred, only
	// while it is blocked.
	ctrlMatch  func(Message) bool
	ctrlHandle func(*Thread, Message)
	// parkHook runs on the thread each time it is about to park in a wait,
	// so work it staged (a TCP sink's frames) is written before it waits.
	// Set via SetParkHook by the thread itself.
	parkHook func()

	// The coroutine: next resumes it and stop unwinds it — both made at the
	// first grant and used only by the goroutine in Run — and yield, the
	// other end, returns the run token from inside the body or from a
	// coroutine nested in it.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// waitKind/waitTag say which message a ReceiveTagged is waiting for and
	// tagPred is the predicate that reads them, bound once at spawn so that
	// no blocking wait — a reply, a timer, a buffer wake — allocates.  The thread sets them while it holds the run token;
	// senders read them, through waitPred, only while it is blocked, under
	// sched.mu.  calls numbers this thread's Calls.
	waitKind Kind
	waitTag  uint64
	tagPred  func(Message) bool
	calls    uint64
}

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// ID returns the thread's unique id within its scheduler.
func (t *Thread) ID() uint64 { return t.id }

// Scheduler returns the owning scheduler.
func (t *Thread) Scheduler() *Scheduler { return t.sched }

// StaticPriority returns the priority given at Spawn.
func (t *Thread) StaticPriority() Priority { return t.static }

// Class returns the thread's weighted-fair scheduling class (nil = default).
func (t *Thread) Class() *SchedClass { return t.class }

// CurrentConstraint returns the constraint of the message the thread is
// currently processing (thread-side API).
func (t *Thread) CurrentConstraint() Constraint { return t.current }

// SetControlDispatch installs the control-event hook: while the thread is
// blocked in a Call, a sleep or a ReceiveTagged wait, messages matching
// match are handed to handle and the thread resumes waiting (paper §4: "the
// thread blocks waiting for either a control message or the data reply
// message").  Thread-side API.
func (t *Thread) SetControlDispatch(match func(Message) bool, handle func(*Thread, Message)) {
	t.ctrlMatch = match
	t.ctrlHandle = handle
}

// SetParkHook installs fn to run on the thread whenever a wait is about to
// park it (a message wait, a sleep, a Call): the thread gives up the CPU
// there, so a stage that holds back work for a batch hands it on first.
// fn must not wait for a message itself.  Thread-side API.
func (t *Thread) SetParkHook(fn func()) { t.parkHook = fn }

// effectivePriorityLocked derives the scheduling priority per §4: the
// constraint of the message being processed; else, for a waiting thread, the
// constraint of the best queued message; else the static priority.  With
// inheritance enabled, a higher-constraint pending message raises the
// priority further (priority inheritance, avoiding inversion).
func (t *Thread) effectivePriorityLocked() Priority {
	p := t.static
	switch {
	case t.current.Set:
		p = t.current.Level
	case t.state == stateReady:
		if c, ok := t.bestQueuedConstraintLocked(); ok {
			p = c
		}
	}
	if t.sched.inherit {
		if c, ok := t.bestQueuedConstraintLocked(); ok && c > p {
			p = c
		}
	}
	return p
}

func (t *Thread) bestQueuedConstraintLocked() (Priority, bool) {
	return t.mq.bestConstraint()
}

// dequeueLocked removes and returns the best pending message matching pred
// (nil matches all).  Messages are delivered highest-constraint first and
// FIFO within a level, so control events (high constraints) overtake data.
func (t *Thread) dequeueLocked(pred func(Message) bool) (Message, bool) {
	return t.mq.popMatch(pred)
}

// body is the thread's coroutine: the top-level message loop described in
// §4.  It ends when the code function says Terminate, when the scheduler
// stops (every blocking operation then panics with haltSignal) or when the
// code function panics, which fails the scheduler.
func (t *Thread) body(yield func(struct{}) bool) {
	t.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, halted := r.(haltSignal); !halted {
				t.sched.fail(fmt.Errorf("uthread %q: code function panicked: %v", t.name, r))
			}
		}
	}()
	for {
		msg := t.awaitMessage(nil)
		t.current = msg.Constraint
		disp := t.code(t, msg)
		t.current = Constraint{}
		if disp == Terminate {
			t.terminate()
			return
		}
		t.preemptionPoint(1) // message boundary: round-robin among equals
	}
}

// terminate marks the thread dead; the body returns next, and with it the
// run token.
func (t *Thread) terminate() {
	s := t.sched
	s.mu.Lock()
	t.state = stateTerminated
	t.mq.clear()
	s.timers.purgeDst(t) // a dead thread's timers must not linger in the heap
	delete(s.threads, t.id)
	s.live--
	s.mu.Unlock()
}

// awaitMessage blocks until a message matching pred is available and returns
// it.  It is the single suspension primitive: Receive, Call replies, timer
// waits and wake tokens all go through here.  The thread runs only
// when granted, so it always holds the run token here.
//
//ipvet:hotpath every blocking operation of every thread
func (t *Thread) awaitMessage(pred func(Message) bool) Message {
	s := t.sched
	hooked := t.parkHook == nil
	for {
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			panic(halt)
		}
		if m, ok := t.dequeueLocked(pred); ok {
			s.mu.Unlock()
			return m
		}
		if !hooked {
			// About to park: run the park hook, then look again, since
			// what it wrote may already have been answered.
			s.mu.Unlock()
			hooked = true
			t.parkHook()
			continue
		}
		t.state = stateBlocked
		t.waitPred = pred
		s.mu.Unlock()
		t.yieldToken()
		hooked = t.parkHook == nil
	}
}

// yieldToken returns the run token to the scheduler and blocks until it is
// granted again.  A false from yield is the halt: Run is shutting down and
// wants the coroutine unwound.
//
//ipvet:hotpath the switch itself
func (t *Thread) yieldToken() {
	if !t.yield(struct{}{}) {
		panic(halt)
	}
}

// preemptionPoint offers the CPU to a strictly higher-priority ready thread.
// cycles is the work the grant has done since the thread last offered the
// CPU to its equals: when it is positive an equal-priority thread is given a
// turn too (round-robin), and a thread that gives the CPU up goes to the
// back of its level, charged that many cycles in its weighted-fair account.
// Zero is a communication point inside a batch: only a higher priority
// preempts, and the thread waits at the head of its level, uncharged, to
// finish the grant.
func (t *Thread) preemptionPoint(cycles int) {
	s := t.sched
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		panic(halt)
	}
	top := s.ready.peekMax()
	if top == nil {
		s.mu.Unlock()
		return
	}
	mine := t.effectivePriorityLocked()
	theirs := top.effectivePriorityLocked()
	preempt := theirs > mine || (cycles > 0 && theirs == mine)
	if !preempt {
		s.mu.Unlock()
		return
	}
	t.state = stateReady
	if cycles == 0 {
		s.ready.pushFront(t)
	} else {
		s.ready.push(t, cycles)
	}
	s.mu.Unlock()
	t.yieldToken()
}

// Yield voluntarily offers the CPU to any ready thread of equal or higher
// effective priority, at one cycle's charge: YieldAfter(1).  Thread-side
// API.
func (t *Thread) Yield() { t.preemptionPoint(1) }

// YieldAfter is the preemption point of a thread that works in cycles (a
// pump) and keeps the CPU among equal-priority threads for a batch of them.
// A strictly higher-priority ready thread takes the CPU at every call.
// cycles is the length of the batch that ends here: when it is positive the
// CPU is offered to equal-priority threads as by Yield, and if the thread
// gives it up, its class is charged cycles cycles, not one, so the
// weighted-fair share stays a share of work however long a batch runs.
// YieldAfter(0) ends no batch: a higher priority that takes the CPU then
// suspends the batch, and the thread resumes it before its equals,
// uncharged until the batch ends.  Thread-side API.
//
//ipvet:hotpath once per pump cycle
func (t *Thread) YieldAfter(cycles int) { t.preemptionPoint(max(cycles, 0)) }

// Receive suspends until the next message (in constraint order) arrives and
// returns it.  Thread-side API.
func (t *Thread) Receive() Message { return t.awaitMessage(nil) }

// ReceiveMatch suspends until a message satisfying pred arrives and returns
// it; other messages stay queued (selective receive).  Thread-side API.
func (t *Thread) ReceiveMatch(pred func(Message) bool) Message {
	return t.awaitMessage(pred)
}

// TryReceive returns the best queued message matching pred (nil = any)
// without blocking.  Thread-side API.
func (t *Thread) TryReceive(pred func(Message) bool) (Message, bool) {
	s := t.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	return t.dequeueLocked(pred)
}

// Send delivers msg to dst asynchronously.  If msg carries no constraint it
// inherits the constraint of the message t is currently processing — the §4
// rule that lets a pump's constraint govern what its section sends.  If the
// receiver becomes runnable at a strictly higher effective priority the
// sender is preempted (communication points are switch points).  The
// message's Tag is cleared: a received message sent on must not pass for the
// Call its Tag once numbered.  Thread-side API.
func (t *Thread) Send(dst *Thread, msg Message) {
	msg.Tag = 0
	t.sendInternal(dst, msg)
	t.preemptionPoint(0)
}

func (t *Thread) sendInternal(dst *Thread, msg Message) {
	s := t.sched
	msg.From = t
	if !msg.Constraint.Set {
		msg.Constraint = t.current
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		panic(halt)
	}
	if dst == nil || dst.state == stateTerminated {
		s.mu.Unlock()
		return
	}
	s.enqueueLocked(dst, msg)
	s.mu.Unlock()
}

// Call sends msg to dst and suspends until the matching KindReply arrives,
// dispatching any control messages that arrive in between through the hook
// installed with SetControlDispatch (§4).  Thread-side API.
func (t *Thread) Call(dst *Thread, msg Message) Message {
	t.calls++
	id := t.calls // replies come to this thread's mailbox: its own count will do
	msg.Tag = id
	t.sendInternal(dst, msg)
	for {
		m := t.ReceiveTagged(KindReply, id)
		if m.Kind == KindReply && m.Tag == id {
			return m
		}
		t.dispatchControl(m)
	}
}

// ReceiveTagged suspends until a message of the given kind carrying tag
// arrives, or one the control-dispatch hook claims, and returns it; the
// caller tells the two apart by Kind.  It is the selective receive of every
// wait on one expected message (a reply, a timer, a wake token) and, unlike
// ReceiveMatch with a closure, allocates nothing.
// Thread-side API.
func (t *Thread) ReceiveTagged(kind Kind, tag uint64) Message {
	t.waitKind, t.waitTag = kind, tag
	return t.awaitMessage(t.tagPred)
}

// matchTagged is tagPred: the message ReceiveTagged waits for, or a control
// message.
func (t *Thread) matchTagged(m Message) bool {
	if m.Kind == t.waitKind && m.Tag == t.waitTag {
		return true
	}
	return t.ctrlMatch != nil && t.ctrlMatch(m)
}

// DispatchControl runs the installed control hook on m if it matches,
// reporting whether it was dispatched.  Framework stages (buffers, netpipe
// endpoints) that implement their own blocking waits use it to keep
// components responsive to control events while blocked (§3.2).
// Thread-side API.
func (t *Thread) DispatchControl(m Message) bool {
	if t.ctrlMatch == nil || !t.ctrlMatch(m) {
		return false
	}
	t.dispatchControl(m)
	return true
}

// dispatchControl runs the control hook on m at control priority.
func (t *Thread) dispatchControl(m Message) {
	if t.ctrlHandle == nil {
		return
	}
	saved := t.current
	if m.Constraint.Set {
		t.current = m.Constraint
	}
	t.ctrlHandle(t, m)
	t.current = saved
}

// Reply answers a synchronous Call previously received as req.  Only an
// application message (Kind >= KindUserBase) with a sender and a call id is
// a Call; anything else — a timer, a runtime-kind message, a posted wake,
// whose Tag means something else — is not answered.  Thread-side API.
func (t *Thread) Reply(req Message, data any) {
	if req.Kind < KindUserBase || req.Tag == 0 || req.From == nil {
		return
	}
	t.sendInternal(req.From, Message{Kind: KindReply, Data: data, Tag: req.Tag})
	t.preemptionPoint(0)
}

// SleepFor suspends the thread for d on the scheduler's clock, dispatching
// control messages that arrive in the meantime.  Thread-side API.
func (t *Thread) SleepFor(d time.Duration) {
	t.SleepUntil(t.sched.clock.Now().Add(d))
}

// SleepUntil suspends the thread until instant at on the scheduler's clock,
// dispatching control messages that arrive in the meantime.  Thread-side API.
func (t *Thread) SleepUntil(at time.Time) { t.SleepUntilOr(at, nil) }

// SleepUntilOr suspends the thread until instant at, dispatching control
// messages as they arrive.  After each control dispatch, cancelled is
// consulted; if it reports true the sleep is abandoned early and
// SleepUntilOr returns false.  Returns true when the full deadline was
// slept.  Thread-side API.
//
//ipvet:hotpath the wait of every clocked pump cycle
func (t *Thread) SleepUntilOr(at time.Time, cancelled func() bool) bool {
	if cancelled != nil && cancelled() {
		return false
	}
	if !at.After(t.sched.clock.Now()) {
		t.Yield()
		return true
	}
	tok := t.sched.TimerAt(at, t)
	for {
		m := t.ReceiveTagged(KindTimer, uint64(tok))
		if m.Kind == KindTimer {
			return true
		}
		t.dispatchControl(m)
		if cancelled != nil && cancelled() {
			t.sched.CancelTimer(tok)
			return false
		}
	}
}

// QueueLen reports the number of pending messages (diagnostics).
func (t *Thread) QueueLen() int {
	t.sched.mu.Lock()
	defer t.sched.mu.Unlock()
	return t.mq.len()
}

// Terminated reports whether the thread has ended.
func (t *Thread) Terminated() bool {
	t.sched.mu.Lock()
	defer t.sched.mu.Unlock()
	return t.state == stateTerminated
}
