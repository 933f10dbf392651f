// Package uthread implements the message-based user-level thread package
// that the Infopipe middleware is built on (paper §4, refs [11,12,14]).
//
// Each thread consists of a code function and a queue of incoming messages.
// Unlike conventional threads, the code function is not called at thread
// creation time but each time a message is received.  After processing a
// message the code function returns, and the thread is terminated only when
// indicated by the return code.  Code functions resemble event handlers but
// may suspend waiting for other messages (selective receive) and may be
// preempted at communication points.  Threads work like extended finite
// state machines.
//
// At every communication point a strictly higher-priority ready thread takes
// the CPU.  Equal-priority threads take turns at message boundaries (Yield)
// or, for a thread that works in cycles, at the end of a batch of them
// (YieldAfter): the Infopipe layer's pump ends its batch after 16 cycles or
// where its next step would block, so two pumps joined by a buffer trade the
// CPU once per batch instead of once per item.  The weighted-fair classes
// (SpawnClassed) are charged per cycle, however the cycles were batched.
//
// Inter-thread communication is message passing: asynchronous Send, or
// synchronous Call when the sender has nothing to do until a reply arrives.
// Timer signals are mapped to messages by the scheduler, so all events are
// handled through one uniform message interface.
//
// Scheduling follows the paper: threads carry static priorities and messages
// carry optional constraints.  The effective priority of a thread is derived
// from the constraint of the message it is currently processing or, if it is
// waiting for the CPU, from the constraint of the best message in its queue;
// without a constraint the static priority applies.  A priority-inheritance
// scheme raises a thread's effective priority when a higher-constraint
// message is pending, avoiding priority inversion.
//
// The Go realisation is one pull coroutine (iter.Pull) per thread, all of
// them resumed from the goroutine in Run, so that exactly one thread executes
// at any instant — the observable semantics of the paper's uniprocessor
// user-level package.  Granting the run token is next(), returning it is
// yield: a context switch is two direct goroutine-to-goroutine switches that
// never pass through the Go run queue, a third of a microsecond with the
// scheduling decision around them; a direct function call inside a thread
// costs nanoseconds.  That gap is the quantitative claim of §4 and is
// reproduced by `ipbench switches` (experiments.SwitchVsCall).  A thread
// that has not been granted yet costs no goroutine, and neither the P nor
// the OS thread changes hands at a switch: an outside goroutine that is
// merely runnable on a one-P process waits until the scheduler parks.
//
// The thread-side API may also be called from a pull coroutine nested in a
// thread's body, at any depth: a blocking wait there parks the whole thread,
// the next grant resumes exactly that nested coroutine, and a Stop unwinds
// the chain of coroutines it was parked in.  The Infopipe layer runs a
// section's coroutine set this way, inside the pump's one thread.
package uthread

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"infopipes/internal/trace"
	"infopipes/internal/vclock"
)

// Priority orders threads: larger values run first.
type Priority int

// Standard priority levels used by the Infopipe layer.  Applications may use
// any values; only the order matters.
const (
	PriorityLow     Priority = 10
	PriorityNormal  Priority = 20
	PriorityHigh    Priority = 30
	PriorityControl Priority = 100 // control-event handling outranks data processing (§2.2)
)

// Constraint is an optional scheduling constraint attached to a message
// (paper §4).  A constraint overrides the static priority of the thread
// processing the message.  The zero value means "no constraint".
type Constraint struct {
	Level Priority
	Set   bool
}

// At returns a constraint at the given level.
func At(p Priority) Constraint { return Constraint{Level: p, Set: true} }

// NoConstraint is the absent constraint.
var NoConstraint = Constraint{}

// Kind discriminates message types.  The runtime reserves the kinds below;
// applications must use kinds >= KindUserBase.
type Kind int

const (
	// KindTimer is delivered when a timer registered with the scheduler
	// expires.  Message.Timer reports the token returned by TimerAfter.
	KindTimer Kind = iota + 1
	// KindReply carries the response to a synchronous Call.
	KindReply
	// KindUserBase is the first kind available to applications.
	KindUserBase Kind = 64
)

// Message is the unit of inter-thread communication.
type Message struct {
	Kind       Kind
	From       *Thread // sending thread; nil for external posts and timers
	Data       any
	Constraint Constraint

	// Tag is the message's correlation word, read together with Kind: the
	// id of a Call and of its KindReply (nonzero), the token of the expired
	// timer on a KindTimer message, or, on a message Posted from outside, a
	// word of the poster's choosing (a wake token) that ReceiveTagged
	// matches without unboxing Data.  One word for all of them keeps a
	// Message at 64 bytes — one cache line per mailbox slot.  Send clears
	// it and Call overwrites it.
	Tag uint64
	seq uint64 // arrival order, for FIFO stability within a priority level
}

// Timer reports the token of the timer whose expiry a KindTimer message
// announces, and 0 for any other message.
func (m Message) Timer() TimerToken {
	if m.Kind != KindTimer {
		return 0
	}
	return TimerToken(m.Tag)
}

// Disposition is returned by a code function to tell the scheduler whether
// the thread continues to live.
type Disposition int

const (
	// Continue keeps the thread alive, waiting for its next message.
	Continue Disposition = iota + 1
	// Terminate ends the thread after the current message.
	Terminate
)

// CodeFunc is the body of a thread.  It is invoked once per received
// message and runs on the thread's own coroutine while the thread holds the
// scheduler's run token.  It may block in t.Receive, t.Call, t.Sleep, etc.
// A panic in it makes Run return an error naming the thread.  It must not
// call runtime.Goexit (a t.Fatal off the test goroutine): the exit passes
// to the goroutine in Run, which shuts the scheduler down and ends without
// returning to its caller.
type CodeFunc func(t *Thread, msg Message) Disposition

// ErrDeadlock is returned by Run when live threads remain but none can ever
// become runnable (no pending timers and no registered external sources).
var ErrDeadlock = errors.New("uthread: deadlock: all threads blocked")

// ErrStopped is returned from blocking thread operations when the scheduler
// is shut down underneath them.
var ErrStopped = errors.New("uthread: scheduler stopped")

// errGoexit is RunBackground's result when a code function ended Run's
// goroutine with runtime.Goexit.
var errGoexit = errors.New("uthread: a code function called runtime.Goexit")

// haltSignal is the panic that unwinds a thread's coroutine when the
// scheduler stops.  It never escapes the package.
type haltSignal struct{}

// halt is the one boxed haltSignal, so that raising it allocates nothing.
var halt any = haltSignal{}

// Stats is a snapshot of scheduler activity counters.
type Stats struct {
	Switches int64 // run-token handoffs to a different thread than last time
	Grants   int64 // all run-token handoffs
	Messages int64 // messages enqueued (Send, Post, Call, Reply, timers)
	Timers   int64 // timer messages fired
	// Cycles counts the cycles charged at ready-queue admissions: one per
	// wake or Yield, a whole batch where a thread yields after one
	// (YieldAfter).  A class's Granted over it is the class's share of work.
	Cycles int64
}

// Scheduler owns a set of user-level threads and runs them one at a time in
// effective-priority order.  Construct with New; the zero value is not
// usable.
type Scheduler struct {
	clock vclock.Clock

	mu      sync.Mutex
	ready   readyQueue
	timers  timerQueue
	threads map[uint64]*Thread
	live    int
	extRefs int
	stopped bool
	err     error
	nextID  uint64
	nextSeq uint64
	nextTok uint64
	inherit bool

	wake chan struct{} // signals the idle scheduler (size 1)

	// notifyWake, when non-nil, announces a wake to a coordinated group
	// clock BEFORE the channel signal, so the group's advance decision
	// never races the wake (vclock.WakeNotifier).  Set once in New.
	notifyWake func()

	lastRun  *Thread
	switches trace.Counter
	grants   trace.Counter
	messages trace.Counter
	timerCnt trace.Counter
}

// Option configures a Scheduler.
type Option func(*Scheduler)

// WithClock selects the time base (default: deterministic virtual clock).
func WithClock(c vclock.Clock) Option {
	return func(s *Scheduler) { s.clock = c }
}

// WithoutPriorityInheritance disables the priority-inheritance scheme
// (used by the ablation experiments; the paper's package provides it).
func WithoutPriorityInheritance() Option {
	return func(s *Scheduler) { s.inherit = false }
}

// New creates a scheduler.  By default it uses a virtual clock starting at
// vclock.Epoch and enables priority inheritance.
func New(opts ...Option) *Scheduler {
	s := &Scheduler{
		clock:   vclock.NewVirtual(),
		threads: make(map[uint64]*Thread),
		timers:  timerQueue{pending: make(map[TimerToken]struct{})},
		inherit: true,
		wake:    make(chan struct{}, 1),
	}
	for _, opt := range opts {
		opt(s)
	}
	if n, ok := s.clock.(vclock.WakeNotifier); ok {
		s.notifyWake = n.NotifyWake
	}
	return s
}

// Clock returns the scheduler's time base.
func (s *Scheduler) Clock() vclock.Clock { return s.clock }

// Now reports the current instant on the scheduler's clock.
func (s *Scheduler) Now() time.Time { return s.clock.Now() }

// Stats returns a snapshot of the activity counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Switches: s.switches.Value(),
		Grants:   s.grants.Value(),
		Messages: s.messages.Value(),
		Timers:   s.timerCnt.Value(),
		Cycles:   s.ready.cycles.Load(),
	}
}

// PendingTimers reports the number of timers physically queued in the heap
// (diagnostics; cancelled-but-undrained entries count until collected).
func (s *Scheduler) PendingTimers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.timers.pendingLen()
}

// ResetStats zeroes the activity counters (between benchmark phases).
func (s *Scheduler) ResetStats() {
	s.switches.Reset()
	s.grants.Reset()
	s.messages.Reset()
	s.timerCnt.Reset()
	s.ready.cycles.Store(0)
}

// Spawn creates a thread with the given name, static priority and code
// function.  The code function is first invoked when the thread receives its
// first message.  Spawn may be called before Run, from inside code
// functions, or from external goroutines.  The thread belongs to the default
// scheduling class; SpawnClassed binds it to a weighted-fair class instead.
func (s *Scheduler) Spawn(name string, prio Priority, code CodeFunc) *Thread {
	return s.SpawnClassed(name, prio, nil, code)
}

// AddExternalSource tells the scheduler that messages may arrive from
// outside (network readers, OS signals), so an idle state with no timers is
// not a deadlock.  Pair with ReleaseExternalSource.  It reports false, and
// registers nothing, once the scheduler has stopped: its Run has returned
// or is returning, and nothing placed on it would ever run.
func (s *Scheduler) AddExternalSource() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return false
	}
	s.extRefs++
	return true
}

// ReleaseExternalSource undoes AddExternalSource and nudges the scheduler so
// it can re-evaluate an idle state.
func (s *Scheduler) ReleaseExternalSource() {
	s.mu.Lock()
	if s.extRefs > 0 {
		s.extRefs--
	}
	s.mu.Unlock()
	s.signalWake()
}

// Post delivers a message to dst from outside the thread system (the
// equivalent of the paper's mapping of network packets and OS signals onto
// messages).  It is safe to call from any goroutine at any time.
func (s *Scheduler) Post(dst *Thread, msg Message) {
	s.mu.Lock()
	if s.stopped || dst == nil || dst.state == stateTerminated {
		s.mu.Unlock()
		return
	}
	s.enqueueLocked(dst, msg)
	s.mu.Unlock()
	s.signalWake()
}

// TimerToken identifies a pending timer.
type TimerToken uint64

// TimerAfter arranges for dst to receive a KindTimer message carrying the
// returned token once d has elapsed on the scheduler's clock.
func (s *Scheduler) TimerAfter(d time.Duration, dst *Thread) TimerToken {
	return s.TimerAt(s.clock.Now().Add(d), dst)
}

// TimerAt arranges for dst to receive a KindTimer message carrying the
// returned token at instant at.  A nil or already-terminated destination is
// refused at push time (the timer would sit in the heap until due only to be
// discarded); the zero token is returned and never fires.
//
//ipvet:hotpath once per paced pump cycle
func (s *Scheduler) TimerAt(at time.Time, dst *Thread) TimerToken {
	s.mu.Lock()
	if dst == nil || dst.state == stateTerminated {
		s.mu.Unlock()
		return 0
	}
	s.nextTok++
	tok := TimerToken(s.nextTok)
	s.nextSeq++
	s.timers.push(timerEntry{at: at, seq: s.nextSeq, dst: dst, token: tok})
	s.mu.Unlock()
	s.signalWake()
	return tok
}

// CancelTimer removes a pending timer.  It reports whether the timer was
// still pending (false means it already fired or never existed).
func (s *Scheduler) CancelTimer(tok TimerToken) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.timers.cancel(tok)
}

// Stop shuts the scheduler down: the running thread halts at its next
// communication point, Run unwinds the others and returns.  Safe to call
// multiple times and from any goroutine.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.signalWake()
}

// Err reports the first failure recorded by the scheduler (a panicking code
// function), or nil.
func (s *Scheduler) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Run executes threads until all of them terminate, Stop is called, or a
// deadlock is detected.  It returns nil on clean completion or shutdown,
// ErrDeadlock on deadlock, or the error recorded from a panicking thread.
// Run must be called exactly once per scheduler.
//
// Run claims the clock before consuming time: a plain virtual clock refuses
// a second concurrent scheduler (vclock.ErrSharedVirtual — the shared-clock
// time-travel bug is now a loud, deterministic error), and a GroupVirtual
// member binds this scheduler into the coordinated advance.  The claim is
// released on shutdown.
func (s *Scheduler) Run() error {
	if b, ok := s.clock.(vclock.Binder); ok {
		if err := b.Bind(s); err != nil {
			s.fail(err)
			s.shutdown()
			return err
		}
	}
	defer s.shutdown()
	s.mu.Lock()
	for {
		if s.stopped {
			err := s.err
			s.mu.Unlock()
			return err
		}
		if s.live == 0 {
			if s.extRefs == 0 {
				s.stopped = true // decided under the lock: AddExternalSource refuses from here
				s.mu.Unlock()
				return nil
			}
			// No threads yet, but registered external sources may still
			// spawn or post; idle until they do (or release).  On a
			// coordinated clock the wait must be visible to the group so
			// peers' timers are not held back by an empty scheduler.
			s.mu.Unlock()
			s.waitForWake()
			s.mu.Lock()
			continue
		}
		t := s.ready.popMax()
		if t == nil {
			if !s.idleLocked() {
				err := s.err
				s.mu.Unlock()
				return err
			}
			continue
		}
		t.state = stateRunning
		t.waitPred = nil
		s.grants.Inc()
		if t != s.lastRun {
			s.switches.Inc()
			s.lastRun = t
		}
		s.mu.Unlock()

		// Grant the run token: resume the thread's coroutine until it
		// yields the token back, terminates, or fails (its own recover has
		// called fail by the time next returns).  The coroutine is made
		// here, at the first grant, never in Spawn: the runtime ties a
		// coroutine to the OS-thread lock state of the goroutine that made
		// it, and Spawn is called from goroutines that do not share Run's.
		// The mutex is taken as soon as the token is back and kept up to
		// the next grant.
		if t.next == nil {
			t.next, t.stop = iter.Pull(t.body)
		}
		t.next()
		s.mu.Lock()
	}
}

// RunBackground starts Run on its own goroutine and returns a channel that
// yields Run's result exactly once.
func (s *Scheduler) RunBackground() <-chan error {
	errc := make(chan error, 1)
	go func() {
		err := errGoexit // what the caller reads if Run never returns
		defer func() { errc <- err }()
		err = s.Run()
	}()
	return errc
}

// idleLocked handles the no-ready-thread state.  It is called with s.mu held
// and returns with s.mu held.  It reports false when Run should exit
// (deadlock or stop), true when the loop should re-evaluate.
func (s *Scheduler) idleLocked() bool {
	if next, ok := s.timers.peek(); ok {
		// Sleep (or advance the virtual clock) until the earliest timer.
		s.mu.Unlock()
		reached := s.clock.WaitUntil(next, s.wake)
		s.mu.Lock()
		if reached {
			s.fireTimersLocked()
		}
		return !s.stopped
	}
	if s.extRefs > 0 {
		// External sources may still post; block on the wake signal (group
		// clocks see the idle state, so peers' timers can advance time).
		s.mu.Unlock()
		s.waitForWake()
		s.mu.Lock()
		return !s.stopped
	}
	// Live threads, no timers, no external sources: true deadlock.
	if s.err == nil {
		s.err = fmt.Errorf("%w: %s", ErrDeadlock, s.blockedSummaryLocked())
	}
	s.stopped = true
	return false
}

// fireTimersLocked enqueues timer messages for every timer due at or before
// the current instant.
//
//ipvet:hotpath once per timer wake
func (s *Scheduler) fireTimersLocked() {
	now := s.clock.Now()
	for {
		e, ok := s.timers.popDue(now)
		if !ok {
			return
		}
		s.timerCnt.Inc()
		if e.dst != nil && e.dst.state != stateTerminated {
			s.enqueueLocked(e.dst, Message{Kind: KindTimer, Tag: uint64(e.token)})
		}
	}
}

// enqueueLocked appends msg to dst's mailbox, waking dst if the message
// matches its wait predicate.  Caller holds s.mu.
//
//ipvet:hotpath every message of every kind lands here
func (s *Scheduler) enqueueLocked(dst *Thread, msg Message) {
	s.nextSeq++
	msg.seq = s.nextSeq
	dst.mq.push(msg)
	s.messages.Inc()
	switch dst.state {
	case stateBlocked:
		if dst.waitPred == nil || dst.waitPred(msg) {
			dst.state = stateReady
			dst.waitPred = nil
			s.ready.push(dst, 1) // a wake: the grant that blocked is one cycle
		}
	case stateReady:
		// A new message can raise the effective priority (inheritance).
		s.ready.fix(dst)
	case stateRunning, stateTerminated:
		// Nothing to do: a running thread will find the message at its
		// next receive; terminated threads discard mail.
	}
}

// waitForWake blocks the idle scheduler until it is nudged.  On a
// coordinated group clock the wait is registered with the group (idle, no
// deadline) so that the other members may advance shared time.  Stop always
// signals the wake channel, so there is no separate stop case.  Called
// without s.mu held.
func (s *Scheduler) waitForWake() {
	if iw, ok := s.clock.(vclock.IdleWaiter); ok {
		iw.WaitIdle(s.wake)
		return
	}
	<-s.wake
}

// signalWake nudges an idle scheduler without blocking.  Group clocks hear
// about the wake first, so a concurrent advance decision sees the pending
// work before the channel signal can be consumed out from under it.
func (s *Scheduler) signalWake() {
	if s.notifyWake != nil {
		s.notifyWake()
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// fail records the first error and initiates shutdown.
func (s *Scheduler) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.stopped = true
	s.mu.Unlock()
	s.signalWake()
}

// shutdown stops the world and unwinds every thread that was ever granted,
// in spawn order, so that Run leaves no coroutine behind: stop makes the
// thread's pending yield report false, which halts it through its deferred
// functions.  It runs on Run's goroutine, as every next did.  The clock claim
// taken by Run is released last: a group-clock member leaves the coordinated
// advance so peers are not held back by a dead scheduler.
func (s *Scheduler) shutdown() {
	s.mu.Lock()
	s.stopped = true
	started := make([]*Thread, 0, len(s.threads))
	for _, t := range s.threads {
		if t.stop != nil {
			started = append(started, t)
		}
	}
	s.mu.Unlock()
	slices.SortFunc(started, func(a, b *Thread) int { return cmp.Compare(a.id, b.id) })
	for _, t := range started {
		t.stop()
	}
	if b, ok := s.clock.(vclock.Binder); ok {
		b.Unbind(s)
	}
}

// blockedSummaryLocked describes blocked threads for deadlock diagnostics.
func (s *Scheduler) blockedSummaryLocked() string {
	names := make([]string, 0, len(s.threads))
	for _, t := range s.threads {
		if t.state == stateBlocked {
			names = append(names, t.name)
		}
	}
	sort.Strings(names)
	return "blocked: " + strings.Join(names, ", ")
}

// Switches reports the number of context switches (token handoffs to a
// different thread) since the last ResetStats.
func (s *Scheduler) Switches() int64 { return s.switches.Value() }
