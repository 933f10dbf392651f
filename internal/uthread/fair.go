package uthread

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// creditScale is the virtual-time cost of one cycle for a class of weight 1.
// Costs are creditScale/weight, so a weight-4 class advances its virtual time
// a quarter as fast per cycle and therefore runs four times as many cycles
// under contention — start-time fair queueing with integer arithmetic (no
// floats: determinism requires bit-exact accounting).
const creditScale = 1 << 16

// SchedClass is a weighted-fair scheduling class (one per tenant per
// scheduler).  Threads spawned into a class share its virtual-time account:
// every time a member thread becomes ready it is stamped with the class's
// virtual time and the class is charged creditScale/weight per cycle of the
// grant that just ended (one, or the batch YieldAfter reported), so
// classes with larger weights accumulate virtual time more slowly and their
// threads sort earlier among equal-priority peers (SCFQ-style weighted
// fairness folded into the ready queue's cached-priority tie-break).
//
// A class binds to the first scheduler that spawns into it and may not be
// shared across schedulers: cross-scheduler sharing would make the account
// mutation order depend on goroutine interleaving, breaking determinism.
// Create one class per (tenant, scheduler) pair instead.
//
// A nil *SchedClass is the default class: no accounting, virtual-time stamp
// equal to the scheduler's current virtual time — byte-for-byte identical
// scheduling to a fairness-unaware scheduler when no real classes exist.
type SchedClass struct {
	name string

	// weight and cost are atomics so a live RebindTenant edit can retune a
	// running class: cost is read by the ready-queue push (under the bound
	// scheduler's mutex) while SetWeight stores from the editing goroutine.
	weight atomic.Int64
	cost   atomic.Int64

	bindMu sync.Mutex
	sched  *Scheduler

	// vtime is the class's virtual-time account; granted counts the cycles
	// charged to member threads.  Both are mutated only under the bound
	// scheduler's mutex (deterministic order); atomics make them readable
	// from stats goroutines without taking that mutex.
	vtime   atomic.Int64
	granted atomic.Int64
}

// NewSchedClass creates a scheduling class with the given diagnostic name and
// weight (minimum 1).  Weight is relative: a weight-2 class receives twice
// the cycles of a weight-1 class under contention.
func NewSchedClass(name string, weight int) *SchedClass {
	c := &SchedClass{name: name}
	c.SetWeight(weight)
	return c
}

// Name returns the class's diagnostic name.
func (c *SchedClass) Name() string { return c.name }

// Weight returns the class's fairness weight.  Safe from any goroutine.
func (c *SchedClass) Weight() int { return int(c.weight.Load()) }

// SetWeight retunes the class's fairness weight (minimum 1) on a live
// scheduler.  The new per-cycle cost applies from the next ready-queue
// admission of any member thread — i.e. within one pump batch — without
// touching the virtual-time account, so past cycles keep their old cost and
// the share shift is glitch-free.  Safe from any goroutine.
func (c *SchedClass) SetWeight(weight int) {
	if weight < 1 {
		weight = 1
	}
	c.weight.Store(int64(weight))
	c.cost.Store(creditScale / int64(weight))
}

// VTime returns the class's current virtual-time account.  Safe from any
// goroutine.
func (c *SchedClass) VTime() int64 { return c.vtime.Load() }

// Granted returns the number of cycles charged to the class: one per wake
// or Yield, or the batch its thread reported with YieldAfter.  Over the
// scheduler's Stats().Cycles it is the class's share of work.  Safe from any
// goroutine.
func (c *SchedClass) Granted() int64 { return c.granted.Load() }

// bind attaches the class to s, refusing a second scheduler.
func (c *SchedClass) bind(s *Scheduler) {
	c.bindMu.Lock()
	defer c.bindMu.Unlock()
	if c.sched == nil {
		c.sched = s
		return
	}
	if c.sched != s {
		panic(fmt.Sprintf("uthread: SchedClass %q already bound to another scheduler (create one class per scheduler)", c.name))
	}
}

// FairNow returns the scheduler's current virtual time — the stamp of the
// latest granted classed thread.  Classes with VTime() ahead of FairNow are
// in credit debt (they have been granted more than their share and are
// waiting for the server clock to catch up).  Safe from any goroutine.
func (s *Scheduler) FairNow() int64 { return s.ready.vnowAtomic.Load() }

// SpawnClassed creates a thread like Spawn, additionally binding it to a
// weighted-fair scheduling class (nil = default class, identical to Spawn).
// All threads of one pipeline share their tenant's class, so the fairness
// account charges per pump cycle regardless of how the pipeline is threaded
// and however many cycles a pump batches into one grant: a grant that ends
// in YieldAfter(n) is charged n cycles, a wake or a Yield one, and a batch a
// higher priority suspends nothing until it ends.
func (s *Scheduler) SpawnClassed(name string, prio Priority, class *SchedClass, code CodeFunc) *Thread {
	if class != nil {
		class.bind(s)
	}
	s.mu.Lock()
	s.nextID++
	t := &Thread{
		id:      s.nextID,
		name:    name,
		sched:   s,
		static:  prio,
		class:   class,
		code:    code,
		state:   stateBlocked, // waiting for first message
		heapIdx: -1,
	}
	t.tagPred = t.matchTagged
	s.threads[t.id] = t
	s.live++
	s.mu.Unlock()
	return t
}
