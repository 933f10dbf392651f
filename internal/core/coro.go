package core

import (
	"iter"

	"infopipes/internal/item"
)

// eosToken is the end-of-stream marker handed across a coroutine hop.  It is
// compared by identity and never reaches a component.
var eosToken = new(item.Item)

// coro is one coroutine of a section's set (§3.3, Fig 9): a component's main
// loop, or the glue Fig 7 generates for a passive component used against its
// natural mode, running on a pull coroutine (iter.Pull) nested in the
// section's one thread.  Its neighbour nearer the pump — the pump side —
// resumes it directly, so the activity travels with the data and a hop costs
// one coroutine switch each way: no message, no ready-queue entry, no lock.
//
// Upstream of the pump the coroutine is in pull mode: the pump side's Get is
// get, which resumes it, and the coroutine's Put is put, which yields the
// item and stays suspended until the pump side's next Get.  Downstream it is
// in push mode: the pump side's Put is give, which fills a one-item slot and
// resumes it, and the coroutine's Get is take, which empties the slot or
// yields until the next give.
//
// A blocking wait inside the coroutine (a buffer Remove, SleepFor, Call)
// parks the whole thread from there: the thread-side API may be called from
// a coroutine nested in a thread's body, and the scheduler's next grant
// resumes exactly that coroutine.
type coro struct {
	sect *section
	rt   *placementRT

	// next, stop and yield are the two ends of the coroutine, made at its
	// first resume on the section's thread (never in Compose: the runtime
	// ties a coroutine to the OS-thread lock state of its maker).
	next  func() (*item.Item, bool)
	stop  func()
	yield func(*item.Item) bool

	// slot is the push-mode handoff; full tells a nil item from none.
	slot *item.Item
	full bool
}

// newCoro adds a coroutine for rt to the section's set.
func (s *section) newCoro(rt *placementRT) *coro {
	c := &coro{sect: s, rt: rt}
	s.coros = append(s.coros, c)
	return c
}

// start makes the coroutine.  Its body is the placement's glue.
func (c *coro) start() {
	c.next, c.stop = iter.Pull(func(yield func(*item.Item) bool) {
		c.yield = yield
		c.sect.runGlue(c.rt)
	})
}

// resume runs the coroutine until it yields or ends, counting the hop.
//
//ipvet:hotpath one per item per coroutine hop
func (c *coro) resume() (*item.Item, bool) {
	if c.next == nil {
		c.start()
	}
	c.sect.pipeline.stats.hops.Add(1)
	return c.next()
}

// get is the pump side's Get from a pull-mode coroutine: resume it until its
// next Put.  At end of stream it resumes it once more, so that its last Put
// returns and it ends.  A coroutine that ended without an end-of-stream was
// stopped or failed.
//
//ipvet:hotpath one per item per coroutine hop
func (c *coro) get(*Ctx) (*item.Item, error) {
	if c.sect.stopping.Load() {
		return nil, ErrStopped
	}
	it, ok := c.resume()
	switch {
	case !ok:
		return nil, ErrStopped
	case it == eosToken:
		c.resume()
		return nil, ErrEOS
	}
	return it, nil
}

// put is a pull-mode coroutine's Put: hand the item to the pump side and stay
// suspended until the pump side's next Get (§3.3's synchronous handoff).
//
//ipvet:hotpath one per item per coroutine hop
func (c *coro) put(_ *Ctx, it *item.Item) error {
	if c.sect.stopping.Load() || !c.yield(it) {
		return ErrStopped
	}
	return nil
}

// give is the pump side's Put into a push-mode coroutine: fill the slot and
// resume the coroutine until it asks for the next item or ends.  The first
// give starts it with the item already in the slot (§3.3: "the first push
// call invokes the main function").  An item the coroutine ended without
// taking is refused with ErrStopped, never dropped silently.
//
//ipvet:hotpath one per item per coroutine hop
func (c *coro) give(_ *Ctx, it *item.Item) error {
	if c.sect.stopping.Load() {
		return ErrStopped
	}
	c.slot, c.full = it, true
	if _, ok := c.resume(); !ok && c.full {
		c.slot, c.full = nil, false
		return ErrStopped
	}
	return nil
}

// take is a push-mode coroutine's Get: the item in the slot, or a yield to
// the pump side until its next give fills it.
//
//ipvet:hotpath one per item per coroutine hop
func (c *coro) take(*Ctx) (*item.Item, error) {
	if !c.full && (c.sect.stopping.Load() || !c.yield(nil)) {
		return nil, ErrStopped
	}
	it := c.slot
	c.slot, c.full = nil, false
	if it == eosToken {
		return nil, ErrEOS
	}
	return it, nil
}

// stopCoros unwinds every coroutine of the set that was started and is still
// suspended: a suspended Put or Get returns ErrStopped and the glue ends.  It
// runs deferred on the section's thread, so a scheduler halt — which unwinds
// only the chain of coroutines the thread was parked in — still reaches the
// others, and each stop is its own deferred call, so one that re-raises the
// halt does not skip the rest.  A finished coroutine's stop does nothing.
func (s *section) stopCoros() {
	for _, c := range s.coros {
		if c.stop != nil {
			defer c.stop()
		}
	}
}
