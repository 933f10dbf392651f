package netpipe

import (
	"sync"

	"infopipes/internal/core"
	"infopipes/internal/trace"
	"infopipes/internal/uthread"
)

// msgNetWake wakes a thread blocked on an empty netpipe inbox.
const msgNetWake uthread.Kind = uthread.KindUserBase + 40

// frameEntry is one queued inbound frame.  seq is zero on plain lanes and
// the source-assigned item sequence on durable lanes; origin is the item's
// merge provenance (zero on unmerged flows).
type frameEntry struct {
	origin int64
	seq    int64
	data   []byte
}

// inbox is the receiver-side frame queue of a netpipe: packets are injected
// from outside the thread system (a simnet delivery thread or a TCP reader
// goroutine) and pulled by the consumer pipeline's source endpoint.  It is
// the netpipe analogue of a buffer's passive pull end, including control
// delivery while blocked (§3.2).
type inbox struct {
	mu sync.Mutex
	q  []frameEntry
	// err is nil while the inbox is open and, once closed, what pullers get
	// after the queue drains: core.ErrEOS for a stream that ended,
	// core.ErrStopped for link teardown (a link torn down mid-stream — node
	// shutdown, segment re-placement — must stop its pipeline quietly; an
	// ErrEOS there would propagate a bogus end-of-stream downstream and
	// terminate lanes the re-placed segment still needs), ErrMalformedFrame
	// for a corrupt lane nobody can redial.
	err   error
	limit int
	// blockFull inboxes (durable lanes) park the injecting goroutine on
	// pushCond while the queue is full, instead of dropping the frame: a
	// dropped frame on a durable lane would be acked-but-lost.
	blockFull bool
	pushCond  *sync.Cond // lazily created, guarded by mu
	waiters   core.WaiterList
	drops     trace.Counter
}

// newInbox builds an inbox holding at most limit frames (0 = unlimited).
func newInbox(limit int) *inbox {
	return &inbox{limit: limit}
}

// inject appends one frame, as injectBatch does a batch of one.
func (b *inbox) inject(e frameEntry, wakeAt uthread.Priority) bool {
	return b.injectBatch([]frameEntry{e}, wakeAt)
}

// injectBatch appends the frames of one read and wakes one blocked puller
// per frame appended, at most — one wake for the usual single puller — at
// wakeAt: the cross-flow QoS path, where a priority-tagged frame wakes the
// puller at the SENDER's effective priority (already floored through
// core.WakePrio, the batch's top), so a high-priority tenant's items preempt
// on the receiving scheduler too.  Safe from any goroutine.  A full
// blockFull inbox wakes its puller for what it already holds and blocks the
// caller (a TCP reader goroutine, never a scheduler thread), so durable-lane
// backpressure propagates to the sender through TCP flow control; any other
// full inbox, and a closed one, drops the frames that do not fit and
// reports false.
func (b *inbox) injectBatch(es []frameEntry, wakeAt uthread.Priority) bool {
	b.mu.Lock()
	pending := 0 // frames appended since the last wake
	for i, e := range es {
		for b.err == nil && b.blockFull && b.limit > 0 && len(b.q) >= b.limit {
			if pending > 0 {
				b.wakeLocked(pending, wakeAt)
				pending = 0
				continue
			}
			if b.pushCond == nil {
				b.pushCond = sync.NewCond(&b.mu)
			}
			b.pushCond.Wait()
		}
		if b.err != nil || (b.limit > 0 && len(b.q) >= b.limit) {
			b.wakeLocked(pending, wakeAt)
			b.mu.Unlock()
			b.drops.Add(int64(len(es) - i))
			return false
		}
		b.q = append(b.q, e)
		pending++
	}
	b.wakeLocked(pending, wakeAt)
	b.mu.Unlock()
	return true
}

// wakeLocked wakes up to n blocked pullers, longest-parked first, at wakeAt;
// it releases b.mu for each wake.
func (b *inbox) wakeLocked(n int, wakeAt uthread.Priority) {
	for ; n > 0; n-- {
		w, ok := b.waiters.PopFront()
		if !ok {
			return
		}
		b.mu.Unlock()
		w.WakeAt(msgNetWake, wakeAt)
		b.mu.Lock()
	}
}

// close ends the inbox with err — what pullers get once the queue drains —
// and wakes all blocked pullers and injectors.  The first close wins: a
// stream that genuinely ended (EOS frame seen, reader exited) must keep
// delivering ErrEOS even if the link is torn down while the pipeline is
// still draining the queue.
func (b *inbox) close(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	if b.pushCond != nil {
		b.pushCond.Broadcast()
	}
	waiters := b.waiters.TakeAll()
	b.mu.Unlock()
	for _, w := range waiters {
		w.Wake(msgNetWake)
	}
}

// pop removes the next frame, blocking t (with control dispatch) while the
// inbox is empty.  After close and drain it returns the error the inbox
// closed with; on pipeline shutdown, core.ErrStopped.  stopping may be nil.
func (b *inbox) pop(t *uthread.Thread, stopping func() bool) (frameEntry, error) {
	if stopping == nil {
		stopping = never
	}
	for {
		b.mu.Lock()
		if len(b.q) > 0 {
			e := b.q[0]
			b.q[0] = frameEntry{} // drop the queue's reference to the payload
			b.q = b.q[1:]
			if b.pushCond != nil {
				b.pushCond.Signal()
			}
			b.mu.Unlock()
			return e, nil
		}
		if err := b.err; err != nil {
			b.mu.Unlock()
			return frameEntry{}, err
		}
		if stopping() {
			b.mu.Unlock()
			return frameEntry{}, core.ErrStopped
		}
		tok := b.waiters.Register(t)
		b.mu.Unlock()
		if err := core.AwaitWake(t, msgNetWake, tok, stopping, b.deregister); err != nil {
			return frameEntry{}, err
		}
	}
}

// never is pop's fallback for a nil stopping: package-level so the per-item
// path does not allocate a closure (caught by ipvet).
func never() bool { return false }

func (b *inbox) deregister(tok uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.waiters.Remove(tok)
}

// length reports the number of queued frames.
func (b *inbox) length() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.q)
}

// dropped reports the number of frames discarded at injection (queue-limit
// overflow, or arrival after close).
func (b *inbox) dropped() int64 { return b.drops.Value() }
