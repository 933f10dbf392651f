package pipes

import (
	"sync"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/item"
	"infopipes/internal/trace"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// BoundedBuffer is the standard buffer of §2.1: passive at both ends,
// providing temporary storage and removing rate fluctuations.  Its blocking
// behaviour follows the Typespec model of §2.3: when full, a push either
// blocks the caller or drops the item; when empty, a pull either blocks or
// returns the nil item.
//
// Blocking is integrated with the user-level thread package: a blocked
// operation suspends the calling thread on a wake message, and control
// events are still delivered and dispatched while blocked (§3.2).  Each wake
// goes through the waiter's own scheduler, so the two ends may run on
// different shards (a tee port read by a branch on another shard).  Before it
// comes to that, an Insert that fills the buffer or a Remove that empties it
// ends the calling pump's batch (Ctx.EndBatch), so the pump on the other
// side runs while there is still work for it and nobody blocks.
type BoundedBuffer struct {
	name     string
	capacity int
	pushPol  typespec.BlockPolicy
	pullPol  typespec.BlockPolicy

	mu     sync.Mutex
	q      []*item.Item
	closed bool
	// Threads suspended in Remove (waiting for items) or Insert (waiting
	// for space).
	itemWaiters, spaceWaiters core.WaiterList

	drops   trace.Counter
	inserts trace.Counter
	removes trace.Counter
	maxFill trace.Gauge
}

var _ core.Buffer = (*BoundedBuffer)(nil)

// NewBuffer returns a buffer with the given capacity that blocks on both
// full and empty conditions — the common jitter-removal configuration.
func NewBuffer(name string, capacity int) *BoundedBuffer {
	return NewBufferPolicy(name, capacity, typespec.Block, typespec.Block)
}

// NewDroppingBuffer returns a buffer that drops pushed items when full and
// returns the nil item when empty (fully non-blocking).
func NewDroppingBuffer(name string, capacity int) *BoundedBuffer {
	return NewBufferPolicy(name, capacity, typespec.NonBlock, typespec.NonBlock)
}

// NewBufferPolicy returns a buffer with explicit blocking policies for the
// push (full) and pull (empty) sides.
func NewBufferPolicy(name string, capacity int, push, pull typespec.BlockPolicy) *BoundedBuffer {
	if capacity < 1 {
		capacity = 1
	}
	return &BoundedBuffer{
		name:     name,
		capacity: capacity,
		pushPol:  push,
		pullPol:  pull,
		q:        make([]*item.Item, 0, capacity),
	}
}

// Name implements core.Buffer.
func (b *BoundedBuffer) Name() string { return b.name }

// Spec implements core.Buffer.
func (b *BoundedBuffer) Spec() (push, pull typespec.BlockPolicy) {
	return b.pushPol, b.pullPol
}

// Len implements core.Buffer.
func (b *BoundedBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.q)
}

// Cap implements core.Buffer.
func (b *BoundedBuffer) Cap() int { return b.capacity }

// Drops reports items dropped by the non-blocking push policy.
func (b *BoundedBuffer) Drops() int64 { return b.drops.Value() }

// Inserts reports accepted items.
func (b *BoundedBuffer) Inserts() int64 { return b.inserts.Value() }

// Removes reports removed items.
func (b *BoundedBuffer) Removes() int64 { return b.removes.Value() }

// MaxFill reports the high-water mark of the fill level.
func (b *BoundedBuffer) MaxFill() int64 { return b.maxFill.Value() }

// HandleEvent implements core.Buffer (no standard events).
func (b *BoundedBuffer) HandleEvent(events.Event) {}

// CloseUpstream implements core.Buffer: marks end of stream; blocked and
// future Removes see ErrEOS once the queue drains.
func (b *BoundedBuffer) CloseUpstream() {
	b.mu.Lock()
	b.closed = true
	waiters := b.itemWaiters.TakeAll()
	b.mu.Unlock()
	for _, w := range waiters {
		w.Wake(core.MsgBufferWake)
	}
}

// Closed reports whether the upstream has ended.
func (b *BoundedBuffer) Closed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// Insert implements core.Buffer (the push side).
//
//ipvet:hotpath one per item per buffer
func (b *BoundedBuffer) Insert(ctx *core.Ctx, it *item.Item) error {
	t := ctx.Thread()
	for {
		b.mu.Lock()
		// Migration teardown interrupting a blocked push force-completes
		// the handoff over capacity: the buffer outlives the section's
		// threads, so the item in hand must not be lost.  The overshoot is
		// bounded by the number of blocked pushers and drains once the
		// recomposed pipeline resumes.
		if len(b.q) < b.capacity || b.pushPol != typespec.NonBlock && ctx.Stopping() && ctx.Detaching() {
			b.q = append(b.q, it)
			if n := int64(len(b.q)); n > b.maxFill.Value() {
				b.maxFill.Set(n)
			}
			if len(b.q) == b.capacity {
				ctx.EndBatch() // the next Insert would block or drop
			}
			b.inserts.Inc()
			w, ok := b.itemWaiters.PopFront()
			b.mu.Unlock()
			if ok {
				w.Wake(core.MsgBufferWake)
			}
			return nil
		}
		if b.pushPol == typespec.NonBlock {
			b.drops.Inc()
			b.mu.Unlock()
			return nil // drop the pushed item (§2.3)
		}
		if ctx.Stopping() {
			b.mu.Unlock()
			return core.ErrStopped
		}
		tok := b.spaceWaiters.Register(t)
		b.mu.Unlock()
		if err := b.await(ctx, t, &b.spaceWaiters, tok); err != nil {
			if ctx.Detaching() {
				continue // re-enter: the detach branch above completes the push
			}
			return err
		}
	}
}

// Remove implements core.Buffer (the pull side).
//
//ipvet:hotpath one per item per buffer
func (b *BoundedBuffer) Remove(ctx *core.Ctx) (*item.Item, error) {
	t := ctx.Thread()
	for {
		b.mu.Lock()
		if len(b.q) > 0 {
			it := b.q[0]
			copy(b.q, b.q[1:])
			b.q = b.q[:len(b.q)-1]
			if len(b.q) == 0 {
				ctx.EndBatch() // the next Remove would block or return nil
			}
			b.removes.Inc()
			w, ok := b.spaceWaiters.PopFront()
			b.mu.Unlock()
			if ok {
				w.Wake(core.MsgBufferWake)
			}
			return it, nil
		}
		if b.closed {
			b.mu.Unlock()
			return nil, core.ErrEOS
		}
		if b.pullPol == typespec.NonBlock {
			b.mu.Unlock()
			return nil, nil // the nil item (§2.3)
		}
		if ctx.Stopping() {
			b.mu.Unlock()
			return nil, core.ErrStopped
		}
		tok := b.itemWaiters.Register(t)
		b.mu.Unlock()
		if err := b.await(ctx, t, &b.itemWaiters, tok); err != nil {
			return nil, err
		}
	}
}

// await suspends the calling thread until its wake token from list
// arrives, dispatching control events that arrive in the meantime (§3.2).
// On return, the waiter registration and any in-flight wake are consumed.
//
//ipvet:hotpath one per blocked Insert or Remove: once per item on a saturated flow
func (b *BoundedBuffer) await(ctx *core.Ctx, t *uthread.Thread, list *core.WaiterList, tok uint64) error {
	for {
		m := t.ReceiveTagged(core.MsgBufferWake, tok)
		if m.Kind == core.MsgBufferWake {
			b.deregister(list, tok)
			return nil
		}
		t.DispatchControl(m)
		if ctx.Stopping() {
			if !b.deregister(list, tok) {
				// A wake was already posted; consume it so it cannot
				// confuse a later wait.
				core.DiscardWake(t, core.MsgBufferWake, tok)
			}
			return core.ErrStopped
		}
	}
}

// deregister takes the token off list, reporting whether it was still
// registered (false means a wake is in flight).
func (b *BoundedBuffer) deregister(list *core.WaiterList, tok uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return list.Remove(tok)
}
