package shard

import (
	"sync"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/item"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// msgShardWake wakes a thread blocked on a shard link (either side).
const msgShardWake uthread.Kind = uthread.KindUserBase + 48

// Link is the in-process cross-shard netpipe: one pipeline's sink on shard A
// feeds another pipeline's source on shard B through a bounded item queue.
// It is inbox-based like the netpipe receiver, but zero-copy — items cross
// by reference, no marshalling — and bidirectionally blocking: a full queue
// blocks the sender (backpressure) and an empty queue blocks the receiver,
// both with control-event dispatch while blocked (§3.2), and both woken by a
// cross-scheduler Post (network packets mapped to messages, §4, applied to
// shard-local traffic).
//
// Like the network links it exposes SenderStages/ReceiverStages so the two
// pipelines compose through the existing external-source machinery; unlike
// them the stages contain no marshal filters.
type Link struct {
	name    string
	rxSched *uthread.Scheduler
	limit   int

	mu        sync.Mutex
	q         []*item.Item
	closed    bool
	released  bool
	rxWaiters core.WaiterList
	txWaiters core.WaiterList
	moved     int64 // items handed across, for diagnostics
	drains    int64 // batched queue handoffs, for diagnostics
	wakes     int64 // cross-scheduler wake posts (both directions)
	highWater int   // deepest the queue (incl. batch remainder) has been

	// batch holds the receiver's current drain: pop takes the WHOLE queue
	// in one handoff and serves items from the batch without waking senders
	// per item, so the cross-scheduler wake traffic is amortised over the
	// queue depth on high-rate links.  batchPos indexes the next item.
	batch    []*item.Item
	batchPos int
}

// NewLink creates a link delivering into rxSched.  queueLimit bounds the
// in-flight item queue (0 = 64, the buffer-ish default; senders block while
// full).  The receiving scheduler holds an external-source reference until
// the link closes, exactly like a netpipe receiver.
func NewLink(name string, rxSched *uthread.Scheduler, queueLimit int) *Link {
	if queueLimit <= 0 {
		queueLimit = 64
	}
	l := &Link{name: name, rxSched: rxSched, limit: queueLimit}
	rxSched.AddExternalSource()
	return l
}

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Depth reports the number of items currently queued, including items
// drained to the receiver's batch but not yet consumed (diagnostics and
// feedback sensors).
func (l *Link) Depth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.q) + (len(l.batch) - l.batchPos)
}

// Drains reports how many batched queue handoffs the receiver performed;
// Moved()/Drains() is the achieved batching factor.
func (l *Link) Drains() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.drains
}

// Moved reports the total number of items handed across the link.
func (l *Link) Moved() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.moved
}

// Wakes reports the number of cross-scheduler wake posts the link issued
// (receiver wakes on send plus sender wakes per drain round); Moved()/Wakes()
// approximates items per wake.
func (l *Link) Wakes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wakes
}

// HighWater reports the deepest the in-flight queue has been (including the
// receiver's unconsumed batch remainder) — the backpressure high-water mark.
func (l *Link) HighWater() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.highWater
}

// Closed reports whether the stream over the link has ended (sender EOS,
// stop, or Close).
func (l *Link) Closed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// Retarget moves the link's delivery to a new receiving scheduler: the
// rebalancer calls it after the old receiver pipeline detached and before
// the segment is recomposed on the new shard, so the external-source
// reference follows the receiver.  Queued items (and any unconsumed batch
// remainder) stay put — they are handed to the recomposed receiver in
// order.  No receiver may be parked on the link when it is retargeted (a
// running sender may: its wakes go through its own scheduler); a no-op on a
// closed link.  The new reference is taken under the lock: a sender's Close
// racing the retarget releases whichever scheduler it finds, and that one
// must already hold it.
func (l *Link) Retarget(rxSched *uthread.Scheduler) {
	l.mu.Lock()
	old := l.rxSched
	if l.released || old == rxSched {
		l.mu.Unlock()
		return
	}
	rxSched.AddExternalSource()
	l.rxSched = rxSched
	l.mu.Unlock()
	old.ReleaseExternalSource()
}

// send hands one item across, blocking while the queue is full.  Called on a
// sender-shard thread.  Returns core.ErrStopped once the link is closed or
// the sender's section is stopping.
//
//ipvet:hotpath cross-shard handoff; every item over a link passes here
func (l *Link) send(ctx *core.Ctx, it *item.Item) error {
	t := ctx.Thread()
	// The receiver is woken at the sender's effective priority (the tenant
	// priority carried by the pump constraint, §4 inheritance): priority
	// crosses the link instead of the relay flattening it.  Default traffic
	// wakes at the protocol's usual PriorityHigh floor, unchanged.
	wakeAt := core.WakePrio(core.SenderPriority(t))
	for {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return core.ErrStopped
		}
		// A detaching sender force-completes over the limit: the queue
		// outlives the sender's threads across a migration, so the item in
		// hand is enqueued rather than lost (bounded by one item per
		// blocked sender).
		if len(l.q) < l.limit || (ctx.Stopping() && ctx.Detaching()) {
			l.q = append(l.q, it)
			if depth := len(l.q) + (len(l.batch) - l.batchPos); depth > l.highWater {
				l.highWater = depth
			}
			w, ok := l.rxWaiters.PopFront()
			if ok {
				l.wakes++
			}
			l.mu.Unlock()
			if ok {
				w.WakeAt(msgShardWake, wakeAt)
			}
			return nil
		}
		if ctx.Stopping() {
			l.mu.Unlock()
			return core.ErrStopped
		}
		tok := l.txWaiters.Register(t)
		l.mu.Unlock()
		//ipvet:allow hotalloc queue-full park path; the thread blocks here, so the bound methods are not per-item cost
		if err := core.AwaitWake(t, msgShardWake, tok, ctx.Stopping, l.deregisterTx); err != nil {
			if ctx.Detaching() {
				continue // re-enter: the force-complete branch takes the item
			}
			return err
		}
	}
}

// pop removes the next item, blocking while the queue is empty.  Called on a
// receiver-shard thread.  Returns core.ErrEOS after close and drain.
//
// The receiver drains the whole queue per wake (ROADMAP batching item): the
// first pop after senders refilled the queue swaps the entire queue into the
// receiver's batch, wakes every blocked sender once, and subsequent pops
// serve from the batch — one wake round per queue depth instead of one
// cross-scheduler Post per item.
//
//ipvet:hotpath cross-shard drain; batch swap plus per-item serve
func (l *Link) pop(ctx *core.Ctx) (*item.Item, error) {
	t := ctx.Thread()
	for {
		l.mu.Lock()
		if l.batchPos < len(l.batch) {
			it := l.batch[l.batchPos]
			l.batch[l.batchPos] = nil
			l.batchPos++
			l.mu.Unlock()
			return it, nil
		}
		if len(l.q) > 0 {
			old := l.batch // fully consumed and nil'ed: reuse as the queue
			l.batch, l.batchPos = l.q, 0
			l.q = old[:0]
			l.moved += int64(len(l.batch))
			l.drains++
			waiters := l.txWaiters.TakeAll()
			l.wakes += int64(len(waiters))
			l.mu.Unlock()
			for _, w := range waiters {
				w.Wake(msgShardWake)
			}
			continue
		}
		if l.closed {
			l.mu.Unlock()
			return nil, core.ErrEOS
		}
		if ctx.Stopping() {
			l.mu.Unlock()
			return nil, core.ErrStopped
		}
		tok := l.rxWaiters.Register(t)
		l.mu.Unlock()
		//ipvet:allow hotalloc queue-empty park path; the thread blocks here, so the bound methods are not per-item cost
		if err := core.AwaitWake(t, msgShardWake, tok, ctx.Stopping, l.deregisterRx); err != nil {
			return nil, err
		}
	}
}

// deregisterRx and deregisterTx adapt the two waiter lists to the shared
// core.AwaitWake blocking protocol.  Tokens from the two lists cannot
// confuse a waiter: a thread can only be parked on one side at a time, and
// every wake is consumed before the thread can park again.
func (l *Link) deregisterRx(tok uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rxWaiters.Remove(tok)
}

func (l *Link) deregisterTx(tok uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.txWaiters.Remove(tok)
}

// Close marks end of stream and wakes both sides: blocked receivers drain
// the queue and then see EOS, blocked senders see ErrStopped.  Idempotent;
// normally driven by the sender pipeline's EOS or stop.
func (l *Link) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	waiters := append(l.rxWaiters.TakeAll(), l.txWaiters.TakeAll()...)
	release := !l.released
	l.released = true
	rxSched := l.rxSched
	l.mu.Unlock()
	for _, w := range waiters {
		w.Wake(msgShardWake)
	}
	if release {
		rxSched.ReleaseExternalSource()
	}
}

// NewSink returns the sender-side endpoint component (a consumer).
func (l *Link) NewSink(name string) core.Component {
	return &shardSink{Base: core.Base{CompName: name}, link: l}
}

type shardSink struct {
	core.Base
	link *Link
}

var (
	_ core.Consumer = (*shardSink)(nil)
	_ core.EOSSink  = (*shardSink)(nil)
)

// Style implements core.Component.
func (s *shardSink) Style() core.Style { return core.StyleConsumer }

// Push implements core.Consumer: zero-copy handoff, the very item flows on.
func (s *shardSink) Push(ctx *core.Ctx, it *item.Item) error {
	return s.link.send(ctx, it)
}

// HandleEOS implements core.EOSSink: end of the sender stream closes the
// link so the receiver pipeline can finish.
func (s *shardSink) HandleEOS(*core.Ctx) { s.link.Close() }

// HandleEvent implements core.Component: a stop on the sender side also ends
// the cross-shard stream.
func (s *shardSink) HandleEvent(_ *core.Ctx, ev events.Event) {
	if ev.Type == events.Stop {
		s.link.Close()
	}
}

// NewSource returns the receiver-side endpoint component (a producer).
func (l *Link) NewSource(name string) core.Component {
	return &shardSource{Base: core.Base{CompName: name}, link: l}
}

type shardSource struct {
	core.Base
	link *Link
}

var _ core.Producer = (*shardSource)(nil)

// Style implements core.Component.
func (s *shardSource) Style() core.Style { return core.StyleProducer }

// TransformSpec implements core.Component: crossing shards changes the
// location property (§2.4) — the item type is untouched, nothing was
// marshalled.
func (s *shardSource) TransformSpec(in typespec.Typespec) typespec.Typespec {
	out := in.Clone()
	out.Location = s.link.name
	return out
}

// HandleEvent implements core.Component: a stop on the RECEIVER side also
// tears the link down.  The two pipelines may live on separate buses, so
// the sender would otherwise never learn, block forever on a full queue,
// and hold the receiver shard's external-source reference — wedging the
// whole group (the netpipe receiver releases its reference when its reader
// exits; this is the in-process equivalent).
func (s *shardSource) HandleEvent(_ *core.Ctx, ev events.Event) {
	if ev.Type == events.Stop {
		s.link.Close()
	}
}

// Pull implements core.Producer.
func (s *shardSource) Pull(ctx *core.Ctx) (*item.Item, error) {
	return s.link.pop(ctx)
}

// SenderStages returns the canonical sender-side tail for this link — just
// the sink: items cross in process, so there is nothing to marshal.
func (l *Link) SenderStages(name string) []core.Stage {
	return []core.Stage{core.Comp(l.NewSink(name + "/sink"))}
}

// ReceiverStages returns the canonical receiver-side head for this link —
// just the source, for the same zero-copy reason.
func (l *Link) ReceiverStages(name string) []core.Stage {
	return []core.Stage{core.Comp(l.NewSource(name + "/source"))}
}
