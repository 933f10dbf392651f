package uthread

import (
	"errors"
	"sync/atomic"
)

// ErrLinkClosed is returned from Put/Get once a coroutine link is closed
// (normally when the pipeline receives a stop event).
var ErrLinkClosed = errors.New("uthread: coroutine link closed")

// CoroLink joins two threads of one coroutine set with the synchronous
// handoff semantics of §3.3: the communication does not buffer data —
// "instead the activity travels with the data", and all but one coroutine in
// a set is blocked at any time.
//
// Following §4, the synchronous interaction is implemented on top of
// asynchronous messages rather than a synchronous call: while one side is
// blocked in Put or Get, control messages are still delivered through the
// thread's control dispatch hook, so components remain responsive to control
// events even when blocked in a push or pull.
//
// Protocol (derived from the control-flow traces of Figs 5, 6 and 8):
//
//   - Put(x): send a data message to the getter side, then block until the
//     getter performs its next Get against an empty link (which sends a
//     resume message back).
//   - Get(): if an item is already at hand (the stashed invoking message or
//     a queued data message), take it without unblocking the putter; else
//     send a resume to the putter and block for the data message.
//
// This reproduces exactly the arrow patterns of the paper's figures: the
// external activity of a wrapped component is indistinguishable from a
// hand-written passive implementation (experiment E3).
type CoroLink struct {
	name string
	id   uint64  // rides in Message.Tag: which link a handoff belongs to
	up   *Thread // putter side
	down *Thread // getter side

	isData func(Message) bool // IsCoroData, bound once: Get polls with it

	// stash holds the payload of the message that invoked the getter's
	// code function, so the component's first pull can consume it.
	// Getter thread only.
	stash   any
	stashOK bool

	closed atomic.Bool
}

// linkIDs numbers the links of the process; an id only ever meets the ids of
// the links its two threads use.
var linkIDs atomic.Uint64

// NewCoroLink creates a named, unbound link.  Bind both sides before use.
func NewCoroLink(name string) *CoroLink {
	l := &CoroLink{name: name, id: linkIDs.Add(1)}
	l.isData = l.IsCoroData
	return l
}

// Name returns the link's diagnostic name.
func (l *CoroLink) Name() string { return l.name }

// BindUp attaches the putter-side thread.
func (l *CoroLink) BindUp(t *Thread) { l.up = t }

// BindDown attaches the getter-side thread.
func (l *CoroLink) BindDown(t *Thread) { l.down = t }

// Up returns the putter-side thread.
func (l *CoroLink) Up() *Thread { return l.up }

// Down returns the getter-side thread.
func (l *CoroLink) Down() *Thread { return l.down }

// Offer stashes the item carried by the message that invoked the getter's
// code function so that the component's first Get consumes it without a
// handoff (the "first push call invokes the main function" case of §3.3).
// Must be called from the getter-side thread.
func (l *CoroLink) Offer(item any) {
	l.stash = item
	l.stashOK = true
}

// Close marks the link closed; both sides' pending and future Put/Get calls
// return ErrLinkClosed once they observe the closure (they notice after the
// next control dispatch or immediately on entry).  Safe from either side.
func (l *CoroLink) Close() { l.closed.Store(true) }

// Closed reports whether the link has been closed.
func (l *CoroLink) Closed() bool { return l.closed.Load() }

// IsCoroData reports whether m is a data message for this link.
func (l *CoroLink) IsCoroData(m Message) bool {
	return m.Kind == KindCoroData && m.Tag == l.id
}

// isResume reports whether m is a resume message for this link.
func (l *CoroLink) isResume(m Message) bool {
	return m.Kind == KindCoroResume && m.Tag == l.id
}

// ItemOf extracts the data item from a coroutine data message.
func ItemOf(m Message) any {
	if m.Kind == KindCoroData {
		return m.Data
	}
	return nil
}

// Drain releases a putter blocked in Put without consuming another item.
// It is a shutdown-path operation: the getter calls it just before
// terminating so the last Put can return.  Calling Drain when no Put is
// pending leaves a stale resume in the putter's mailbox, so it must only be
// used when the link will not be used again.  Getter-side thread only.
func (l *CoroLink) Drain(t *Thread) {
	t.sendInternal(l.up, Message{Kind: KindCoroResume, Tag: l.id})
}

// Put transfers item across the link from the putter side.  It returns when
// the getter next drains the link (synchronous handoff), or ErrLinkClosed.
// Must be called from the up-side thread while it holds the CPU.
//
//ipvet:hotpath one per item per coroutine hop
func (l *CoroLink) Put(t *Thread, item any) error {
	if l.closed.Load() {
		return ErrLinkClosed
	}
	t.sendInternal(l.down, Message{Kind: KindCoroData, Data: item, Tag: l.id})
	for {
		m := t.ReceiveTagged(KindCoroResume, l.id)
		if l.isResume(m) {
			return nil
		}
		t.dispatchControl(m)
		if l.closed.Load() {
			return ErrLinkClosed
		}
	}
}

// Get receives the next item from the link on the getter side, or
// ErrLinkClosed.  Must be called from the down-side thread while it holds
// the CPU.
//
//ipvet:hotpath one per item per coroutine hop
func (l *CoroLink) Get(t *Thread) (any, error) {
	if l.stashOK {
		item := l.stash
		l.stash = nil
		l.stashOK = false
		return item, nil
	}
	if l.closed.Load() {
		return nil, ErrLinkClosed
	}
	// An item may already be queued (putter ran ahead); taking it must not
	// release the putter — it stays blocked until our next empty Get.
	if m, ok := t.TryReceive(l.isData); ok {
		return m.Data, nil
	}
	// Empty link: release the putter (its previous Put returns), then wait
	// for it to produce.
	t.sendInternal(l.up, Message{Kind: KindCoroResume, Tag: l.id})
	for {
		m := t.ReceiveTagged(KindCoroData, l.id)
		if l.IsCoroData(m) {
			return m.Data, nil
		}
		t.dispatchControl(m)
		if l.closed.Load() {
			return nil, ErrLinkClosed
		}
	}
}
