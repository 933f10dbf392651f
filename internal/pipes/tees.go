package pipes

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/item"
	"infopipes/internal/typespec"
)

// This file implements the multi-port components of §2.1/§3.3: tees for
// splitting and merging information flows.  Multi-port components bridge
// several linear pipelines.  Following the paper's rule that only one
// passive port is allowed in a non-buffering component, the splitting tee
// buffers internally: the tee is the sink of its trunk pipeline, and each
// output is a passive source feeding a branch pipeline.
//
// There is one split tee and one merge tee.  The mechanism (port buffers,
// end of stream, port surgery) is shared; the policy is one value: a Split
// copies, routes or spreads, and a Merge passes items on in arrival order
// or in ascending Seq order.

// choice is how a Split picks the out-ports of an item.
type choice uint8

const (
	// copyAll multicasts: every live port gets the item (§2.1 "copying
	// items to each output").
	copyAll choice = iota
	// route sends the item to the port the selector picks (§2.1 "selecting
	// an output for each item"); out-of-range or detached picks drop.
	route
	// spread sends item Seq to port (Seq-1) mod active: the replica
	// scale-out split, paired with a seq Merge that rebuilds the trunk.
	spread
)

// Outlet is where a Split port puts its items: a BoundedBuffer, or the
// sending end of a lane to another address space (SetOutlet).
type Outlet interface {
	Insert(ctx *core.Ctx, it *item.Item) error
	CloseUpstream()
}

// Split is the splitting tee: one trunk in, Outs() branch outlets out, and
// a choice of copy, route or spread deciding which ports get each item.
//
// Ports can be added and detached at runtime (AddOut/DetachOut) — the live
// graph-edit surface.  Ports are never renumbered: a detached port is a
// tombstone.  Both mutate the port table without a lock, so they are only
// safe while the trunk pushing into the tee is quiesced (detached at a
// pump-cycle boundary with its threads joined; a branch holds its own port
// buffer and may run on); Deployment.Edit provides exactly that window, and
// refuses a spread split, whose paired merge cannot grow with it.
type Split struct {
	core.Base
	choice   choice
	sel      func(*item.Item) int // route only
	outs     []Outlet
	detached []bool
	lastLive int  // highest attached port: a copy gets the original, not a clone
	ended    bool // trunk EOS seen: late-attached ports close immediately
	capacity int
	push     typespec.BlockPolicy
	pull     typespec.BlockPolicy
	active   atomic.Int32 // spread: ports receiving new items
	base     atomic.Int64 // spread: Seq of the first forwarded item; 0 until seen
}

var (
	_ core.Consumer   = (*Split)(nil)
	_ core.EOSSink    = (*Split)(nil)
	_ core.SplitPoint = (*Split)(nil)
	_ core.BatchEnder = (*Split)(nil)
)

func newSplit(name string, c choice, n, capacity int, push, pull typespec.BlockPolicy,
	sel func(*item.Item) int) *Split {
	t := &Split{Base: core.Base{CompName: name}, choice: c, sel: sel,
		capacity: capacity, push: push, pull: pull}
	for i := 0; i < n; i++ {
		t.AddOut()
	}
	return t
}

// NewCopyTee builds a multicast split with n outputs backed by buffers of
// the given capacity and blocking policies.
func NewCopyTee(name string, n, capacity int, push, pull typespec.BlockPolicy) *Split {
	return newSplit(name, copyAll, n, capacity, push, pull, nil)
}

// NewRouteTee builds a routing split; selector returns the output index for
// each item (out-of-range selections are dropped).  An existing selector
// keeps choosing among whatever range it was written for: a freshly
// attached port only receives traffic if the selector already targets its
// index.
func NewRouteTee(name string, n, capacity int, push, pull typespec.BlockPolicy,
	selector func(it *item.Item) int) *Split {
	return newSplit(name, route, n, capacity, push, pull, selector)
}

// NewElasticTee builds a spread split over n replica ports, all active.
// The stream entering it must carry contiguous ascending Seq numbers, and
// the replicated stage must be 1:1 (one item out per item in, Seq kept), so
// that the paired seq merge (NewOrderedMerge) rebuilds the exact trunk:
// however many replicas are active, every trace below the merge is the same.
func NewElasticTee(name string, n, capacity int, push, pull typespec.BlockPolicy) *Split {
	return newSplit(name, spread, n, capacity, push, pull, nil)
}

// AddOut grows the tee by one output port and returns its index; on a
// spread split the new port is active.  If the trunk has already ended, the
// new port is born closed so a late-attached branch drains straight to a
// clean end of stream.  Quiesce-only: see the type comment.
func (t *Split) AddOut() int {
	i := len(t.outs)
	b := NewBufferPolicy(fmt.Sprintf("%s.out%d", t.Name(), i), t.capacity, t.push, t.pull)
	t.outs = append(t.outs, b)
	t.detached = append(t.detached, false)
	t.lastLive = i
	t.active.Store(int32(len(t.outs)))
	if t.ended {
		b.CloseUpstream()
	}
	return i
}

// DetachOut tombstones port i: the trunk stops feeding it and its buffer is
// closed upstream, so the leaving branch drains what it holds and then sees
// a clean end of stream.  The last attached port cannot be detached.
// Quiesce-only: see the type comment.
func (t *Split) DetachOut(i int) error {
	if i < 0 || i >= len(t.outs) {
		return fmt.Errorf("%s: no out-port %d", t.Name(), i)
	}
	if t.detached[i] {
		return fmt.Errorf("%s: out-port %d already detached", t.Name(), i)
	}
	if slices.Index(t.detached, false) == t.lastLive {
		return fmt.Errorf("%s: cannot detach the last attached out-port", t.Name())
	}
	t.detached[i] = true
	for j, gone := range t.detached {
		if !gone {
			t.lastLive = j
		}
	}
	t.outs[i].CloseUpstream()
	return nil
}

// SetOutlet puts o in place of port i's buffer before the trunk runs.
func (t *Split) SetOutlet(i int, o Outlet) { t.outs[i] = o }

// BatchEnd implements core.BatchEnder: an outlet that holds items back for
// a batch lets them go when the trunk's thread gives up the CPU.
func (t *Split) BatchEnd() {
	for _, o := range t.outs {
		if be, ok := o.(core.BatchEnder); ok {
			be.BatchEnd()
		}
	}
}

// Spread reports whether the split spreads items over replicas
// (NewElasticTee).
func (t *Split) Spread() bool { return t.choice == spread }

// SetActive retunes how many replicas of a spread split receive new items,
// clamped to 1..Outs().  Safe against a running trunk — Push reads it
// atomically per item — so scale-out and fold-back need no quiesce.  Items
// already buffered at an idle replica still drain; the replica simply gets
// no new ones.  Returns the clamped value.
func (t *Split) SetActive(n int) int {
	n = min(max(n, 1), len(t.outs))
	t.active.Store(int32(n))
	return n
}

// Active reports the current number of item-receiving replicas.
func (t *Split) Active() int { return int(t.active.Load()) }

// Style implements core.Component.
func (t *Split) Style() core.Style { return core.StyleConsumer }

// Wrappable implements core.Component: a split that chooses one port per
// item cannot be glued into pull mode — "this component could not work in
// push-style" holds dually here: a pull-driven value switch would need
// unbounded implicit buffering (§3.3), so the middleware refuses to wrap it.
func (t *Split) Wrappable() bool { return t.choice == copyAll }

// Push implements core.Consumer.  A copy clones the item into every live
// port but the last, which gets the original: clones share the attribute
// map copy-on-write, so an n-way fan-out costs n-1 pooled item headers and
// no map copies.  A route or a spread inserts the item into one port.
func (t *Split) Push(ctx *core.Ctx, it *item.Item) error {
	var port int
	switch t.choice {
	case copyAll:
		for i, b := range t.outs {
			if t.detached[i] {
				continue
			}
			out := it
			if i != t.lastLive {
				out = it.Clone()
			}
			if err := b.Insert(ctx, out); err != nil {
				return err
			}
		}
		return nil
	case route:
		port = t.sel(it)
	case spread:
		if t.base.Load() == 0 {
			// Published before the item is forwarded, so any item reaching
			// the paired merge finds the base already set.
			t.base.Store(it.Seq)
		}
		n := int64(t.active.Load())
		i := (it.Seq - 1) % n
		if i < 0 {
			i += n
		}
		port = int(i)
	}
	if port < 0 || port >= len(t.outs) || t.detached[port] {
		return nil
	}
	return t.outs[port].Insert(ctx, it)
}

// HandleEOS implements core.EOSSink: end of the trunk stream closes every
// attached branch buffer, so branch pipelines drain and end too.  Detached
// ports were already closed when they left.
func (t *Split) HandleEOS(*core.Ctx) {
	t.ended = true
	for i, b := range t.outs {
		if !t.detached[i] {
			b.CloseUpstream()
		}
	}
}

// HandleEvent implements core.Component: a stop event also releases the
// branches, since the trunk will produce nothing further.
func (t *Split) HandleEvent(_ *core.Ctx, ev events.Event) {
	if ev.Type == events.Stop {
		t.HandleEOS(nil)
	}
}

// Out returns the i-th output, a buffer port, as a passive source component
// for a branch pipeline.
func (t *Split) Out(i int) *BufferSource {
	return NewBufferSource(fmt.Sprintf("%s.src%d", t.Name(), i), t.OutBuffer(i))
}

// OutBuffer exposes the i-th buffer port (fill-level sensors).
func (t *Split) OutBuffer(i int) *BoundedBuffer { return t.outs[i].(*BoundedBuffer) }

// Outs implements core.SplitPoint.
func (t *Split) Outs() int { return len(t.outs) }

// OutPort implements core.SplitPoint.
func (t *Split) OutPort(i int) core.Component { return t.Out(i) }

// Merge is the merging tee: each input is the sink of a trunk pipeline and
// the single output a passive source for the downstream pipeline.  The
// merged stream ends when every input has ended.
//
// In arrival order (NewMergeTee) it passes items on "in the order in which
// it arrives at any input" (§2.1), re-stamping Origin per input.  In seq
// order (NewOrderedMerge) it rebuilds the stream a spread split cut up,
// holding out-of-order arrivals in a reorder window, and leaves Origin as
// it is: its output is the trunk stream, already unique and monotone per
// origin, so durable lanes downstream journal it unchanged.
//
// Mutual exclusion: the in-ports are sinks of pipelines on any shard, and
// Stop events arrive on the deployment's goroutine.  In arrival order the
// output buffer's lock serializes the pushes; in seq order mu guards the
// window and is never held across a blocking buffer Insert — a release in
// progress is marked by `draining`, and other entrants deposit and leave.
type Merge struct {
	core.Base
	out   *BoundedBuffer
	ins   int
	seq   bool   // ascending-Seq order; arrival order otherwise
	split *Split // seq: the paired spread split, whose first Seq starts the stream

	mu       sync.Mutex
	open     int
	inEnded  []bool // per-port EOS latch: ending one input twice is a no-op
	next     int64  // seq: next Seq to release; 0 until adopted
	pending  map[int64]*item.Item
	draining bool
	closed   bool
}

var _ core.MergePoint = (*Merge)(nil)

func newMerge(name string, n, capacity int, push, pull typespec.BlockPolicy, seq bool, split *Split) *Merge {
	return &Merge{
		Base:    core.Base{CompName: name},
		out:     NewBufferPolicy(name+".out", capacity, push, pull),
		ins:     n,
		seq:     seq,
		split:   split,
		open:    n,
		inEnded: make([]bool, n),
		pending: make(map[int64]*item.Item),
	}
}

// NewMergeTee builds an arrival-order merger for n inputs with an internal
// buffer of the given capacity.
func NewMergeTee(name string, n, capacity int, push, pull typespec.BlockPolicy) *Merge {
	return newMerge(name, n, capacity, push, pull, false, nil)
}

// NewOrderedMerge builds a seq-order merger for the n replica branches of a
// spread split.  split, when non-nil, is that split: the Seq it forwarded
// first starts the rebuilt stream, which a mid-stream edit cannot know in
// advance; nil starts at Seq 1 (a fresh deployment's source stream).
func NewOrderedMerge(name string, n, capacity int, push, pull typespec.BlockPolicy, split *Split) *Merge {
	return newMerge(name, n, capacity, push, pull, true, split)
}

// In returns the i-th input as a sink component for a trunk pipeline.
func (t *Merge) In(i int) *MergeIn {
	return &MergeIn{Base: core.Base{CompName: fmt.Sprintf("%s.in%d", t.Name(), i)}, tee: t, idx: i}
}

// Out returns the merged output as a passive source for the downstream
// pipeline.
func (t *Merge) Out() *BufferSource { return NewBufferSource(t.Name()+".src", t.out) }

// OutBuffer exposes the internal buffer.
func (t *Merge) OutBuffer() *BoundedBuffer { return t.out }

// Ins implements core.MergePoint.
func (t *Merge) Ins() int { return t.ins }

// InPort implements core.MergePoint.
func (t *Merge) InPort(i int) core.Component { return t.In(i) }

// OutPort implements core.MergePoint.
func (t *Merge) OutPort() core.Component { return t.Out() }

// reorder deposits one arrival and releases the contiguous run starting at
// next.  Only one thread releases at a time; concurrent entrants deposit
// and return, and the releasing thread re-checks the window after every
// Insert, so no ready item is ever stranded.
func (t *Merge) reorder(ctx *core.Ctx, it *item.Item) error {
	t.mu.Lock()
	if t.next == 0 {
		t.next = 1
		if t.split != nil {
			if b := t.split.base.Load(); b > 0 {
				t.next = b
			}
		}
	}
	t.pending[it.Seq] = it
	if t.draining || t.closed {
		t.mu.Unlock()
		return nil
	}
	t.draining = true
	for {
		nx, ok := t.pending[t.next]
		if !ok {
			break
		}
		delete(t.pending, t.next)
		t.next++
		t.mu.Unlock()
		err := t.out.Insert(ctx, nx)
		t.mu.Lock()
		if err != nil {
			t.draining = false
			t.mu.Unlock()
			return err
		}
	}
	if t.open != 0 {
		t.draining = false
		t.mu.Unlock()
		return nil
	}
	// The last input ended while (or before) this release ran: flush the
	// stragglers beyond the gap and close.
	return t.flushAndClose(ctx)
}

// flushAndClose emits everything left in the window in ascending Seq order
// (tolerating gaps, so a non-1:1 replicated stage cannot wedge the stream
// forever) and closes the output; called with mu held and draining set,
// returns with mu released and draining clear.  ctx is nil on the
// Stop-event path: the stream is being aborted, nothing may block, and the
// window's leftovers are abandoned with it.
func (t *Merge) flushAndClose(ctx *core.Ctx) error {
	rest := make([]*item.Item, 0, len(t.pending))
	for _, s := range slices.Sorted(maps.Keys(t.pending)) {
		rest = append(rest, t.pending[s])
	}
	clear(t.pending)
	t.closed = true
	t.mu.Unlock()
	var err error
	for _, it := range rest {
		if ctx == nil {
			break
		}
		if err = t.out.Insert(ctx, it); err != nil {
			break
		}
	}
	t.out.CloseUpstream()
	t.mu.Lock()
	t.draining = false
	t.mu.Unlock()
	return err
}

// inputDone records the end of input i.  Idempotent per port: a recomposed
// inbound pipeline (pipeline migration) re-propagating an already-seen end
// of stream must not end a second input.  When the last input ends the
// output closes — after the seq window flushes, unless a release in
// progress will see open == 0 and flush itself.
func (t *Merge) inputDone(ctx *core.Ctx, i int) {
	t.mu.Lock()
	if i < 0 || i >= len(t.inEnded) || t.inEnded[i] {
		t.mu.Unlock()
		return
	}
	t.inEnded[i] = true
	t.open--
	if t.open != 0 || t.draining || t.closed {
		t.mu.Unlock()
		return
	}
	t.draining = true
	_ = t.flushAndClose(ctx)
}

// MergeIn is one input port of a Merge, used as a trunk pipeline's sink.
type MergeIn struct {
	core.Base
	tee *Merge
	idx int
}

var (
	_ core.Consumer = (*MergeIn)(nil)
	_ core.EOSSink  = (*MergeIn)(nil)
)

// Style implements core.Component.
func (m *MergeIn) Style() core.Style { return core.StyleConsumer }

// Push implements core.Consumer.  In arrival order the in-port stamps the
// item's provenance before it joins the merged flow: (Origin, Seq) stays
// unique and monotone per origin downstream of the merge, so durable lanes
// below it can still journal, acknowledge and deduplicate (the merged flow
// itself interleaves the branches' sequence numbers).
func (m *MergeIn) Push(ctx *core.Ctx, it *item.Item) error {
	if m.tee.seq {
		return m.tee.reorder(ctx, it)
	}
	it.Origin = it.Origin*int64(m.tee.ins+1) + int64(m.idx+1)
	return m.tee.out.Insert(ctx, it)
}

// HandleEOS implements core.EOSSink.
func (m *MergeIn) HandleEOS(ctx *core.Ctx) { m.tee.inputDone(ctx, m.idx) }

// HandleEvent implements core.Component.
func (m *MergeIn) HandleEvent(_ *core.Ctx, ev events.Event) {
	if ev.Type == events.Stop {
		m.tee.inputDone(nil, m.idx)
	}
}

// BufferSource adapts a BoundedBuffer's passive pull end into a
// producer-style source component, used to start branch pipelines at tee
// outputs and netpipe receivers.
type BufferSource struct {
	core.Base
	buf *BoundedBuffer
}

var _ core.Producer = (*BufferSource)(nil)

// NewBufferSource wraps buf as a source.
func NewBufferSource(name string, buf *BoundedBuffer) *BufferSource {
	return &BufferSource{Base: core.Base{CompName: name}, buf: buf}
}

// Style implements core.Component.
func (s *BufferSource) Style() core.Style { return core.StyleProducer }

// Pull implements core.Producer.
func (s *BufferSource) Pull(ctx *core.Ctx) (*item.Item, error) { return s.buf.Remove(ctx) }

// Buffer exposes the backing buffer.
func (s *BufferSource) Buffer() *BoundedBuffer { return s.buf }

// PullSwitch is the activity-routing switch of §3.3: a pull on either
// out-port triggers an upstream pull and returns the item to the caller.
// Both out-ports are passive and the in-port is active; "this component
// could not work in push-style".  The upstream is a shared passive pull
// function (typically a buffer or a passive source chain).
//
// Mutual exclusion between the out-ports comes from the user-level thread
// model itself: all callers are threads of one scheduler and only one runs
// at a time, so the upstream pull is never entered concurrently.  A lock
// held across the (possibly blocking) upstream call would stall the whole
// scheduler and must not be added.
type PullSwitch struct {
	name     string
	upstream func(ctx *core.Ctx) (*item.Item, error)
}

// NewPullSwitch builds an activity-routing switch over the given upstream.
func NewPullSwitch(name string, upstream func(ctx *core.Ctx) (*item.Item, error)) *PullSwitch {
	return &PullSwitch{name: name, upstream: upstream}
}

// Out returns the i-th passive out-port as a source component.
func (s *PullSwitch) Out(i int) *PullSwitchOut {
	return &PullSwitchOut{Base: core.Base{CompName: fmt.Sprintf("%s.out%d", s.name, i)}, sw: s}
}

// PullSwitchOut is one passive out-port of a PullSwitch.
type PullSwitchOut struct {
	core.Base
	sw *PullSwitch
}

var _ core.Producer = (*PullSwitchOut)(nil)

// Style implements core.Component.
func (o *PullSwitchOut) Style() core.Style { return core.StyleProducer }

// Wrappable implements core.Component: the out-ports must stay passive.
func (o *PullSwitchOut) Wrappable() bool { return false }

// Pull implements core.Producer.
func (o *PullSwitchOut) Pull(ctx *core.Ctx) (*item.Item, error) { return o.sw.upstream(ctx) }
