// Package core implements the Infopipe component model and — the central
// contribution of the paper — transparent thread management (§3): from a
// high-level pipeline description the middleware determines which components
// can share a thread and which need coroutines, generates the glue that
// adapts any activity style to any pipeline position, and encapsulates all
// synchronization in its communication mechanisms, so that component
// developers never deal with threads, locks, or semaphores.
package core

import (
	"time"

	"infopipes/internal/events"
	"infopipes/internal/item"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// Style is the activity style a component is implemented in (§3.3).  The
// middleware accepts all four and adapts them to the pipeline position, so
// "the most appropriate programming model can be chosen for a given task and
// existing code can be reused regardless of its activity model".
type Style int

const (
	// StyleFunction is a one-in/one-out conversion function.  Usable
	// directly in both push and pull mode.
	StyleFunction Style = iota + 1
	// StyleConsumer is a passive object implementing push.  Direct in push
	// mode; needs a coroutine in pull mode.
	StyleConsumer
	// StyleProducer is a passive object implementing pull.  Direct in pull
	// mode; needs a coroutine in push mode.
	StyleProducer
	// StyleActive is an active object with a main function.  Always runs
	// as a coroutine.
	StyleActive
)

// String names the style as in the paper's Figure 9.
func (s Style) String() string {
	switch s {
	case StyleFunction:
		return "function"
	case StyleConsumer:
		return "consumer"
	case StyleProducer:
		return "producer"
	case StyleActive:
		return "main"
	default:
		return "unknown"
	}
}

// Mode is the interaction mode a pipeline position imposes on a component
// (§2.2, Fig 2): components between buffer and pump operate in pull mode,
// components between pump and buffer in push mode.
type Mode int

const (
	// PushMode: items are pushed into the component by its upstream.
	PushMode Mode = iota + 1
	// PullMode: items are pulled out of the component by its downstream.
	PullMode
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case PushMode:
		return "push"
	case PullMode:
		return "pull"
	default:
		return "unknown"
	}
}

// Component is the part of the SPI common to all activity styles.
// Implementations embed Base for the defaults and additionally implement
// exactly one of Function, Consumer, Producer or Active.
type Component interface {
	// Name identifies the component for diagnostics and event routing.
	Name() string
	// Style reports the activity style (which of the four interfaces the
	// component implements).
	Style() Style
	// InputSpec declares the flow properties the component requires at its
	// in-port.  The zero Typespec accepts anything.
	InputSpec() typespec.Typespec
	// TransformSpec maps the Typespec at the in-port to the one at the
	// out-port (§2.3: components transform Typespecs rather than carrying
	// a fixed one).
	TransformSpec(in typespec.Typespec) typespec.Typespec
	// HandleEvent reacts to a control event.  It runs on the thread that
	// operates the component, at control priority, possibly while the
	// component is blocked in a push or pull — the component must keep its
	// state consistent with respect to control handlers at those points
	// (§3.2).  Handlers must be brief (§2.2).
	HandleEvent(ctx *Ctx, ev events.Event)
	// Wrappable reports whether the middleware may generate coroutine glue
	// for this component (§3.3).  Almost always true; returning false
	// restricts the component to positions matching its natural mode and
	// exists mainly to reproduce the paper's comparison with glue-less
	// middleware.
	Wrappable() bool
}

// Function is the conversion-function style: exactly one outgoing item per
// incoming item (§3.3).  The middleware generates both push- and pull-mode
// glue: push(x) = next.push(fct(x)); pull() = fct(prev.pull()).
type Function interface {
	Component
	Convert(ctx *Ctx, it *item.Item) (*item.Item, error)
}

// Consumer is the passive push style (Fig 4a): the component is handed each
// item and calls ctx.PushDownstream zero or more times.  State between
// invocations is kept by the component itself.
type Consumer interface {
	Component
	Push(ctx *Ctx, it *item.Item) error
}

// Producer is the passive pull style (Fig 4b): each call produces the next
// outgoing item, calling ctx.PullUpstream as often as needed.
type Producer interface {
	Component
	Pull(ctx *Ctx) (*item.Item, error)
}

// Active is the active-object style (Fig 6): Run is the component's main
// function, freely mixing ctx.PullUpstream and ctx.PushDownstream in a loop.
// Run must return promptly once a data operation fails with ErrStopped or
// ErrEOS (or ctx.Stopping reports true).
type Active interface {
	Component
	Run(ctx *Ctx) error
}

// Base supplies defaults for the Component interface: identity Typespec
// transformation, no input requirements, no event handling, wrappable.
// Embed it and override what the component needs.
type Base struct {
	CompName string
}

// Name implements Component.
func (b Base) Name() string { return b.CompName }

// InputSpec implements Component (no requirements).
func (Base) InputSpec() typespec.Typespec { return typespec.Typespec{} }

// TransformSpec implements Component (identity).
func (Base) TransformSpec(in typespec.Typespec) typespec.Typespec { return in }

// HandleEvent implements Component (ignore).
func (Base) HandleEvent(*Ctx, events.Event) {}

// Wrappable implements Component (glue allowed).
func (Base) Wrappable() bool { return true }

// Ctx is the component's view of the middleware at run time.  A Ctx is
// bound to one component placement and one thread; components receive it in
// every SPI call and must not retain it across pipeline restarts.
type Ctx struct {
	sect   *section
	comp   Component
	thread *uthread.Thread

	// pull and push are the bound chain closures the planner produced for
	// this placement: direct function calls where possible, coroutine
	// handoffs where necessary (§3.3).  Either may be nil at the pipeline
	// ends.
	pull func(*Ctx) (*item.Item, error)
	push func(*Ctx, *item.Item) error
}

// PullUpstream requests the next item from upstream (prev->pull()).
func (c *Ctx) PullUpstream() (*item.Item, error) {
	if c.pull == nil {
		return nil, ErrNoUpstream
	}
	return c.pull(c)
}

// PushDownstream hands an item to the downstream stage (next->push()).
func (c *Ctx) PushDownstream(it *item.Item) error {
	if c.push == nil {
		return ErrNoDownstream
	}
	return c.push(c, it)
}

// Now reports the current time on the pipeline's scheduler clock.
func (c *Ctx) Now() time.Time { return c.thread.Scheduler().Now() }

// Stopping reports whether the pipeline section is shutting down.  Active
// components should consult it in their main loops.
func (c *Ctx) Stopping() bool { return c.sect.stopping.Load() }

// Detaching reports whether the section is being torn down for migration
// (Pipeline.Detach) rather than stopped.  Blocking queue stages (buffers,
// shard links) consult it when a blocked push is interrupted: during a
// detach the item in hand must force-complete into the destination queue —
// over capacity if need be — because the queue outlives the threads and the
// stream resumes after recomposition; dropping it would lose the item.
func (c *Ctx) Detaching() bool { return c.sect.migrating.Load() }

// EndBatch tells the pump driving this call that its next step would block
// or find nothing to do — a buffer stage just filled or emptied — so its
// grant ends with this cycle instead of running the rest of its batch, and
// the peer on the buffer's other side runs before anyone has to block.
// Framework stages call it; ordinary components never need it.
//
//ipvet:hotpath a buffer's Insert or Remove, once per batch
func (c *Ctx) EndBatch() { c.sect.endBatch = true }

// Thread exposes the underlying user-level thread, for framework-level
// components (buffers, netpipes) that integrate with the message layer.
// Ordinary components never need it.
func (c *Ctx) Thread() *uthread.Thread { return c.thread }

// Scheduler exposes the pipeline's scheduler.
func (c *Ctx) Scheduler() *uthread.Scheduler { return c.sect.pipeline.sched }

// Broadcast publishes a control event to the whole pipeline (and anything
// else on its bus), like the paper's send_event.
func (c *Ctx) Broadcast(ev events.Event) {
	ev.Time = c.Now()
	if ev.Origin == "" && c.comp != nil {
		ev.Origin = c.comp.Name()
	}
	c.sect.pipeline.bus.Broadcast(ev)
}

// EmitUpstream sends a local control event to the adjacent upstream stage
// (§2.2, e.g. a display telling a resizer about a new window size).
func (c *Ctx) EmitUpstream(ev events.Event) { c.emitLocal(ev, -1) }

// EmitDownstream sends a local control event to the adjacent downstream
// stage (§2.2, e.g. a decoder coordinating shared reference frames).
func (c *Ctx) EmitDownstream(ev events.Event) { c.emitLocal(ev, +1) }

func (c *Ctx) emitLocal(ev events.Event, dir int) {
	ev.Time = c.Now()
	if ev.Origin == "" && c.comp != nil {
		ev.Origin = c.comp.Name()
	}
	c.sect.pipeline.emitAdjacent(c.comp, dir, ev)
}

// Pipeline returns the owning pipeline (diagnostics).
func (c *Ctx) Pipeline() *Pipeline { return c.sect.pipeline }
