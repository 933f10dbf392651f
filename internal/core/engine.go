package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"infopipes/internal/events"
	"infopipes/internal/item"
	"infopipes/internal/uthread"
)

// evNudge is the internal control event used to wake blocked threads so
// they re-check shutdown flags.  It is never delivered to components.
const evNudge events.Type = "infopipe-internal-nudge"

// EOSSink is an optional extension for sink components that need to react
// when end-of-stream reaches them (tees closing their internal buffers,
// files flushing).  HandleEOS runs on the section's pump thread just before
// the pipeline announces EOS.
type EOSSink interface {
	HandleEOS(ctx *Ctx)
}

// BatchEnder is an optional extension for components that hold work back for
// a batch (a TCP sink staging frames for one socket write).  BatchEnd runs on
// the section's pump thread whenever that thread gives up the CPU: at the end
// of a batch, before the thread parks in any wait, and when the section's run
// ends — and after every cycle of a pump that keeps time, so a paced item is
// never held back.
type BatchEnder interface {
	BatchEnd()
}

// placementRT is the runtime realisation of a Placement.
type placementRT struct {
	comp Component
	pl   Placement
	ctx  *Ctx
	// eosDown propagates end-of-stream toward the sink from this
	// placement's position.
	eosDown func(*Ctx)
}

// section is the runtime of one pump-driven span, run by one user-level
// thread: the pump's.  The paper's package had no coroutines, so §4 made
// each coroutine of the set "an additional thread of the underlying thread
// package"; iter.Pull is that primitive, so the coroutines the planner
// allocated (Fig 9) are coros nested in this thread.
type section struct {
	pipeline *Pipeline
	pump     Pump
	upBuf    Buffer

	thread *uthread.Thread
	coros  []*coro        // the coroutine set less the pump, in build order
	owned  []*placementRT // every component of the section, in stage order
	enders []BatchEnder   // the owned components that implement BatchEnder

	stopping  atomic.Bool
	migrating atomic.Bool
	paused    atomic.Bool
	started   atomic.Bool

	pumpPull func(*Ctx) (*item.Item, error)
	pumpPush func(*Ctx, *item.Item) error
	eosDown  func(*Ctx)
	pumpCtx  *Ctx

	// endBatch is raised inside a cycle (Ctx.EndBatch) when the pump's next
	// step would block; the loop ends its batch there.  Only the section's
	// thread touches it.
	endBatch bool
}

// batchCycles is the most cycles a pump runs in one grant before it offers
// the CPU to its equal-priority peers.  A batch ends earlier where the next
// step would block: a buffer just filled or emptied (Ctx.EndBatch), or the
// pull returned the nil item.
const batchCycles = 16

// buildSection spawns the section's thread and builds its call chains:
// direct calls where the planner allows them, a coroutine where it does
// not, each coroutine driven by the chain nearer the pump.
func buildSection(p *Pipeline, sp SectionPlan, upBuf, downBuf Buffer) *section {
	s := &section{pipeline: p, upBuf: upBuf}
	s.pump, _ = p.stages[sp.PumpStageIndex].IsPump()
	s.thread = p.sched.SpawnClassed(p.name+"/"+s.pump.Name(), s.pump.Priority(), p.class, s.pumpCode())
	place := func(pl Placement) *placementRT {
		comp, _ := p.stages[pl.StageIndex].IsComponent()
		rt := &placementRT{comp: comp, pl: pl}
		rt.ctx = &Ctx{sect: s, comp: comp, thread: s.thread}
		p.placements[comp.Name()] = rt
		return rt
	}

	// ---- Upstream (pull-mode) side: boundary -> pump ----
	var pull func(*Ctx) (*item.Item, error)
	if upBuf != nil {
		buf := upBuf
		pull = func(ctx *Ctx) (*item.Item, error) { return buf.Remove(ctx) }
	}
	for _, pl := range sp.Upstream {
		rt := place(pl)
		rt.ctx.pull = pull
		if pl.Direct {
			pull = directPull(rt)
			continue
		}
		// Coroutine: it runs everything upstream of itself (the chain
		// built so far) and hands items toward the pump.
		c := s.newCoro(rt)
		rt.ctx.push = c.put
		rt.eosDown = func(ctx *Ctx) { _ = c.put(ctx, eosToken) }
		pull = c.get
	}
	s.pumpPull = pull

	// ---- Downstream (push-mode) side: built boundary -> pump ----
	var push func(*Ctx, *item.Item) error
	var eos func(*Ctx)
	if downBuf != nil {
		buf := downBuf
		push = func(ctx *Ctx, it *item.Item) error { return buf.Insert(ctx, it) }
		eos = func(*Ctx) { buf.CloseUpstream() }
	} else {
		eos = func(ctx *Ctx) {
			// End of stream reached the pipeline's sink end: give the
			// sink component a chance to react, then announce.
			if n := len(sp.Downstream); n > 0 {
				name := sp.Downstream[n-1].Component
				if rt, ok := p.placements[name]; ok {
					if es, ok := rt.comp.(EOSSink); ok {
						es.HandleEOS(rt.ctx)
					}
				}
			}
			s.pipeline.sinkReachedEOS()
		}
	}
	for i := len(sp.Downstream) - 1; i >= 0; i-- {
		rt := place(sp.Downstream[i])
		rt.ctx.push, rt.eosDown = push, eos
		if rt.pl.Direct {
			push = directPush(rt)
			continue
		}
		// Coroutine: it receives items from the pump's side and runs
		// everything downstream of itself.
		c := s.newCoro(rt)
		rt.ctx.pull = c.take
		push = c.give
		eos = func(ctx *Ctx) { _ = c.give(ctx, eosToken) }
	}
	s.pumpPush = push
	s.eosDown = eos
	s.pumpCtx = &Ctx{sect: s, thread: s.thread, pull: s.pumpPull, push: s.pumpPush}

	for _, pls := range [][]Placement{sp.Upstream, sp.Downstream} {
		for _, pl := range pls {
			rt := p.placements[pl.Component]
			s.owned = append(s.owned, rt)
			if be, ok := rt.comp.(BatchEnder); ok {
				s.enders = append(s.enders, be)
			}
		}
	}
	return s
}

// directPull wraps a direct (same-thread) pull-mode placement: producers
// and conversion functions are called as plain functions (§3.3 "in pull
// mode producers and functions are called directly").
func directPull(rt *placementRT) func(*Ctx) (*item.Item, error) {
	switch c := rt.comp.(type) {
	case Producer:
		return func(*Ctx) (*item.Item, error) { return c.Pull(rt.ctx) }
	case Function:
		return func(*Ctx) (*item.Item, error) {
			for {
				in, err := rt.ctx.PullUpstream()
				if err != nil {
					return nil, err
				}
				if in == nil {
					return nil, nil // nil item passes through (§2.3)
				}
				out, err := c.Convert(rt.ctx, in)
				if err != nil {
					return nil, err
				}
				if out != nil {
					return out, nil
				}
				// Item filtered out: pull again for the next survivor.
			}
		}
	default:
		return func(*Ctx) (*item.Item, error) {
			return nil, fmt.Errorf("infopipe: %s-style %q cannot run direct in pull mode", rt.comp.Style(), rt.comp.Name())
		}
	}
}

// directPush wraps a direct push-mode placement: consumers and conversion
// functions are called as plain functions (§3.3 "in push mode, consumers
// and functions are called directly").
func directPush(rt *placementRT) func(*Ctx, *item.Item) error {
	switch c := rt.comp.(type) {
	case Consumer:
		return func(_ *Ctx, it *item.Item) error { return c.Push(rt.ctx, it) }
	case Function:
		return func(_ *Ctx, it *item.Item) error {
			out, err := c.Convert(rt.ctx, it)
			if err != nil {
				return err
			}
			if out == nil {
				return nil // item filtered out
			}
			return rt.ctx.PushDownstream(out)
		}
	default:
		return func(*Ctx, *item.Item) error {
			return fmt.Errorf("infopipe: %s-style %q cannot run direct in push mode", rt.comp.Style(), rt.comp.Name())
		}
	}
}

// runGlue executes the component's main loop: the component's own Run for
// active objects, or the generated wrapper of Fig 7 for passive components
// used against their natural mode.
func (s *section) runGlue(rt *placementRT) {
	ctx := rt.ctx
	var err error
	switch c := rt.comp.(type) {
	case Active:
		err = c.Run(ctx)
		if err == nil && !s.stopping.Load() {
			err = ErrEOS // an active component finishing ends its stream
		}
	case Consumer:
		// Fig 7b: push-style component driven in pull position.
		for !s.stopping.Load() {
			var it *item.Item
			it, err = ctx.PullUpstream()
			if err != nil {
				break
			}
			if it == nil {
				continue
			}
			if err = c.Push(ctx, it); err != nil {
				break
			}
		}
	case Producer:
		// Fig 7a: pull-style component driven in push position.
		for !s.stopping.Load() {
			var it *item.Item
			it, err = c.Pull(ctx)
			if err != nil {
				break
			}
			if it == nil {
				continue
			}
			if err = ctx.PushDownstream(it); err != nil {
				break
			}
		}
	case Function:
		// Only under ForceCoroutines: drive the conversion in a loop.
		for !s.stopping.Load() {
			var in, out *item.Item
			in, err = ctx.PullUpstream()
			if err != nil {
				break
			}
			if in == nil {
				continue
			}
			out, err = c.Convert(ctx, in)
			if err != nil {
				break
			}
			if out == nil {
				continue
			}
			if err = ctx.PushDownstream(out); err != nil {
				break
			}
		}
	default:
		err = fmt.Errorf("infopipe: component %q implements no activity interface", rt.comp.Name())
	}
	switch {
	case errors.Is(err, ErrEOS):
		if rt.eosDown != nil {
			rt.eosDown(ctx)
		}
	case errors.Is(err, ErrStopped), err == nil:
		// Normal shutdown.
	default:
		s.pipeline.fail(fmt.Errorf("component %q: %w", rt.comp.Name(), err))
	}
}

// pumpCode is the code function of the section's thread.
func (s *section) pumpCode() uthread.CodeFunc {
	installed := false
	return func(t *uthread.Thread, m uthread.Message) uthread.Disposition {
		if !installed {
			s.installDispatch(t)
			installed = true
		}
		if events.IsControl(m) {
			s.handleControlMsg(t, m)
			if s.stopping.Load() {
				s.pipeline.threadExited()
				return uthread.Terminate
			}
			return uthread.Continue
		}
		if m.Kind == MsgPumpRun {
			s.run(t)
			s.pipeline.threadExited()
			return uthread.Terminate
		}
		return uthread.Continue
	}
}

// run is the section's life once started: the pump loop, then the controls
// still queued, then the coroutines still suspended.
//
// On EOS the marker cascade has already ended every coroutine it passed.  A
// failure inside the last cycle broadcasts a stop that lands in our own
// queue after pumpLoop has returned; draining the controls lets every
// component of the section still see it (a netpipe sink must forward EOS on
// stop), and raises the stopping flag before the coroutines are unwound.
func (s *section) run(t *uthread.Thread) {
	defer s.stopCoros()
	s.pumpLoop(t)
	s.drainControls(t)
	s.batchEnd()
}

// batchEnd tells the section's batch enders that its thread gives up the
// CPU.
func (s *section) batchEnd() {
	for _, be := range s.enders {
		be.BatchEnd()
	}
}

// pumpLoop is the section's engine (§3.1/§4): the pump's thread calls the
// pull functions of all components upstream, then push with the returned
// item downstream, then schedules the next cycle.
//
// Communication points are the preemption points of the paper's cooperative
// threads (§3.2).  A free-running pump over an all-direct section performs
// no message operations at all, so an explicit checkpoint per cycle keeps
// control events flowing and yields to a strictly higher-priority thread.
// Equal-priority pumps take turns per batch, not per cycle: the grant runs
// up to batchCycles cycles and ends earlier where the next step would block
// (a buffer just filled or emptied, the nil item), so two pumps joined by a
// buffer trade the CPU once per batch.  A pump that sleeps to its next
// deadline has given the CPU up already and starts a new batch.  Every batch
// end, and every park in between (installDispatch), is a BatchEnd; so is
// every cycle of a pump that keeps time, which must not hold back an item it
// moved late (catching up on its clock, it does not sleep between cycles).
//
//ipvet:hotpath every item of every flow crosses this loop
func (s *section) pumpLoop(t *uthread.Thread) {
	ctx := s.pumpCtx
	//ipvet:allow hotalloc one-time setup before the loop, not per-item
	stopped := func() bool { return s.stopping.Load() }
	var cycle int64
	batch := 0 // cycles since the pump last offered the CPU to its equals
	paced := s.pump.Class() != FreeRunning
	for {
		for {
			m, ok := t.TryReceive(events.IsControl)
			if !ok {
				break
			}
			s.handleControlMsg(t, m)
		}
		n := 0
		if batch >= batchCycles || s.endBatch {
			n, batch, s.endBatch = batch, 0, false
		}
		if n > 0 || paced {
			s.batchEnd()
		}
		t.YieldAfter(n)
		if s.stopping.Load() {
			return
		}
		if s.paused.Load() {
			m := t.ReceiveMatch(events.IsControl)
			s.handleControlMsg(t, m)
			continue
		}
		now := s.pipeline.sched.Now()
		next := s.pump.Next(now, cycle)
		if next.After(now) {
			if !t.SleepUntilOr(next, stopped) {
				return
			}
			batch = 0
			if s.paused.Load() {
				continue
			}
		}
		// Telemetry: one cycle in busySampleMask+1 is wall-clock timed and
		// the duration attributed to the whole stride (approximate busy
		// time); items/cycles are plain atomic adds.  Nothing here
		// allocates — see TestPumpCountersAllocFree.
		sampled := cycle&busySampleMask == busySamplePhase
		var t0 time.Time
		if sampled {
			//ipvet:allow wallclock busy-time telemetry sample (1 cycle in 16); stats-only, never trace-visible
			t0 = time.Now()
		}
		it, err := s.pumpPull(ctx)
		if err != nil {
			s.pumpFinish(ctx, err)
			return
		}
		cycle++
		batch++
		s.pipeline.stats.cycles.Add(1)
		if it == nil {
			s.endBatch = true
			continue // nil item: empty non-blocking pull (§2.3)
		}
		if err := s.pumpPush(ctx, it); err != nil {
			s.pumpFinish(ctx, err)
			return
		}
		s.pipeline.stats.items.Add(1)
		if sampled {
			//ipvet:allow wallclock closes the busy-time telemetry sample; stats-only, never trace-visible
			s.pipeline.stats.busyNs.Add(int64(time.Since(t0)) * (busySampleMask + 1))
		}
	}
}

// pumpFinish reacts to a failed pump cycle: EOS propagates downstream,
// stop is silent, anything else fails the pipeline.
func (s *section) pumpFinish(ctx *Ctx, err error) {
	switch {
	case errors.Is(err, ErrEOS):
		s.eosDown(ctx)
	case errors.Is(err, ErrStopped):
	default:
		s.pipeline.fail(fmt.Errorf("pump %q: %w", s.pump.Name(), err))
	}
}

// drainControls processes any control messages still queued on t, so that
// a terminating thread never discards a stop/EOS notification meant for
// the components it operates.
func (s *section) drainControls(t *uthread.Thread) {
	for {
		m, ok := t.TryReceive(events.IsControl)
		if !ok {
			return
		}
		s.handleControlMsg(t, m)
	}
}

// installDispatch hooks control-event delivery into blocked operations
// (§3.2: control events can be delivered while threads are blocked in a
// push or pull), and the batch end into every park: a thread that waits on
// an empty link, a full journal or its clock gives up the CPU there.
func (s *section) installDispatch(t *uthread.Thread) {
	t.SetControlDispatch(events.IsControl, func(t *uthread.Thread, m uthread.Message) {
		s.handleControlMsg(t, m)
	})
	if len(s.enders) > 0 {
		t.SetParkHook(s.batchEnd)
	}
}

// handleControlMsg unwraps and processes one control message on thread t.
func (s *section) handleControlMsg(t *uthread.Thread, m uthread.Message) {
	ev, ok := events.FromMessage(m)
	if !ok {
		return
	}
	s.handleEvent(t, ev)
}

// handleEvent applies framework semantics, then dispatches to the pump,
// the owned buffer and every component of the section, whichever coroutine
// the thread is parked in (§4: "each thread needs to internally dispatch
// data and events to the respective components").
func (s *section) handleEvent(t *uthread.Thread, ev events.Event) {
	if ev.Target == "" {
		switch ev.Type {
		case events.Start:
			if !s.started.Swap(true) {
				t.Send(t, uthread.Message{
					Kind:       MsgPumpRun,
					Constraint: uthread.At(s.pump.Priority()),
				})
			}
		case events.Stop:
			s.beginShutdown()
		case events.Pause:
			s.paused.Store(true)
		case events.Resume:
			s.paused.Store(false)
		case evNudge:
			return // pure wake-up, not delivered to components
		}
	}
	if ev.Target == "" || ev.Target == s.pump.Name() {
		s.pump.HandleEvent(ev)
	}
	// The section pulling from a buffer owns it for event dispatch, so
	// shared buffers see each broadcast exactly once.
	if s.upBuf != nil && (ev.Target == "" || ev.Target == s.upBuf.Name()) {
		s.upBuf.HandleEvent(ev)
	}
	for _, rt := range s.owned {
		if ev.Target == "" || ev.Target == rt.comp.Name() {
			rt.comp.HandleEvent(rt.ctx, ev)
		}
	}
}

// detach initiates migration teardown: like a stop, but with the migrating
// flag raised first so blocked pushes force-complete into their destination
// queues (Ctx.Detaching) instead of abandoning the item in hand.
func (s *section) detach() {
	s.migrating.Store(true)
	s.beginShutdown()
}

// beginShutdown initiates section teardown: set the flag, which every
// coroutine hop reads, and nudge the thread so a blocked operation re-checks
// it.  Detach calls it from outside the scheduler, so it touches no
// coroutine.  Idempotent.
func (s *section) beginShutdown() {
	if s.stopping.Swap(true) {
		return
	}
	s.pipeline.sched.Post(s.thread, events.NewMessage(events.Event{Type: evNudge}))
}
