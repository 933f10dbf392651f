package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"infopipes/internal/events"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// Pipeline is a composed Infopipe: an ordered set of stages, the activity
// plan derived from them, and the running sections.  Build with Compose,
// drive with Start/Stop/Pause/Resume, observe with Done and Err.
type Pipeline struct {
	name   string
	sched  *uthread.Scheduler
	bus    *events.Bus
	stages []Stage
	plan   Plan
	class  *uthread.SchedClass // weighted-fair class for all threads; nil = default

	sections   []*section
	placements map[string]*placementRT
	stageIdx   map[string]int
	subs       []events.Subscription

	mu          sync.Mutex
	err         error
	liveThreads int
	released    bool
	done        chan struct{}
	eosOnce     sync.Once
	eosSeen     atomic.Bool
	detached    atomic.Bool

	stats pipeCounters
}

// pipeCounters are the alloc-free hot-path telemetry of one pipeline: the
// pump loops bump them with plain atomic adds (no locks, no allocations),
// and observers snapshot them through Stats.  BusyNanos is approximate: one
// cycle in busySampleMask+1 is timed and the measured duration is attributed
// to the whole stride, so the wall-clock reads amortise to a fraction of a
// nanosecond per item.
type pipeCounters struct {
	items  atomic.Int64
	cycles atomic.Int64
	busyNs atomic.Int64
	hops   atomic.Int64
}

// busySampleMask selects which pump cycles are timed for the approximate
// busy-time counter (cycle&mask == busySamplePhase): every 16th.  The phase
// keeps the sample off the first cycle of a full batch (batchCycles is 16
// too), the cache-cold one after a switch.
const (
	busySampleMask  = 15
	busySamplePhase = busySampleMask / 2
)

// PipeStats is a snapshot of one pipeline's activity counters.
type PipeStats struct {
	// Items counts items the pipeline's pumps moved end to end (one count
	// per completed pull+push cycle that carried an item).
	Items int64
	// Cycles counts pump cycles, including empty non-blocking pulls.
	Cycles int64
	// BusyNanos approximates wall-clock time spent inside pump cycles
	// (pull + push, including blocking), sampled one cycle in 16.
	BusyNanos int64
	// Hops counts coroutine resumes: each is one switch into a coroutine
	// of a section's set and one back, inside the section's thread.
	Hops int64
}

// Class returns the weighted-fair scheduling class the pipeline's threads
// were spawned into (nil = default class).
func (p *Pipeline) Class() *uthread.SchedClass { return p.class }

// Stats returns a snapshot of the pipeline's activity counters.
func (p *Pipeline) Stats() PipeStats {
	return PipeStats{
		Items:     p.stats.items.Load(),
		Cycles:    p.stats.cycles.Load(),
		BusyNanos: p.stats.busyNs.Load(),
		Hops:      p.stats.hops.Load(),
	}
}

// Compose plans and instantiates a pipeline on the given scheduler.  The
// stage order corresponds to the paper's composition operator:
//
//	source >> decode >> pump >> sink
//
// becomes
//
//	Compose("player", sched, bus, []Stage{Comp(source), Comp(decode), Pmp(pump), Comp(sink)})
//
// If the components are not compatible, Compose returns an error (the C++
// interface throws).  bus may be nil for a pipeline-private event service.
// The pipeline's threads — one per section — are created immediately but
// stay idle until a start event is broadcast (p.Start or an application
// send_event).
func Compose(name string, sched *uthread.Scheduler, bus *events.Bus, stages []Stage, opts ...ComposeOption) (*Pipeline, error) {
	var cfg composeCfg
	for _, opt := range opts {
		opt(&cfg)
	}
	plan, err := planPipeline(stages, cfg)
	if err != nil {
		return nil, fmt.Errorf("compose %q: %w", name, err)
	}
	specs, err := propagateSpecs(stages, cfg.inputSpec)
	if err != nil {
		return nil, fmt.Errorf("compose %q: %w", name, err)
	}
	plan.Specs = specs

	if bus == nil {
		bus = &events.Bus{}
	}
	p := &Pipeline{
		name:       name,
		sched:      sched,
		bus:        bus,
		stages:     stages,
		plan:       plan,
		class:      cfg.schedClass,
		placements: make(map[string]*placementRT),
		stageIdx:   make(map[string]int, len(stages)),
		done:       make(chan struct{}), //ipvet:allow rawgo pipeline lifecycle signal (Done); carries no stage data
	}
	for i, st := range stages {
		p.stageIdx[st.Name()] = i
	}

	// Locate the boundary buffers of each section and build the runtime.
	for _, sp := range plan.Sections {
		var upBuf, downBuf Buffer
		if sp.UpBoundary != "" {
			upBuf, _ = stages[p.stageIdx[sp.UpBoundary]].IsBuffer()
		}
		if sp.DownBoundary != "" {
			downBuf, _ = stages[p.stageIdx[sp.DownBoundary]].IsBuffer()
		}
		sect := buildSection(p, sp, upBuf, downBuf)
		p.sections = append(p.sections, sect)
		p.subs = append(p.subs, bus.Subscribe(sched, sect.thread))
	}
	p.liveThreads = len(p.sections)
	// Control events may arrive from outside the thread system at any
	// time (application goroutines, remote nodes), so an idle scheduler
	// must wait rather than declare deadlock while this pipeline lives.
	sched.AddExternalSource()
	return p, nil
}

// propagateSpecs walks the stage list, checking compatibility and applying
// each component's Typespec transformation (§2.3: dynamic type checking at
// composition).  Specs[i] is the flow leaving stage i.  seed describes the
// flow entering the first stage (zero for self-contained pipelines).
func propagateSpecs(stages []Stage, seed typespec.Typespec) ([]typespec.Typespec, error) {
	specs := make([]typespec.Typespec, len(stages))
	cur := seed
	for i, st := range stages {
		switch st.kind {
		case kindComponent:
			comp := st.comp
			if i > 0 {
				if err := cur.CompatibleWith(comp.InputSpec()); err != nil {
					return nil, fmt.Errorf("connecting %q to %q: %w",
						stages[i-1].Name(), comp.Name(), err)
				}
			}
			merged, err := cur.Merge(comp.InputSpec())
			if err != nil {
				return nil, fmt.Errorf("connecting %q to %q: %w",
					stages[maxInt(i-1, 0)].Name(), comp.Name(), err)
			}
			cur = comp.TransformSpec(merged)
		case kindBuffer:
			pushPol, pullPol := st.buf.Spec()
			next := cur.Clone()
			next.PushPolicy = pushPol
			next.PullPolicy = pullPol
			cur = next
		case kindPump:
			// Pumps move items without changing the flow's type.
		}
		specs[i] = cur
	}
	return specs, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Name returns the pipeline name.
func (p *Pipeline) Name() string { return p.name }

// Plan returns the activity analysis (threads, coroutines, modes) — the
// data behind the paper's Figure 9.
func (p *Pipeline) Plan() Plan { return p.plan }

// Bus returns the pipeline's event service.
func (p *Pipeline) Bus() *events.Bus { return p.bus }

// Scheduler returns the scheduler the pipeline runs on.
func (p *Pipeline) Scheduler() *uthread.Scheduler { return p.sched }

// SpecAt returns the resolved Typespec of the flow leaving stage i.
func (p *Pipeline) SpecAt(i int) typespec.Typespec {
	if i < 0 || i >= len(p.plan.Specs) {
		return typespec.Typespec{}
	}
	return p.plan.Specs[i]
}

// EventCapabilities reports the local control events the pipeline's
// components emit and handle (§2.3).  The remote node serves these so a
// cluster deployer can run the graph-wide capability check across segments
// composed on different hosts.
func (p *Pipeline) EventCapabilities() (sends, handles []events.Type) {
	return EventCapabilitySets(p.stages)
}

// Start broadcasts the start event on the pipeline's bus: the pumps of every
// pipeline on that bus begin moving data (the paper's send_event(START)).
func (p *Pipeline) Start() { p.broadcast(events.Start) }

// Stop broadcasts the stop event on the pipeline's bus, shutting down every
// section of every pipeline on it.
func (p *Pipeline) Stop() { p.broadcast(events.Stop) }

// Pause broadcasts the pause event; pumps suspend at the next cycle.
func (p *Pipeline) Pause() { p.broadcast(events.Pause) }

// Resume broadcasts the resume event.
func (p *Pipeline) Resume() { p.broadcast(events.Resume) }

func (p *Pipeline) broadcast(t events.Type) {
	p.bus.Broadcast(events.Event{Type: t, Time: p.sched.Now(), Origin: p.name})
}

// Done is closed when every thread of the pipeline has terminated (after a
// stop event or complete end-of-stream propagation).
func (p *Pipeline) Done() <-chan struct{} { return p.done }

// Err reports the first component or pump failure, or nil.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// fail records the first error and stops the pipeline.
func (p *Pipeline) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.Stop()
}

// threadExited is called by each section thread as it terminates.
func (p *Pipeline) threadExited() {
	p.mu.Lock()
	p.liveThreads--
	finished := p.liveThreads == 0 && !p.released
	if finished {
		p.released = true
	}
	p.mu.Unlock()
	if finished {
		for _, id := range p.subs {
			p.bus.Unsubscribe(id)
		}
		p.sched.ReleaseExternalSource()
		close(p.done)
	}
}

// sinkReachedEOS fires when end-of-stream reaches the pipeline's sink end.
func (p *Pipeline) sinkReachedEOS() {
	p.eosOnce.Do(func() {
		p.eosSeen.Store(true)
		p.bus.Broadcast(events.Event{Type: events.EOS, Time: p.sched.Now(), Origin: p.name})
	})
}

// ReachedEOS reports whether end-of-stream fully propagated to the
// pipeline's sink end.  A pipeline for which this holds has nothing left to
// do — its upstream state (closed buffers, closed links) is final — so a
// rebalance skips it rather than recomposing it.
func (p *Pipeline) ReachedEOS() bool { return p.eosSeen.Load() }

// Detach tears the pipeline's threads down for migration: every section
// enters detaching mode (blocked pushes force-complete into their
// destination queues instead of failing, so no in-flight item is lost and
// nothing is mistaken for end-of-stream) and then shuts down exactly like a
// stop — without broadcasting any event, so the rest of the deployment is
// undisturbed.  After Done closes, the same stage instances can be composed
// again on another scheduler; buffers, tees and links carry the stream
// state across.
func (p *Pipeline) Detach() {
	p.detached.Store(true)
	for _, sect := range p.sections {
		sect.detach()
	}
}

// Detached reports whether Detach was called (diagnostics; a detached
// pipeline's Done closing does not mean its stream ended).
func (p *Pipeline) Detached() bool { return p.detached.Load() }

// emitAdjacent routes a local control event from comp to the nearest stage
// in direction dir (§2.2 local control interaction).  Component targets are
// delivered through their operating thread at control priority; buffers and
// pumps handle the event inline.
func (p *Pipeline) emitAdjacent(from Component, dir int, ev events.Event) {
	idx, ok := p.stageIdx[from.Name()]
	if !ok {
		return
	}
	i := idx + dir
	if i < 0 || i >= len(p.stages) {
		return
	}
	st := p.stages[i]
	switch st.kind {
	case kindComponent:
		ev.Target = st.comp.Name()
		if rt, ok := p.placements[st.comp.Name()]; ok {
			p.sched.Post(rt.ctx.thread, events.NewMessage(ev))
		}
	case kindBuffer:
		st.buf.HandleEvent(ev)
	case kindPump:
		st.pump.HandleEvent(ev)
	}
}

// Placement reports where a component ended up (mode, direct/coroutine),
// for tests and diagnostics.
func (p *Pipeline) Placement(name string) (Placement, bool) {
	rt, ok := p.placements[name]
	if !ok {
		return Placement{}, false
	}
	return rt.pl, true
}
