package graph

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/shard"
)

// Deployment is the handle on one deployed graph: the pipelines composed
// for its segments (including auto-inserted relay pipelines), the links
// joining them, and a joined lifecycle — Start and Stop broadcast once on
// the shared bus, Done closes when every pipeline has finished, Err reports
// the first failure anywhere in the graph.
//
// Group deployments stay operable while they run: Stats reports per-segment
// and per-link load, and Rebalance moves segments between shards mid-stream
// without recomposing the graph by hand (see rebalance.go).
type Deployment struct {
	name string
	bus  *events.Bus

	remote *remoteDeployment // non-nil for OnNodes deployments
	ld     *localDeploy      // non-nil for local targets; wiring state for Stats/Rebalance

	// rbMu serializes reconfigurations — local transactions, remote moves,
	// node-set changes — against each other (a second one waits for the
	// first to finish, then runs on the state it left).
	rbMu sync.Mutex

	mu          sync.Mutex
	pipelines   []*core.Pipeline
	links       []*shard.Link
	gen         int  // bumped by every transaction; stale watchers exit
	started     bool // Start was requested (re-broadcast after a transaction)
	stopReq     bool // Stop was requested (applied after a transaction)
	rebalancing bool
	finished    bool
	deployErr   error
	unpin       func() // releases the group's shard pins exactly once
	now         func() time.Time
	done        chan struct{}
}

func newDeployment(name string, bus *events.Bus) *Deployment {
	return &Deployment{
		name: name,
		bus:  bus,
		//ipvet:allow wallclock controller-side Start/Stop event stamp for OnNodes; local targets override with the scheduler's virtual clock (local.go)
		now:  time.Now,
		done: make(chan struct{}),
	}
}

// seal finishes construction (and every rebalance): it starts a watcher for
// the current pipeline generation that finishes the deployment once every
// pipeline has terminated — unless a rebalance superseded the generation in
// the meantime (detached pipelines terminate too, but the deployment lives
// on in its recomposed successors).
func (d *Deployment) seal() {
	d.mu.Lock()
	gen, ps := d.gen, slices.Clone(d.pipelines)
	d.mu.Unlock()
	go func() {
		for _, p := range ps {
			<-p.Done()
		}
		d.maybeFinish(gen)
	}()
}

// maybeFinish completes the deployment if the watcher's generation is still
// current: release the shard pins (so an idle group can drain) and close
// Done.
func (d *Deployment) maybeFinish(gen int) {
	d.mu.Lock()
	if d.gen != gen || d.rebalancing || d.finished {
		d.mu.Unlock()
		return
	}
	d.finished = true
	unpin := d.unpin
	d.unpin = nil
	d.mu.Unlock()
	if unpin != nil {
		unpin()
	}
	close(d.done)
}

// Name returns the deployment name (the graph name).
func (d *Deployment) Name() string { return d.name }

// Bus returns the shared event bus of the deployment.
func (d *Deployment) Bus() *events.Bus { return d.bus }

// Pipelines lists every composed pipeline, relays included, in composition
// order.
func (d *Deployment) Pipelines() []*core.Pipeline {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.pipelines)
}

// Segment returns the pipeline composed for the named segment (the
// segment's diagnostic name, "first>>last").  Relay pipelines are not
// segments.  After a rebalance the handle refers to the recomposed
// pipeline.
func (d *Deployment) Segment(name string) (*core.Pipeline, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ld == nil || d.ld.segment(name) < 0 {
		return nil, false
	}
	p, ok := d.ld.pipes[d.name+"/"+name]
	return p, ok
}

// SegmentPlacements reports where each segment currently runs: segment name
// (as accepted by Rebalance and Replace) to shard index — or node index for
// remote deployments.  All zero on a single-scheduler target.
func (d *Deployment) SegmentPlacements() map[string]int {
	out := make(map[string]int)
	if d.remote != nil {
		d.remote.mu.Lock()
		defer d.remote.mu.Unlock()
		for i, seg := range d.remote.plan.Segments {
			out[seg.Name()] = d.remote.slotOf[i]
		}
		return out
	}
	if d.ld == nil {
		return out
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, seg := range d.ld.plan.Segments {
		out[seg.Name()] = d.ld.slotOf[i]
	}
	return out
}

// Links lists the auto-inserted shard links (local deployments).
func (d *Deployment) Links() []*shard.Link {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.links)
}

// broadcast publishes a control event on the deployment's bus, stamped with
// the deployment clock.
func (d *Deployment) broadcast(t events.Type) {
	d.bus.Broadcast(events.Event{Type: t, Time: d.now(), Origin: d.name})
}

// External runs fn as one action of an external actor on the deployment's
// group (shard.Group.External): the group's virtual clock stands still
// until fn returns, so whatever fn reads and posts happens at one instant.
// Everything in this package that posts into a running deployment from the
// caller's goroutine goes through here; so should a controller loop that
// reads Stats and then acts on them.  Targets without a group clock —
// one scheduler, remote nodes, a real-clock group — just run fn.
func (d *Deployment) External(fn func()) {
	if d.ld == nil || d.ld.group == nil {
		fn()
		return
	}
	d.ld.group.External(fn)
}

// Start broadcasts the start event once on the shared bus: every pump in
// every segment reacts, exactly like Pipeline.Start on a linear pipeline.
// During a rebalance the start is deferred until the recomposed pipelines
// are in place.
func (d *Deployment) Start() {
	if d.remote != nil {
		d.remote.start()
		return
	}
	d.mu.Lock()
	d.started = true
	rb := d.rebalancing
	d.mu.Unlock()
	if rb {
		return
	}
	d.External(func() { d.broadcast(events.Start) })
}

// Stop broadcasts the stop event to the whole deployment.  A Stop that
// races a Rebalance is applied as soon as the rebalance completes.
func (d *Deployment) Stop() {
	if d.remote != nil {
		d.remote.stop()
		return
	}
	d.mu.Lock()
	d.stopReq = true
	rb := d.rebalancing
	d.mu.Unlock()
	if rb {
		return
	}
	d.External(func() { d.broadcast(events.Stop) })
}

// Done is closed when every pipeline of the deployment has terminated.
// Remote deployments have no local pipelines; use Wait instead.
func (d *Deployment) Done() <-chan struct{} { return d.done }

// Err reports the first failure of any pipeline in the deployment.
func (d *Deployment) Err() error {
	if d.remote != nil {
		return d.remote.err()
	}
	d.mu.Lock()
	if err := d.deployErr; err != nil {
		d.mu.Unlock()
		return err
	}
	ps := slices.Clone(d.pipelines)
	d.mu.Unlock()
	for _, p := range ps {
		if err := p.Err(); err != nil {
			return fmt.Errorf("%s: %w", p.Name(), err)
		}
	}
	return nil
}

// Wait blocks until the deployment has finished and reports the first
// failure.  The caller still drives the scheduler(s): run the scheduler or
// group the graph was deployed on.
func (d *Deployment) Wait() error {
	if d.remote != nil {
		return d.remote.wait()
	}
	<-d.done
	return d.Err()
}
