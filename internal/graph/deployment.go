package graph

import (
	"slices"
	"sync"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
)

// Deployment is the handle on one deployed graph and its joined lifecycle.
// It is its own event scope on every target: Start and Stop reach its
// pipelines and no other deployment's, Done closes when all have finished,
// Err reports the first failure anywhere.
// It stays operable while it runs: Stats reports per-segment and per-link
// load, Rebalance moves segments, Edit changes the flow (reconfigure.go).
type Deployment struct {
	name string
	bus  *events.Bus
	// host is the shard host (*localDeploy) or the node host
	// (*remoteDeployment).
	host target
	// rbMu serializes reconfigurations and node-set changes.
	rbMu sync.Mutex

	mu sync.Mutex
	// The lifecycle latch: Start and Stop requested, the first terminal
	// error.
	started, stopReq bool
	err              error
	// The reconfiguration window: open while one rewires the flow (Start
	// and Stop wait for it).  gen moves on at both ends, so a watcher or a
	// poll can tell one ran while it looked away.
	moving bool
	gen    uint64
	done   chan struct{} // closed when a local deployment finishes
}

// target is what a deployment runs on.  A reconfiguration stages and
// replans once (reconfigure.go), then hands the host the delta.
type target interface {
	graph() *Graph
	// wired returns the plan, every segment's slot (shard or node) and the
	// Typespec leaving it.
	wired() (plan *core.GraphPlan, slotOf []int, segOut []typespec.Typespec)
	slots() int
	// movable reports whether segment si may move (si < 0: whether any
	// may); live is false when its slot died under it.
	movable(si int, live bool) error
	apply(t *txn) error
	rebind(rebinds []RebindTenant) error // tenant retunes need no quiesce
	broadcast(ev events.Type)
	external(fn func())
	err() error  // the first failure of a pipeline
	wait() error // until every pipeline has finished
	stats() GraphStats
}

func newDeployment(name string, bus *events.Bus, host target) *Deployment {
	return &Deployment{name: name, bus: bus, host: host, done: make(chan struct{})}
}

// local returns the shard host, for the verbs only it answers.
func (d *Deployment) local() (*localDeploy, error) {
	if ld, ok := d.host.(*localDeploy); ok {
		return ld, nil
	}
	return nil, ErrNotEditable
}

// nodes returns the node host, for the verbs only it answers.
func (d *Deployment) nodes() (*remoteDeployment, error) {
	if r, ok := d.host.(*remoteDeployment); ok {
		return r, nil
	}
	return nil, ErrNotElastic
}

// open opens the reconfiguration window once check (run under mu, may be
// nil) passes and returns the lifecycle requests so far; close closes it.
func (d *Deployment) open(check func() error) (started, stopReq bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if check != nil {
		if err := check(); err != nil {
			return false, false, err
		}
	}
	d.moving = true
	d.gen++
	return d.started, d.stopReq, nil
}

func (d *Deployment) close() (started, stopReq bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.moving = false
	d.gen++
	return d.started, d.stopReq
}

// latch records err as the terminal error unless one is latched already.
func (d *Deployment) latch(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.mu.Unlock()
}

// fail latches err and stops the graph.
func (d *Deployment) fail(err error) {
	d.latch(err)
	d.host.broadcast(events.Stop)
}

func (d *Deployment) failure() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Name returns the deployment name (the graph name).
func (d *Deployment) Name() string { return d.name }

// Bus returns the deployment's own event bus on a local target (nil on
// nodes, where the deployment has a bus of its own on each node).
func (d *Deployment) Bus() *events.Bus { return d.bus }

// Pipelines lists the pipelines of the current generation (local targets):
// one per segment, plus any detached branch still draining.  No relay: a
// branch on another shard reads its tee port's buffer itself.
func (d *Deployment) Pipelines() []*core.Pipeline {
	ld, err := d.local()
	if err != nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(ld.pipelines)
}

// Segment returns the pipeline composed for the named segment (the
// segment's diagnostic name, "first>>last").  Remote segments have no
// local pipeline.  After a rebalance the handle refers to the recomposed
// pipeline.
func (d *Deployment) Segment(name string) (*core.Pipeline, bool) {
	ld, err := d.local()
	if err != nil {
		return nil, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if segmentIndex(ld.plan, name) < 0 {
		return nil, false
	}
	p, ok := ld.pipes[d.name+"/"+name]
	return p, ok
}

// SegmentPlacements reports where each segment currently runs: segment name
// (as accepted by Rebalance) to shard index — or node index for remote
// deployments.  All zero on a single-scheduler target.
func (d *Deployment) SegmentPlacements() map[string]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	plan, slotOf, _ := d.host.wired()
	out := make(map[string]int, len(plan.Segments))
	for i, seg := range plan.Segments {
		out[seg.Name()] = slotOf[i]
	}
	return out
}

// Links lists the shard links inserted at the graph's cut edges (local
// targets); a tee port is never a link here, whatever shard its branch is
// placed on.
func (d *Deployment) Links() []*shard.Link {
	ld, err := d.local()
	if err != nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(ld.shardLinks)
}

// External runs fn as one action of an external actor on the deployment's
// group (shard.Group.External): the group clock stands still until fn
// returns, so whatever fn reads and posts happens at one instant — use it
// for a controller loop that reads Stats and then acts.  Targets without a
// group clock just run fn.
func (d *Deployment) External(fn func()) { d.host.external(fn) }

// Start broadcasts the start event once to every pipeline of the
// deployment, like Pipeline.Start on a linear pipeline, and to no other.
// During a reconfiguration it waits until the rewired pipelines are in place.
func (d *Deployment) Start() { d.request(events.Start) }

// Stop broadcasts the stop event to the whole deployment and no other; during
// a reconfiguration, once it completes.
func (d *Deployment) Stop() { d.request(events.Stop) }

// request records a lifecycle request and broadcasts it unless the
// reconfiguration window is open: its end broadcasts it then.
func (d *Deployment) request(ev events.Type) {
	d.mu.Lock()
	if ev == events.Start {
		d.started = true
	} else {
		d.stopReq = true
	}
	moving := d.moving
	d.mu.Unlock()
	if !moving {
		d.host.broadcast(ev)
	}
}

// Done is closed when every pipeline of the deployment has terminated.
// Remote deployments have no local pipelines; use Wait instead.
func (d *Deployment) Done() <-chan struct{} { return d.done }

// Err reports the first failure of any pipeline in the deployment.
func (d *Deployment) Err() error {
	if err := d.failure(); err != nil {
		return err
	}
	return d.host.err()
}

// Wait blocks until the deployment has finished and reports the first
// failure.  The caller still drives the scheduler(s): run the scheduler or
// group the graph was deployed on.
func (d *Deployment) Wait() error { return d.host.wait() }

// Stats assembles the deployment's live telemetry, at any time (during a
// reconfiguration it shows the generation being replaced).  Remote
// deployments fold their nodes' answers into the same shape.
func (d *Deployment) Stats() GraphStats { return d.host.stats() }
