// Package elastic is the cluster's one control loop, plus the multi-level
// fan-out tree.  A Cluster owns every policy that moves the segments of the
// deployments it manages — failover, join / drain / leave, balance and
// replica autoscaling — and applies them one at a time, in the order they
// were posted, on one goroutine and one clock, so no two can race over a
// segment: the loop is the only caller of FailOver, Rebalance,
// Edit(ScaleStage) and SetReplicas on their behalf.  Each policy is a pure
// decision over an immutable view (policy.go).
//
// Distribution, placement and cluster SIZE are control policy bound at
// runtime, with no new wire protocol or runtime primitive: a join is a
// directory registration plus a node-set append; a drain is the balancer's
// Rebalance moves, whose durable-lane journals carry every in-flight item
// across; a leave is a tombstone.
package elastic

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"infopipes/internal/control"
	"infopipes/internal/graph"
	"infopipes/internal/remote"
	"infopipes/internal/vclock"
)

// EventKind classifies one action the loop applied: a node joined, was
// drained of every segment, or left as a tombstone; a heartbeat marked it
// down or up again; one deployment's segments on a dead node failed over,
// an attempt failed and the next is booked (Retry), or failover gave up and
// failed the deployments (Fail); a balance epoch moved a segment; a stage's
// active replica count changed (Scale).
type EventKind string

// The event kinds.
const (
	Join     EventKind = "JOIN"
	Drain    EventKind = "DRAIN"
	Leave    EventKind = "LEAVE"
	Down     EventKind = "DOWN"
	Up       EventKind = "UP"
	Failover EventKind = "FAILOVER"
	Retry    EventKind = "RETRY"
	Fail     EventKind = "FAIL"
	Balance  EventKind = "BALANCE"
	Scale    EventKind = "SCALE"
)

// Event is one action the loop applied, sequence-numbered so watchers can
// cursor through the log (Events, Watch).
type Event struct {
	Seq int
	// At is the instant on the loop's clock when the action applied.
	At   time.Time
	Kind EventKind
	Node string
	// Detail is human-oriented context: deployment, counts, errors.
	Detail string
}

// A dead node's segments are placed up to failoverAttempts times,
// failoverBackoff apart on the loop's clock, before the deployments still
// hosting them there are failed.
const (
	failoverAttempts = 3
	failoverBackoff  = 50 * time.Millisecond
)

// ErrStopped answers a verb posted to a stopped cluster.
var ErrStopped = errors.New("elastic: cluster stopped")

// Cluster is the control loop for a set of managed deployments against one
// Directory.  Join, Drain, Leave and Tick post to the loop and return what
// it applied; a tick whose heartbeat sees a node die fails it over in the
// same step.  Every action is logged (Events).
type Cluster struct {
	dir   *control.Directory
	clock vclock.Clock
	every time.Duration

	mu      sync.Mutex
	deps    []managed
	events  []Event
	grew    chan struct{} // closed and replaced each time the log grows
	queue   []*job
	stopped bool
	done    chan struct{} // closed when the loop exits; nil until Start

	wake  chan struct{} // a post or Stop; capacity 1
	appts []appt        // by instant; the loop goroutine's own
}

// managed is one deployment's entry: the policies that run on it each tick.
type managed struct {
	d     *graph.Deployment
	bal   *graph.Balancer // nil: not balanced
	scale []Policy
	rate  *reading // loop-owned
}

// job is one posted verb: fn runs on the loop, then done closes.
type job struct {
	fn     func() error
	err    error
	events []Event // what fn appended to the log
	done   chan struct{}
}

// appt is an appointment on the loop's clock: a retry or a tick.
type appt struct {
	at time.Time
	fn func()
}

// NewCluster builds the control loop over a directory.  clock is the loop's
// time base and every its tick period: each tick heartbeats the directory,
// fails over what went down, and runs one balance and one autoscale step
// per deployment.  With every <= 0 the loop ticks only when Tick is called;
// on a vclock.Virtual, which reaches any instant as soon as the loop is
// idle, that is the setting that does not spin.  Failover retries are
// appointments on the same clock either way.
func NewCluster(dir *control.Directory, clock vclock.Clock, every time.Duration) *Cluster {
	return &Cluster{dir: dir, clock: clock, every: every,
		grew: make(chan struct{}), wake: make(chan struct{}, 1)}
}

// Start launches the loop.  Verbs posted before it wait in the queue.
func (c *Cluster) Start() {
	c.mu.Lock()
	if c.done != nil || c.stopped {
		c.mu.Unlock()
		return
	}
	c.done = make(chan struct{})
	c.mu.Unlock()
	if c.every > 0 {
		c.book(c.every, c.periodic)
	}
	go c.run()
}

// Stop ends the loop once the action in progress has applied: queued verbs
// answer ErrStopped and booked retries and ticks are dropped.  The log stays
// readable.
func (c *Cluster) Stop() {
	c.mu.Lock()
	c.stopped = true
	done := c.done
	if done == nil {
		c.dropLocked()
	}
	c.mu.Unlock()
	c.signal()
	if done != nil {
		<-done
	}
}

func (c *Cluster) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// post queues fn for the loop; nil once the cluster is stopped.
func (c *Cluster) post(fn func() error) *job {
	j := &job{fn: fn, done: make(chan struct{})}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return nil
	}
	c.queue = append(c.queue, j)
	c.signal()
	return j
}

// do posts fn and waits until the loop applied it.
func (c *Cluster) do(fn func() error) ([]Event, error) {
	j := c.post(fn)
	if j == nil {
		return nil, ErrStopped
	}
	<-j.done
	return j.events, j.err
}

func (c *Cluster) dropLocked() {
	for _, j := range c.queue {
		j.err = ErrStopped
		close(j.done)
	}
	c.queue = nil
}

// run is the loop: the queue first, in posting order; only an empty queue
// lets the clock move on to the next appointment, and with none booked the
// loop sleeps until something is posted.
func (c *Cluster) run() {
	defer close(c.done)
	for {
		c.mu.Lock()
		if c.stopped {
			c.dropLocked()
			c.mu.Unlock()
			return
		}
		var j *job
		if len(c.queue) > 0 {
			j = c.queue[0]
			c.queue = c.queue[1:]
		}
		seq := len(c.events)
		c.mu.Unlock()
		switch {
		case j != nil:
			j.err = j.fn()
			j.events = c.Events(seq)
			close(j.done)
		case len(c.appts) == 0:
			<-c.wake
		case c.clock.WaitUntil(c.appts[0].at, c.wake):
			a := c.appts[0]
			c.appts = c.appts[1:]
			a.fn()
		}
	}
}

// book makes an appointment after d on the loop's clock.
func (c *Cluster) book(d time.Duration, fn func()) {
	at := c.clock.Now().Add(d)
	i := slices.IndexFunc(c.appts, func(a appt) bool { return a.at.After(at) })
	if i < 0 {
		i = len(c.appts)
	}
	c.appts = slices.Insert(c.appts, i, appt{at, fn})
}

// periodic is the tick appointment; it books the next one.  A failed
// balance or autoscale step is tried again by the next tick.
func (c *Cluster) periodic() {
	_ = c.tick()
	c.book(c.every, c.periodic)
}

// add registers d once, supervised (its Wait treats an unreachable node as
// pending until the loop fails it over or gives up), and lets set amend
// its entry.
func (c *Cluster) add(d *graph.Deployment, set func(*managed)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := slices.IndexFunc(c.deps, func(m managed) bool { return m.d == d })
	if i < 0 {
		d.Supervise()
		c.deps = append(c.deps, managed{d: d, rate: &reading{}})
		i = len(c.deps) - 1
	}
	set(&c.deps[i])
}

// Manage puts a deployment under the loop: joins extend its node set,
// drains and failovers move its segments, leaves verify it is clear.
func (c *Cluster) Manage(d *graph.Deployment) { c.add(d, func(*managed) {}) }

// Balance manages d and runs one balance epoch over it each tick: the
// busiest movable segment of the hottest node (or shard) moves to the
// coolest once the skew passes the policy's threshold (graph.Balancer).
func (c *Cluster) Balance(d *graph.Deployment, p graph.BalancePolicy) {
	b := graph.NewBalancer(p)
	c.add(d, func(m *managed) { m.bal = b })
}

// Autoscale manages d and adds a scaling policy for one of its stages.
// Defaults: Min 1.
func (c *Cluster) Autoscale(d *graph.Deployment, p Policy) error {
	if p.Stage == "" {
		return fmt.Errorf("elastic: autoscale policy needs a stage")
	}
	if p.Max < 2 {
		return fmt.Errorf("elastic: autoscale policy for %q: Max %d, need at least 2", p.Stage, p.Max)
	}
	if p.TargetPerTick <= 0 {
		return fmt.Errorf("elastic: autoscale policy for %q: TargetPerTick must be positive", p.Stage)
	}
	p.Min = max(p.Min, 1)
	c.add(d, func(m *managed) { m.scale = append(m.scale, p) })
	return nil
}

func (c *Cluster) managed() []managed {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.deps)
}

// onNodes lists the managed deployments deployed on nodes: membership and
// failover concern them only.
func (c *Cluster) onNodes() []*graph.Deployment {
	var out []*graph.Deployment
	for _, m := range c.managed() {
		if m.d.NodeCount() > 0 {
			out = append(out, m.d)
		}
	}
	return out
}

func (c *Cluster) record(kind EventKind, node, detail string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, Event{Seq: len(c.events) + 1, At: c.clock.Now(), Kind: kind, Node: node, Detail: detail})
	close(c.grew)
	c.grew = make(chan struct{})
}

// Events returns the log entries with Seq > since (0 for all).
func (c *Cluster) Events(since int) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	since = max(since, 0)
	if since >= len(c.events) {
		return nil
	}
	return slices.Clone(c.events[since:])
}

// Watch returns a channel that is closed once the log holds an entry with
// Seq > since: a watcher waits on it, then reads Events(since).
func (c *Cluster) Watch(since int) <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.events) > since {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return c.grew
}

// hosts counts, per node index, the pipelines the managed deployments
// place there.
func (c *Cluster) hosts(n int) []int {
	out := make([]int, n)
	for _, d := range c.onNodes() {
		for i := range out {
			out[i] += d.NodeHosts(i)
		}
	}
	return out
}

// NodeRows implements control.ClusterOps: one membership row per directory
// entry, in registration (index) order, with the segment count the node
// hosts across every managed deployment.  Wire a Cluster into an operator
// endpoint with Operator.WithCluster to serve ipctl nodes/drain/watch.
func (c *Cluster) NodeRows() []control.OpNode {
	snap := c.dir.Snapshot()
	hosts := c.hosts(len(snap))
	out := make([]control.OpNode, 0, len(snap))
	for i, h := range snap {
		out = append(out, control.OpNode{
			Index: i, Name: h.Name, Addr: h.Addr,
			Healthy: h.Healthy, Left: h.Left, Hosts: hosts[i],
		})
	}
	return out
}

// ClusterEvents implements control.ClusterOps: the log past the cursor, as
// wire rows.
func (c *Cluster) ClusterEvents(since int) []control.OpClusterEvent {
	evs := c.Events(since)
	out := make([]control.OpClusterEvent, len(evs))
	for i, ev := range evs {
		out[i] = control.OpClusterEvent{Seq: ev.Seq, Kind: string(ev.Kind), Node: ev.Node, Detail: ev.Detail}
	}
	return out
}

// Tick runs one tick now — heartbeat, failover of what went down, one
// balance and one autoscale step per deployment — and returns the log
// entries it appended, with the balance and autoscale errors it met.
func (c *Cluster) Tick() ([]Event, error) { return c.do(c.tick) }

func (c *Cluster) tick() error {
	c.heartbeat()
	var errs []error
	for _, m := range c.managed() {
		if m.bal != nil {
			moved, err := m.d.Balance(m.bal)
			if moved {
				c.record(Balance, "", "deployment="+m.d.Name())
			}
			errs = append(errs, err)
		}
		errs = append(errs, c.autoscale(m, false))
	}
	return errors.Join(errs...)
}

// heartbeat probes the directory once and applies what changed.
func (c *Cluster) heartbeat() {
	_, changed := c.dir.Heartbeat()
	for _, h := range changed {
		if h.Healthy {
			c.record(Up, h.Name, "")
		} else {
			c.down(h.Name, h.Err)
		}
	}
}

// down reacts to a dead node: every scaled stage folds to its floor and
// the node's segments fail over.
func (c *Cluster) down(name string, cause error) {
	c.record(Down, name, fmt.Sprint(cause))
	for _, m := range c.managed() {
		_ = c.autoscale(m, true) // a failed fold keeps its width; the next ticks decide again
	}
	c.failover(name, cause, 1)
}

// failover moves every managed deployment's segments off the dead node.
// What could not be placed is tried again at an appointment after a fresh
// heartbeat, failoverAttempts times in all; then those deployments fail.
func (c *Cluster) failover(name string, cause error, attempt int) {
	dead := c.dir.NodeIndex(name)
	if dead < 0 {
		return
	}
	health := c.dir.Snapshot()
	var failed []*graph.Deployment
	var lastErr error
	for _, d := range c.onNodes() {
		if d.Finished() {
			continue // the stream already delivered its EOS; nothing to save
		}
		hints, err := evacuation(d.SegmentPlacements(), health, dead)
		if err == nil && len(hints) > 0 {
			if err = d.FailOver(dead, hints); err == nil {
				c.record(Failover, name, fmt.Sprintf("deployment=%s segments=%d", d.Name(), len(hints)))
			}
		}
		if err != nil {
			failed, lastErr = append(failed, d), err
		}
	}
	switch {
	case len(failed) == 0:
	case attempt < failoverAttempts:
		c.record(Retry, name, fmt.Sprintf("attempt %d of %d: %v", attempt, failoverAttempts, lastErr))
		c.book(failoverBackoff, func() {
			c.heartbeat() // a survivor may have come back, or another died
			c.failover(name, cause, attempt+1)
		})
	default:
		for _, d := range failed {
			d.Fail(fmt.Errorf("elastic: node %q down (%v) and failover exhausted %d attempts: %w",
				name, cause, failoverAttempts, lastErr))
		}
		c.record(Fail, name, fmt.Sprintf("%d deployment(s): %v", len(failed), lastErr))
	}
}

// Join registers the node at addr with the directory and appends it to
// every managed node deployment's node set — both append-only
// registration positions, whose agreement Join verifies.  The new node
// hosts nothing until a drain, failover or balance move places a segment
// there, but it is a valid target at once.  Returns its directory name.
func (c *Cluster) Join(addr string) (string, error) {
	var name string
	_, err := c.do(func() (err error) {
		if name, err = c.dir.Register(addr); err != nil {
			return fmt.Errorf("elastic: join %s: %w", addr, err)
		}
		want := c.dir.NodeIndex(name)
		client, _ := c.dir.Client(name)
		for _, d := range c.onNodes() {
			idx, err := d.AddNode(client)
			if err != nil {
				return fmt.Errorf("elastic: join %s: extend %q: %w", addr, d.Name(), err)
			}
			if idx != want {
				return fmt.Errorf("elastic: join %s: deployment %q node index %d diverged from directory index %d",
					addr, d.Name(), idx, want)
			}
		}
		c.record(Join, name, fmt.Sprintf("addr=%s index=%d", addr, want))
		return nil
	})
	if err != nil {
		return "", err
	}
	return name, nil
}

// Drain migrates every segment hosted on the named node, across all managed
// deployments, onto healthy survivors via Deployment.Rebalance — the
// loss-free drain/journal/redial move the balancer uses — placed by
// evacuation, so two drains of the same cluster state place identically.
// Rebalance validates every move before making the first: a drain is
// all-or-nothing per deployment.  While another node is down and its
// failover has not applied, Drain moves nothing and returns an error
// wrapping remote.ErrNodeUnreachable.
func (c *Cluster) Drain(name string) error {
	return c.onNode("drain", name, func(idx int) error {
		health := c.dir.Snapshot()
		if down, n := unrecovered(health, c.hosts(len(health)), idx); n > 0 {
			return fmt.Errorf("node %q is down and still hosts %d pipeline(s) that have not been failed over: %w",
				down, n, remote.ErrNodeUnreachable)
		}
		moved := 0
		for _, d := range c.onNodes() {
			hints, err := evacuation(d.SegmentPlacements(), health, idx)
			if err == nil && len(hints) > 0 {
				err = d.Rebalance(hints)
			}
			if err != nil {
				return fmt.Errorf("deployment %q: %w", d.Name(), err)
			}
			moved += len(hints)
		}
		c.record(Drain, name, fmt.Sprintf("segments=%d", moved))
		return nil
	})
}

// Leave tombstones a drained node out of the cluster: every managed
// deployment must host nothing there (drain first), then the deployment
// node sets and the directory entry are tombstoned in place — node indices
// never shift — and the control client is closed.  The process can exit;
// the stream never noticed.
func (c *Cluster) Leave(name string) error {
	return c.onNode("leave", name, func(idx int) error {
		deps := c.onNodes()
		for _, d := range deps {
			if n := d.NodeHosts(idx); n > 0 {
				return fmt.Errorf("deployment %q still hosts %d segment(s) there; drain first", d.Name(), n)
			}
		}
		for _, d := range deps {
			if err := d.MarkNodeGone(idx); err != nil {
				return fmt.Errorf("deployment %q: %w", d.Name(), err)
			}
		}
		if err := c.dir.Unregister(name); err != nil {
			return err
		}
		c.record(Leave, name, fmt.Sprintf("index=%d", idx))
		return nil
	})
}

// onNode posts a verb about a registered node; fn gets its index.
func (c *Cluster) onNode(verb, name string, fn func(idx int) error) error {
	_, err := c.do(func() error {
		idx := c.dir.NodeIndex(name)
		if idx < 0 {
			return fmt.Errorf("elastic: %s %q: not a registered node", verb, name)
		}
		if err := fn(idx); err != nil {
			return fmt.Errorf("elastic: %s %q: %w", verb, name, err)
		}
		return nil
	})
	return err
}
