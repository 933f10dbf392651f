// Package elastic is the cluster elasticity layer: it choreographs runtime
// membership changes (node join, drain, leave), replica scale-out, and
// multi-level fan-out trees on top of the existing control-plane machinery —
// the Directory for registration and health, Deployment.Rebalance for
// loss-free segment migration, graph.ScaleStage for live replica splits,
// and the Edit transaction for localized tree surgery.
//
// Nothing here adds a new wire protocol or a new runtime primitive; the
// paper's thesis carries through: distribution, placement, and now cluster
// SIZE are control policy bound at runtime.  A node joining is a directory
// registration plus a deployment node-set append; a node draining is a
// sequence of the same Rebalance moves the balancer and supervisor already
// use, so the durable-lane journals carry every in-flight item across and
// the surviving trace is byte-identical; a node leaving is a tombstone.
//
// All actors that move segments — the Supervisor's failover, the Cluster's
// Drain, the Autoscaler's fold-back — serialize on one shared gate
// (Cluster.Gate, wired into Supervisor.Gate), so no two of them can race a
// double-Rebalance of the same segment.
package elastic

import (
	"fmt"
	"sync"

	"infopipes/internal/control"
	"infopipes/internal/graph"
	"infopipes/internal/remote"
)

// EventKind classifies a membership transition.
type EventKind string

const (
	// Join — a node registered and became a placement target.
	Join EventKind = "JOIN"
	// Drain — every hosted segment was migrated off a node.
	Drain EventKind = "DRAIN"
	// Leave — a drained node was tombstoned out of the cluster.
	Leave EventKind = "LEAVE"
)

// Event is one membership transition, sequence-numbered so watchers can
// cursor through the log (Events).
type Event struct {
	Seq  int
	Kind EventKind
	Node string
	// Detail is human-oriented context: segment counts moved, addresses.
	Detail string
}

// Cluster choreographs elastic membership for a set of managed deployments
// against one Directory.  Join/Drain/Leave are the operator verbs; each is
// safe against a concurrent failover because Drain (and the Autoscaler's
// fold-back) hold the same gate the Supervisor holds across a recovery.
type Cluster struct {
	// OnEvent, when set, is called synchronously with each membership
	// event after it is appended to the log.  Set it before the first
	// Join/Drain/Leave.
	OnEvent func(Event)

	dir *control.Directory

	// gate serializes segment-moving control actors; shared with
	// Supervisor.Gate and Autoscaler via Gate().
	gate sync.Mutex

	mu     sync.Mutex
	deps   []*graph.Deployment
	events []Event
}

// NewCluster wraps a directory.  Register the initial nodes and deploy with
// OnNodes(dir.Clients()...) as usual, then Manage each deployment and wire
// Gate() into the Supervisor before the first heartbeat.
func NewCluster(dir *control.Directory) *Cluster {
	return &Cluster{dir: dir}
}

// Gate returns the lock every segment-moving control actor must hold:
// assign it to Supervisor.Gate and pass the cluster to NewAutoscaler so
// failover, drain, and fold-back serialize.
func (c *Cluster) Gate() sync.Locker { return &c.gate }

// Manage adds a deployment to the membership choreography: joins extend its
// node set, drains migrate its segments, leaves verify it is clear.
func (c *Cluster) Manage(d *graph.Deployment) {
	c.mu.Lock()
	c.deps = append(c.deps, d)
	c.mu.Unlock()
}

// Directory returns the underlying node registry.
func (c *Cluster) Directory() *control.Directory { return c.dir }

func (c *Cluster) managed() []*graph.Deployment {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*graph.Deployment, len(c.deps))
	copy(out, c.deps)
	return out
}

func (c *Cluster) record(kind EventKind, node, detail string) {
	c.mu.Lock()
	ev := Event{Seq: len(c.events) + 1, Kind: kind, Node: node, Detail: detail}
	c.events = append(c.events, ev)
	cb := c.OnEvent
	c.mu.Unlock()
	if cb != nil {
		cb(ev)
	}
}

// Events returns the membership log entries with Seq > since (0 for all).
// Watchers poll with their last seen Seq as the cursor.
func (c *Cluster) Events(since int) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	if since < 0 {
		since = 0
	}
	if since >= len(c.events) {
		return nil
	}
	out := make([]Event, len(c.events)-since)
	copy(out, c.events[since:])
	return out
}

// NodeRows implements control.ClusterOps: one membership row per directory
// entry, in registration (index) order, with the segment count the node
// hosts across every managed deployment.  Wire a Cluster into an operator
// endpoint with Operator.WithCluster to serve ipctl nodes/drain/watch.
func (c *Cluster) NodeRows() []control.OpNode {
	deps := c.managed()
	snap := c.dir.Snapshot()
	out := make([]control.OpNode, 0, len(snap))
	for _, h := range snap {
		idx := c.dir.NodeIndex(h.Name)
		hosts := 0
		for _, d := range deps {
			hosts += d.NodeHosts(idx)
		}
		out = append(out, control.OpNode{
			Index: idx, Name: h.Name, Addr: h.Addr,
			Healthy: h.Healthy, Left: h.Left, Hosts: hosts,
		})
	}
	return out
}

// ClusterEvents implements control.ClusterOps: the membership log past the
// cursor, as wire rows.
func (c *Cluster) ClusterEvents(since int) []control.OpClusterEvent {
	evs := c.Events(since)
	out := make([]control.OpClusterEvent, len(evs))
	for i, ev := range evs {
		out[i] = control.OpClusterEvent{Seq: ev.Seq, Kind: string(ev.Kind), Node: ev.Node, Detail: ev.Detail}
	}
	return out
}

// Join registers the node at addr with the directory and appends it to
// every managed deployment's node set.  The new node hosts nothing until a
// drain, failover, or balancer move places a segment there — but it is a
// valid target immediately.  Returns the node's directory name.
//
// The registration index and every deployment's new node index must agree —
// both are append-only registration positions — and Join verifies that
// alignment rather than assuming it.
func (c *Cluster) Join(addr string) (string, error) {
	name, err := c.dir.Register(addr)
	if err != nil {
		return "", fmt.Errorf("elastic: join %s: %w", addr, err)
	}
	want := c.dir.NodeIndex(name)
	client, ok := c.dir.Client(name)
	if !ok {
		return "", fmt.Errorf("elastic: join %s: registered but no client", addr)
	}
	for _, d := range c.managed() {
		idx, err := d.AddNode(client)
		if err != nil {
			return "", fmt.Errorf("elastic: join %s: extend %q: %w", addr, d.Name(), err)
		}
		if idx != want {
			return "", fmt.Errorf("elastic: join %s: deployment %q node index %d diverged from directory index %d",
				addr, d.Name(), idx, want)
		}
	}
	c.record(Join, name, fmt.Sprintf("addr=%s index=%d", addr, want))
	return name, nil
}

// Drain migrates every segment hosted on the named node — across all
// managed deployments — onto healthy survivors via Deployment.Rebalance, the
// same loss-free drain/journal/redial move the balancer uses.  Placement is
// greedy least-loaded over the survivors, orphans in sorted order, so two
// drains of the same cluster state place identically.  Holds the cluster
// gate for the whole migration: a concurrent failover or fold-back waits.
// While another node is down and still hosts segments, Drain moves nothing
// and returns an error wrapping remote.ErrNodeUnreachable: retry once the
// Supervisor has recovered it.
func (c *Cluster) Drain(name string) error {
	idx := c.dir.NodeIndex(name)
	if idx < 0 {
		return fmt.Errorf("elastic: drain %q: not a registered node", name)
	}
	c.gate.Lock()
	defer c.gate.Unlock()

	// A drain can win the gate in the instant between the directory marking
	// another node down and the Supervisor taking the gate to recover it.
	// Moving a segment then would redial its neighbour on the dead node, so
	// refuse until the failover has moved everything off it.
	deps := c.managed()
	for _, h := range c.dir.Snapshot() {
		if i := c.dir.NodeIndex(h.Name); !h.Healthy && !h.Left && i != idx {
			for _, d := range deps {
				if d.NodeHosts(i) > 0 {
					return fmt.Errorf("elastic: drain %q: node %q is down and deployment %q has not been failed over yet: %w",
						name, h.Name, d.Name(), remote.ErrNodeUnreachable)
				}
			}
		}
	}

	moved := 0
	for _, d := range deps {
		n, err := c.drainOne(d, idx)
		if err != nil {
			return fmt.Errorf("elastic: drain %q: deployment %q: %w", name, d.Name(), err)
		}
		moved += n
	}
	c.record(Drain, name, fmt.Sprintf("segments=%d", moved))
	return nil
}

// drainOne moves one deployment's segments off the node at idx; returns how
// many it moved.  Rebalance validates every move before making the first, so
// a drain is all-or-nothing per deployment: an immovable segment (trunk
// split host, merge host) means the operator must restructure first.
func (c *Cluster) drainOne(d *graph.Deployment, idx int) (int, error) {
	var survivors []int
	for _, h := range c.dir.Snapshot() {
		if i := c.dir.NodeIndex(h.Name); h.Healthy && !h.Left && i != idx {
			survivors = append(survivors, i)
		}
	}
	hints, err := graph.Evacuate(d.SegmentPlacements(), idx, survivors)
	if err != nil || len(hints) == 0 {
		return 0, err
	}
	if err := d.Rebalance(hints); err != nil {
		return 0, err
	}
	return len(hints), nil
}

// Leave tombstones a drained node out of the cluster: every managed
// deployment must host nothing there (drain first), then the deployment
// node set and the directory entry are both tombstoned in place — node
// indices never shift — and the control client is closed.  The process can
// exit; the stream never noticed.
func (c *Cluster) Leave(name string) error {
	idx := c.dir.NodeIndex(name)
	if idx < 0 {
		return fmt.Errorf("elastic: leave %q: not a registered node", name)
	}
	deps := c.managed()
	for _, d := range deps {
		if n := d.NodeHosts(idx); n > 0 {
			return fmt.Errorf("elastic: leave %q: deployment %q still hosts %d segment(s) there; drain first",
				name, d.Name(), n)
		}
	}
	for _, d := range deps {
		if err := d.MarkNodeGone(idx); err != nil {
			return fmt.Errorf("elastic: leave %q: deployment %q: %w", name, d.Name(), err)
		}
	}
	if err := c.dir.Unregister(name); err != nil {
		return fmt.Errorf("elastic: leave %q: %w", name, err)
	}
	c.record(Leave, name, fmt.Sprintf("index=%d", idx))
	return nil
}
