package graph

import (
	"errors"
	"fmt"
	"slices"

	"infopipes/internal/events"
	"infopipes/internal/remote"
)

// This file implements elastic membership at the deployment level: a running
// OnNodes deployment's node set can GROW (AddNode) and nodes can be RETIRED
// (MarkNodeGone, once a drain moved everything off).  Node indices are
// stable: joins append, leaves tombstone, nothing ever renumbers — the same
// invariant the control Directory keeps, so their indices stay aligned.
// The cluster-level choreography lives in internal/elastic.

// ErrNotElastic marks membership ops against a non-remote deployment: only
// OnNodes targets have a node set to grow or shrink.
var ErrNotElastic = errors.New("graph: deployment target has no cluster node set (deploy with OnNodes)")

// AddNode extends a running remote deployment's node set with a freshly
// joined node's control client and returns its node index.  The node hosts
// nothing until a Replace, FailOver or balancer move places a segment there;
// it immediately receives deployment-wide broadcasts (start/stop) and tenant
// rebinds.  Serialized with Replace/FailOver/Edit under the same lock.
func (d *Deployment) AddNode(c *remote.Client) (int, error) {
	if d.remote == nil {
		return 0, ErrNotElastic
	}
	name, err := c.Ping()
	if err != nil {
		return 0, fmt.Errorf("graph %q: joining node unreachable: %w", d.name, err)
	}
	d.rbMu.Lock()
	defer d.rbMu.Unlock()
	r := d.remote
	r.mu.Lock()
	defer r.mu.Unlock()
	// Copy-on-write (a clipped slice reallocates on append): published
	// slices are never mutated, so lock-free snapshot holders (clientSnap)
	// stay consistent.
	r.clients = append(slices.Clip(r.clients), c)
	r.names = append(slices.Clip(r.names), name)
	r.gone = append(slices.Clip(r.gone), false)
	if r.started {
		// The deployment already broadcast its start; a late joiner must
		// hear it too or segments placed there later never start.
		_ = c.SendEvent(events.Event{Type: events.Start, Origin: r.name})
	}
	return len(r.clients) - 1, nil
}

// MarkNodeGone tombstones a node index after a drain: the deployment stops
// broadcasting to it and never counts it again.  Refused while the node
// still hosts any pipeline of this deployment — leave is only safe once the
// drain moved everything off.
func (d *Deployment) MarkNodeGone(node int) error {
	if d.remote == nil {
		return ErrNotElastic
	}
	d.rbMu.Lock()
	defer d.rbMu.Unlock()
	r := d.remote
	r.mu.Lock()
	defer r.mu.Unlock()
	if node < 0 || node >= len(r.clients) {
		return fmt.Errorf("graph %q: no node %d to retire (cluster has %d)", d.name, node, len(r.clients))
	}
	for _, p := range r.pipes {
		if p.client == node {
			return fmt.Errorf("graph %q: node %d still hosts %q; drain before leaving", d.name, node, p.name)
		}
	}
	r.gone = slices.Clone(r.gone)
	r.gone[node] = true
	return nil
}

// NodeCount reports the deployment's current node-set size (tombstoned
// leavers included — indices are stable).
func (d *Deployment) NodeCount() int {
	if d.remote == nil {
		return 0
	}
	clients, _ := d.remote.clientSnap()
	return len(clients)
}

// NodeHosts reports how many of the deployment's pipelines (relays
// included) currently sit on the given node index — the emptiness check a
// drain uses to prove a node is clear.
func (d *Deployment) NodeHosts(node int) int {
	if d.remote == nil {
		return 0
	}
	n := 0
	for _, p := range d.remote.pipeList() {
		if p.client == node {
			n++
		}
	}
	return n
}
