package graph

import (
	"errors"
	"fmt"
	"slices"

	"infopipes/internal/remote"
)

// This file holds the verbs only the node host answers: elastic membership
// (AddNode, MarkNodeGone once a drain moved everything off; indices are
// stable — joins append, leaves tombstone, as in the control Directory) and
// supervision (Supervise, Fail, Finished serve internal/control).

// ErrNotElastic marks node-only verbs against a local deployment: only
// OnNodes targets have a node set to grow or shrink.
var ErrNotElastic = errors.New("graph: deployment target has no cluster node set (deploy with OnNodes)")

// AddNode extends a running remote deployment's node set with a freshly
// joined node's client and returns its node index.  The node hosts nothing
// until a move places a segment there, which starts it if the deployment
// has started; it hears rebinds from now on.
func (d *Deployment) AddNode(c *remote.Client) (int, error) {
	r, err := d.nodes()
	if err != nil {
		return 0, err
	}
	name, err := c.Ping()
	if err != nil {
		return 0, fmt.Errorf("graph %q: joining node unreachable: %w", d.name, err)
	}
	d.rbMu.Lock()
	defer d.rbMu.Unlock()
	r.mu.Lock()
	// Copy-on-write (a clipped slice reallocates on append): published
	// slices are never mutated, so lock-free snapshot holders (clientSnap)
	// stay consistent.
	r.clients = append(slices.Clip(r.clients), c)
	r.names = append(slices.Clip(r.names), name)
	r.gone = append(slices.Clip(r.gone), false)
	idx := len(r.clients) - 1
	r.mu.Unlock()
	return idx, nil
}

// MarkNodeGone tombstones a node index after a drain: the deployment stops
// broadcasting to it and never counts it again.  Refused while the node
// still hosts any pipeline of this deployment — leave is only safe once the
// drain moved everything off.
func (d *Deployment) MarkNodeGone(node int) error {
	r, err := d.nodes()
	if err != nil {
		return err
	}
	d.rbMu.Lock()
	defer d.rbMu.Unlock()
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
// leavers included — indices are stable); 0 on local targets.
func (d *Deployment) NodeCount() int {
	r, err := d.nodes()
	if err != nil {
		return 0
	}
	clients, _ := r.clientSnap()
	return len(clients)
}

// NodeHosts reports how many of the deployment's pipelines (relays
// included) currently sit on the given node index — the emptiness check a
// drain uses to prove a node is clear.
func (d *Deployment) NodeHosts(node int) int {
	r, err := d.nodes()
	if err != nil {
		return 0
	}
	n := 0
	for _, p := range r.pipeList() {
		if p.client == node {
			n++
		}
	}
	return n
}

// Supervise marks the deployment as owned by a failure supervisor: Wait and
// Err treat an unreachable node as pending (the supervisor either heals the
// deployment by failing its segments over, or latches a terminal error via
// Fail) instead of failing fast.
func (d *Deployment) Supervise() {
	if r, err := d.nodes(); err == nil {
		r.mu.Lock()
		r.supervised = true
		r.mu.Unlock()
	}
}

// Fail latches a terminal deployment error and stops the graph: the
// supervisor calls it when a dead node's segments cannot be placed on any
// healthy survivor.  Wait and Err return the latched error.
func (d *Deployment) Fail(err error) {
	if _, nerr := d.nodes(); nerr == nil && err != nil {
		d.fail(err)
	}
}

// Finished reports whether the stream has provably delivered its end of
// stream: every reachable pipeline is done AND every terminal (true-sink)
// segment is among them.  An unreachable tail may still have journaled
// items above it its dead node never consumed, so it reports unfinished;
// unreachable NON-terminal pipes do not count once EOS made it through the
// reachable tails.  On a scheduler or a group it reports whether Done has
// closed.
func (d *Deployment) Finished() bool {
	r, err := d.nodes()
	if err != nil {
		select {
		case <-d.done:
			return true
		default:
			return false
		}
	}
	tails := 0
	for _, p := range r.poll() {
		switch {
		case !p.seen:
			if p.tail {
				return false
			}
		case !p.row.Done:
			return false
		case p.tail:
			tails++
		}
	}
	// With the whole deployment unreachable (no tail answered), nothing
	// proves the stream ended — report unfinished.
	return tails > 0
}
