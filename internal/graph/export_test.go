package graph

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/remote"
)

// Test-only windows into the reconfiguration engine.

// MoveOp exposes Rebalance's delta as an EditOp, so a test can ride segment
// moves in one transaction with structural ops.
func MoveOp(hints map[string]int) EditOp { return moveOp(hints) }

// DescheduleControllers makes every half-done external action (see yield)
// give the CPU away and stay away for a few milliseconds — long enough for
// every scheduler to run itself idle — until the returned func is called.
func DescheduleControllers() (restore func()) {
	yield = func() {
		runtime.Gosched()
		time.Sleep(3 * time.Millisecond)
	}
	return func() { yield = nil }
}

// Quiescing reports whether a transaction currently holds the deployment
// parked.
func (d *Deployment) Quiescing() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.moving
}

// ReplaceWindow holds the deployment's replace window open, as a move does
// while it rewires pipes, until the returned func is called.
func (d *Deployment) ReplaceWindow() (done func()) {
	_, _, _ = d.open(nil)
	return func() { d.close() }
}

// Rendered returns what the remote engine's one renderer makes of every
// pipeline of the deployment right now, by pipeline name: the segments, and
// the merge relays that are composed.
func (d *Deployment) Rendered() map[string][]remote.StageSpec {
	d.rbMu.Lock()
	defer d.rbMu.Unlock()
	r, _ := d.nodes()
	out := make(map[string][]remote.StageSpec)
	for si, seg := range r.plan.Segments {
		out[r.name+"/"+seg.Name()], _ = r.segmentParts(si)
	}
	for tee, ports := range r.plan.MergeBranch {
		for port := range ports {
			if name := r.laneName(tee, port) + "/relay"; r.hostOf(name) >= 0 {
				out[name] = r.relayParts(core.SegmentEnd{Kind: core.EndMergeIn, Node: tee, Port: port})
			}
		}
	}
	return out
}

// DeclString renders the declaration layer — every node with the fields an
// edit can change, the edges, the index — for rollback assertions.
func (g *Graph) DeclString() string {
	var b strings.Builder
	for _, n := range g.nodes {
		stage := ""
		if n.kind == nStage && n.spec == nil {
			stage = n.stage.Name()
		}
		fmt.Fprintf(&b, "node %s kind=%d stage=%s outs=%d ins=%d place=%d detached=%v\n",
			n.name, n.kind, stage, n.outs, n.ins, n.place, n.detachedOuts)
	}
	for _, e := range g.edges {
		fmt.Fprintf(&b, "edge %s:%d -> %s:%d cut=%v\n", e.From, e.FromPort, e.To, e.ToPort, e.Cut)
	}
	keys := make([]string, 0, len(g.index))
	for k, n := range g.index {
		keys = append(keys, fmt.Sprintf("%s=%p", k, n))
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "index %v\n", keys)
	return b.String()
}
