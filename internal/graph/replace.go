package graph

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/remote"
)

// ErrNotReplaceable marks a segment the cluster re-placement path cannot
// move: its stream position lives in the segment (a source), a shared tee
// instance lives in it (split trunks, merge downstreams), one of its
// boundaries is wired directly instead of over a redialable cluster lane
// (deploy with WithClusterLanes), or it buffers items internally while its
// inbound lane self-acks (the ack watermark cannot prove end-of-segment
// consumption, so a replay would lose the buffered items).  Merged flows
// are movable like any other: their lanes journal on the per-origin
// (origin, seq) pair (see item.Item.Origin).
var ErrNotReplaceable = errors.New("graph: segment cannot be re-placed")

// Replace moves segments of a live OnNodes deployment between cluster nodes
// without losing an in-flight item — the cluster form of Rebalance, driven
// by the extended §2.4 protocol.  hints maps segment names (see
// SegmentPlacements) to node indices.  There is no drain phase: the durable
// lanes carry the in-flight items with the segment.  Per segment the
// deployment
//
//  1. detaches the segment's pipeline on its old node (whatever was in the
//     pipeline or its inbound lane is simply abandoned — the upstream
//     journal still holds every item the chain below has not consumed),
//  2. drops the old node's lane state — sender connections close WITHOUT
//     an EOS frame, so the downstream resumable listeners park instead of
//     ending the stream,
//  3. places the segment on the new node the way the deploy placed it (the
//     same rendered specs, the same seed), dialing the stationary downstream
//     listeners at their unchanged addresses,
//  4. redials the stationary upstream senders at the segment's new inbound
//     listeners — which replays their journals — and re-broadcasts start.
//
// The downstream listeners' dedup watermarks drop whatever the replay
// re-delivers, so the move is exactly-once at the boundary below the moved
// segment.  Boundary lanes, once TCP, stay TCP (deploy with
// WithClusterLanes so every cut edge is one).  Segments that hold stream
// position or shared tee state refuse with ErrNotReplaceable; check with
// Replaceable before proposing a move.  Concurrent Replace calls are
// serialized with each other.
func (d *Deployment) Replace(hints map[string]int) error {
	if d.remote == nil {
		return ErrNotRebalancable
	}
	d.rbMu.Lock()
	defer d.rbMu.Unlock()
	r := d.remote
	if !r.opt.ClusterLanes {
		return errNotRedialable
	}
	dests := make(map[int]int, len(hints))
	for name, node := range hints {
		si, err := r.segIndex(name)
		if err != nil {
			return err
		}
		if node < 0 || node >= len(r.clients) {
			return fmt.Errorf("graph %q: segment %q hinted to node %d, cluster has %d",
				d.name, name, node, len(r.clients))
		}
		if err := r.replaceable(si, true); err != nil {
			return err
		}
		if r.slotOf[si] != node {
			dests[si] = node
		}
	}
	return r.execute(dests, true)
}

var errNotRedialable = fmt.Errorf("%w: deployment lanes are not redialable (deploy with WithClusterLanes)",
	ErrNotReplaceable)

// execute runs validated moves (segment index to destination node) one at a
// time, downstream-first — plan segments are indexed in topological order.
// When a co-placed chain moves (or died) together, the upstream segment's
// placement dials its downstream lane, which must already be re-bound at
// its destination.
func (r *remoteDeployment) execute(dests map[int]int, oldUp bool) error {
	order := slices.Sorted(maps.Keys(dests))
	for _, si := range slices.Backward(order) {
		if err := r.move(si, dests[si], oldUp); err != nil {
			return err
		}
	}
	return nil
}

// Replaceable reports whether the named segment of a remote deployment can
// be moved by Replace, and why not otherwise.  It reads the wiring a move
// rewrites, so it waits for one in flight.
func (d *Deployment) Replaceable(segment string) error {
	if d.remote == nil {
		return ErrNotRebalancable
	}
	d.rbMu.Lock()
	defer d.rbMu.Unlock()
	si, err := d.remote.segIndex(segment)
	if err != nil {
		return err
	}
	return d.remote.replaceable(si, true)
}

func (r *remoteDeployment) segIndex(name string) (int, error) {
	if si := r.segment(name); si >= 0 {
		return si, nil
	}
	return 0, fmt.Errorf("graph %q: replace hint for unknown segment %q", r.name, name)
}

// replaceable checks the movability contract of one segment: every boundary
// must be a redialable TCP lane (or absent, for sinks), the inbound lane
// must be durable (the upstream journal is what carries the in-flight items
// through the move), a self-acking inbound lane requires a single-pump
// segment (so the ack anchor proves consumption — see netpipe's laneRx.pop),
// and neither stream position (sources) nor merge tees may live inside the
// segment.  Split trunks are movable on the LIVE path only (live=true —
// manual Replace): the trunk detaches, the tee's out-port buffers and relay
// journals drain on the still-running old node, and the tee is rebuilt from
// its spec on the destination (see move).  A dead node cannot drain, so
// failover keeps refusing trunk hosts.
func (r *remoteDeployment) replaceable(si int, live bool) error {
	seg := r.plan.Segments[si]
	refuse := func(format string, args ...any) error {
		return fmt.Errorf("%w: %q "+format, append([]any{ErrNotReplaceable, seg.Name()}, args...)...)
	}
	switch h := seg.Head; {
	case h.Kind == core.EndNone:
		return refuse("is a source segment (its stream position cannot move)")
	case h.Kind == core.EndMergeOut:
		return refuse("hosts the merge tee %q", h.Node)
	case r.inLane(si) == "":
		return refuse("is wired directly to split %q (no lane to redial)", h.Node)
	case !r.opt.ClusterLanes:
		return refuse("has an inbound link that is not a durable lane (deploy with WithClusterLanes)")
	}
	// A self-acking inbound listener (no durable outbound lane to chain to)
	// anchors its acks one pop behind the pipeline's FIRST pump, which only
	// proves consumption when that pump is the segment's ONLY pump.  A
	// buffered segment runs extra pump-driven sections: the anchor would
	// acknowledge items still queued inside the segment, the upstream
	// journal would trim them, and a replay after the move would lose them
	// — refuse the move instead.
	if r.chainLane(si) == "" && r.segSections[si] > 1 {
		return refuse("buffers items internally (its self-acking inbound lane cannot prove end-of-segment consumption)")
	}
	switch t := seg.Tail; {
	case t.Kind == core.EndSplitTrunk:
		if !live {
			return refuse("hosts the split tee %q (its relay journals died with the node)", t.Node)
		}
		// A live trunk move drains the tee and rebuilds it from its spec on
		// the destination.  That replays the upstream journal's unacked tail
		// through a FRESH tee, so the routing must be a pure function of the
		// item (round-robin state would re-route the replayed overlap onto a
		// different branch — a duplicate one branch's dedup cannot absorb).
		n := r.g.index[t.Node]
		if n.spec.Kind == "route" {
			if sel := n.spec.Params["sel"]; sel == "" || sel == "rr" {
				return refuse("hosts split %q with stateful round-robin routing (a rebuilt tee would re-route the replayed overlap)", t.Node)
			}
		}
		// Every branch must attach over a relay lane: a branch wired
		// directly pulls the shared tee instance itself, and that reference
		// cannot follow the tee to another node.
		for _, bi := range r.plan.SplitBranch[t.Node] {
			if bi >= 0 && r.inLane(bi) == "" {
				return fmt.Errorf("%w: branch %q is wired directly to split %q (move the branch off node %d first)",
					ErrNotReplaceable, r.plan.Segments[bi].Name(), t.Node, r.slotOf[si])
			}
		}
	case t.Kind == core.EndMergeIn && r.outLane(si) == "":
		return refuse("is wired directly to merge %q (no lane to redial)", t.Node)
	}
	return nil
}

// move executes one validated segment move through the four steps of
// Replace.  oldUp says whether the segment's current node is still
// reachable: a live node gets a graceful detach and sided lane drops (the
// segment owns its inbound LISTENER and outbound SENDERS there; its
// neighbours' halves of the same lanes must survive), a dead one is never
// contacted.  A trunk (live moves only) also drains its tee through its
// still-running relays (drainTee) before they retire with it; on the
// destination its relays recompose from the tee's carried spec, and the
// branch listeners' dedup watermarks absorb what the upstream journal
// replays through the fresh tee.  Once a live move has detached the
// segment, a failure leaves it on neither node: the error is latched and
// the graph stopped.  Under failover nothing is latched — the caller
// retries another survivor, and only it knows when to give up (Fail).
func (r *remoteDeployment) move(si, dest int, oldUp bool) error {
	seg := r.plan.Segments[si]
	old := r.slotOf[si]
	pipeName := r.name + "/" + seg.Name()
	stepErr := func(step string, err error) error {
		return fmt.Errorf("graph %q: replace %q: %s: %w", r.name, seg.Name(), step, err)
	}
	latch := func(err error) error {
		if oldUp {
			r.fail(fmt.Errorf("graph %q: replace %q failed, deployment stopped: %w", r.name, seg.Name(), err))
		}
		return err
	}

	// A trunk moves with one relay pipeline per branch lane.
	var relayLanes, relayPipes []string
	teeName := seg.Tail.Node
	teeKey := r.name + "/" + teeName // the node registers shared tees graph-prefixed
	if seg.Tail.Kind == core.EndSplitTrunk {
		for port := range r.plan.SplitBranch[teeName] {
			lane := r.laneName(teeName, port)
			relayLanes = append(relayLanes, lane)
			relayPipes = append(relayPipes, lane+"/relay")
		}
	}

	defer r.replaceWindow()()
	r.mu.Lock()
	started := r.started
	r.mu.Unlock()

	inLane, outLane := r.inLane(si), r.outLane(si)

	r.retire(old, oldUp, append([]string{pipeName}, relayPipes...))
	if oldUp {
		c := r.clients[old]
		// Detach BEFORE dropping the inbound listener: dropping first would
		// close the lane inbox under the running pipeline, which reads that
		// as end of stream and propagates a spurious EOS frame downstream.
		if err := c.Detach(pipeName); err != nil {
			return stepErr("detach", err)
		}
		if len(relayLanes) > 0 {
			drained, err := drainTee(c, teeKey, relayLanes)
			if err != nil {
				return latch(stepErr("drain", err))
			}
			if !drained {
				// The branches stopped acknowledging — put the trunk back
				// where it was (its listener, tee and relays are all still in
				// place) and leave the deployment running.
				err := fmt.Errorf("graph %q: replace %q: split %q never drained (a branch is not consuming)",
					r.name, seg.Name(), teeName)
				if rerr := r.place(si); rerr != nil {
					return latch(err)
				}
				if started {
					_ = c.SendEvent(events.Event{Type: events.Start, Origin: r.name})
				}
				return err
			}
		}
		drop := func(lane string, side remote.LaneSide) error {
			if _, err := c.Lane(remote.LaneRequest{Kind: remote.LaneDrop, Lane: lane, Side: side}); err != nil {
				return latch(stepErr("drop "+lane, err))
			}
			return nil
		}
		if inLane != "" {
			if err := drop(inLane, remote.ListenerSide); err != nil {
				return err
			}
		}
		senders := relayLanes // a trunk sends through its relays, any other segment on its outbound lane
		if outLane != "" {
			senders = []string{outLane}
		}
		for _, lane := range senders {
			if err := drop(lane, remote.SenderSide); err != nil {
				return err
			}
		}
		if len(relayLanes) > 0 {
			if _, err := c.Lane(remote.LaneRequest{Kind: remote.LaneDropTee, Tee: teeKey}); err != nil {
				return latch(stepErr("droptee", err))
			}
		}
	}

	// Everything else stays recorded; the segment's node flips and its
	// inbound listener — gone with the old node, or just dropped — is
	// unbound, so place binds a fresh one, composes the segment and dials the
	// stationary lanes below it.  A trunk's relays compose first: their tee
	// factory rebuilds the tee on the destination from its spec, and the
	// trunk attaches to that instance.
	r.mu.Lock()
	r.slotOf[si] = dest
	r.mu.Unlock()
	if inLane != "" {
		r.links[inLane] = nodeLink{}
	}
	var err error
	for port := range relayLanes {
		if err = r.splitRelay(teeName, port); err != nil {
			break
		}
	}
	if err == nil {
		err = r.place(si)
	}
	if err != nil {
		r.mu.Lock()
		r.slotOf[si] = old
		r.mu.Unlock()
		return latch(err)
	}

	// The inbound lane's stationary sender follows the listener.  A sender
	// that died with the node (a co-placed chain under failover) is not
	// redialed: its own move composes it against the new listener.
	if inLane != "" {
		if sender := r.slotOf[r.plan.Upstream(si)[0]]; oldUp || sender != old {
			if _, err := r.clients[sender].Lane(remote.LaneRequest{Kind: remote.LaneRedial,
				Lane: inLane, Addr: r.links[inLane].addr}); err != nil {
				return latch(stepErr("redial "+inLane, err))
			}
		}
	}
	if started {
		_ = r.clients[dest].SendEvent(events.Event{Type: events.Start, Origin: r.name})
	}
	return nil
}

// replaceWindow opens the window in which a pipeline may legitimately be
// missing from the node the deployment places it on (see poll) and returns
// the func that closes it.  The generation moves on at both ends, so a poll
// can tell a move ran while its requests were in flight even when the flag
// has already dropped again.
func (r *remoteDeployment) replaceWindow() (done func()) {
	r.mu.Lock()
	r.replacing = true
	r.repGen++
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		r.replacing = false
		r.repGen++
		r.mu.Unlock()
	}
}

// retire folds the last-known counters of the pipelines a move abandons on
// node into the ledger (a dead node's from the last snapshot that reached
// it) — best-effort: the replayed tail is counted twice, in telemetry only.
func (r *remoteDeployment) retire(node int, up bool, names []string) {
	var rows map[string]remote.PipeStat
	if up {
		rows, _ = r.rows(r.clients[node], node)
	} else {
		r.mu.Lock()
		rows = r.lastRows[node]
		r.mu.Unlock()
	}
	for _, name := range names {
		row := rows[name]
		r.ledger.fold(name, node, counts{row.Items, row.Cycles, row.BusyNanos})
	}
}

// drainTee empties a split tee whose trunk was just detached, then retires
// its relays.  The relay pipelines keep running and pump the tee's out-port
// buffers into the branch lanes; the drained probe is polled until every
// buffer is empty and every relay lane is connected and quiescent — at that
// point every item that entered the tee is on a branch listener's side of
// the wire (consumed or in its inbox).  The relay journals'
// delivered-but-unacked tails are discarded with the relays; the listeners'
// dedup watermarks make any replayed overlap harmless (see
// nodeState.drained).  It reports false, with the relays untouched, when
// the tee never drains (a wedged or disconnected branch).  Otherwise the
// relays detach — at a pump-cycle boundary, so no item is in a relay's
// hand — and emptiness is re-verified: a straggler caught between a buffer
// pop and a journal append by the LAST probe would have been journaled by
// now and show up here.
func drainTee(c *remote.Client, teeKey string, lanes []string) (bool, error) {
	probe := remote.LaneRequest{Kind: remote.LaneDrained, Tee: teeKey, Lanes: lanes}
	deadline := time.Now().Add(10 * time.Second) //ipvet:allow wallclock drain deadline against a live remote node; its relays run on their own clock
	for {
		rep, err := c.Lane(probe)
		if err != nil {
			return false, fmt.Errorf("probe: %w", err)
		}
		if rep.Drained {
			break
		}
		if !time.Now().Before(deadline) { //ipvet:allow wallclock drain deadline check
			return false, nil
		}
	}
	for _, lane := range lanes {
		if err := c.Detach(lane + "/relay"); err != nil {
			return false, fmt.Errorf("detach relay of %q: %w", lane, err)
		}
	}
	if rep, err := c.Lane(probe); err != nil || !rep.Drained {
		return false, fmt.Errorf("split not empty after relay detach (err=%v)", err)
	}
	return true, nil
}

// Supervise marks the deployment as owned by a failure supervisor: Wait and
// Err treat an unreachable node as pending (the supervisor either heals the
// deployment by failing its segments over, or latches a terminal error via
// Fail) instead of failing fast.
func (d *Deployment) Supervise() {
	if d.remote == nil {
		return
	}
	d.remote.mu.Lock()
	d.remote.supervised = true
	d.remote.mu.Unlock()
}

// Fail latches a terminal deployment error and stops the graph: the
// supervisor calls it when a dead node's segments cannot be placed on any
// healthy survivor.  Wait and Err return the latched error.
func (d *Deployment) Fail(err error) {
	if d.remote != nil && err != nil {
		d.remote.fail(err)
	}
}

// fail latches the first terminal error and stops the graph.
func (r *remoteDeployment) fail(err error) {
	r.mu.Lock()
	if r.startErr == nil {
		r.startErr = err
	}
	r.mu.Unlock()
	r.stop()
}

// Finished reports whether the deployment's stream has provably delivered
// its end of stream: every reachable pipeline is done AND every terminal
// (true-sink) segment is among the reachable done pipes.  EOS observed at
// the sinks is the only proof the stream ended — an unreachable tail may
// still have journaled in-flight items above it that its dead node never
// consumed, so it reports unfinished and the failover (or its terminal
// Fail) decides.  Unreachable NON-terminal pipes don't count against it:
// if the flow's EOS made it through the reachable tails, the stream is
// over and a failover would only rebuild dead weight.
func (d *Deployment) Finished() bool {
	if d.remote == nil {
		return false
	}
	tails := 0
	for _, p := range d.remote.poll() {
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

// FailOver moves every segment hosted on a dead node onto the hinted
// survivors — Replace's disaster path, driven by Directory.OnDown.  The
// dead node is never contacted: its lane state died with it (peers hold
// parked, redialable lane halves), and the upstream durable journals carry
// every item the chain below the dead segments had not consumed.  hints
// maps segment names to destination node indices and must cover every
// segment on the dead node; a relay pipeline (split/merge anchor wiring) on
// the dead node is not recoverable and fails the call.
//
// The segments recompose one at a time, downstream-first (so co-placed
// chains that died together can dial each other's fresh listeners),
// stationary senders redial (replaying their journals), and the
// destinations get a start event.  On error the failed segment's placement
// reverts to the dead node and the error returns without latching: the
// caller may retry with different survivors, and only it knows when to give
// up (Fail).
func (d *Deployment) FailOver(dead int, hints map[string]int) error {
	if d.remote == nil {
		return ErrNotRebalancable
	}
	d.rbMu.Lock()
	defer d.rbMu.Unlock()
	r := d.remote
	if !r.opt.ClusterLanes {
		return errNotRedialable
	}
	if dead < 0 || dead >= len(r.clients) {
		return fmt.Errorf("graph %q: failover of node %d, cluster has %d", d.name, dead, len(r.clients))
	}
	// Everything hosted on the dead node must be recoverable and hinted.
	for _, p := range r.pipeList() {
		if p.client == dead && p.seg < 0 {
			return fmt.Errorf("graph %q: failover: relay %q is anchored on dead node %d (its tee cannot move)",
				d.name, p.name, dead)
		}
	}
	dests := make(map[int]int)
	for si, seg := range r.plan.Segments {
		if r.slotOf[si] != dead {
			continue
		}
		dest, ok := hints[seg.Name()]
		if !ok {
			return fmt.Errorf("graph %q: failover: no destination for segment %q on dead node %d",
				d.name, seg.Name(), dead)
		}
		if dest == dead || dest < 0 || dest >= len(r.clients) {
			return fmt.Errorf("graph %q: failover: segment %q hinted to unusable node %d", d.name, seg.Name(), dest)
		}
		if err := r.replaceable(si, false); err != nil {
			return err
		}
		dests[si] = dest
	}
	return r.execute(dests, false)
}
