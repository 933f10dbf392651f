package graph

import (
	"errors"
	"fmt"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/remote"
)

// ErrNotReplaceable marks a segment the node host cannot move: its stream
// position lives in it (a source), a shared tee instance lives in it (split
// trunks, merge downstreams), one of its boundaries is not a redialable
// cluster lane (deploy WithClusterLanes), or it buffers items while its
// inbound lane self-acks (a replay would lose the buffered items).  Merged
// flows move like any other: their lanes journal per origin.
var ErrNotReplaceable = errors.New("graph: segment cannot be re-placed")

var errNotRedialable = fmt.Errorf("%w: deployment lanes are not redialable (deploy with WithClusterLanes)",
	ErrNotReplaceable)

// Replaceable reports whether Rebalance can move the named segment, and why
// not otherwise.  It waits for a move in flight.
func (d *Deployment) Replaceable(segment string) error {
	d.rbMu.Lock()
	defer d.rbMu.Unlock()
	if err := d.host.movable(-1, true); err != nil {
		return err
	}
	return d.movable(segment, 0, true)
}

// FailOver moves every segment hosted on a dead node onto the hinted
// survivors — Rebalance's disaster path, driven by elastic.Cluster.  The
// dead node is never contacted: peers hold parked, redialable lane halves,
// and the upstream durable journals carry every item the chain below the
// dead segments had not consumed.  hints must cover every segment on the
// dead node; one that hosts a tee (its relays died with it) fails the call.
// On error the failed segment's placement reverts to the dead node and
// nothing is latched: the caller may retry other survivors, and only it
// knows when to give up (Fail).  Shards do not die: a group answers
// ErrNotRebalancable.
func (d *Deployment) FailOver(dead int, hints map[string]int) error {
	return d.reconfigure("failover", []EditOp{failOp{dead, hints}})
}

// apply runs a replanned transaction on the node host: every segment whose
// node changed moves on its own (see move), downstream-first — plan
// segments are indexed in topological order, so a co-placed chain's
// upstream segment dials a downstream lane already re-bound at its
// destination.  A move leaves the declaration as it is.
func (r *remoteDeployment) apply(t *txn) (err error) {
	t.committed = true
	started, stopReq, _ := r.d.open(nil)
	for si := len(t.slotOf) - 1; si >= 0 && err == nil; si-- {
		if t.slotOf[si] != r.slotOf[si] {
			err = r.move(si, t.slotOf[si], started, !t.lost)
		}
	}
	if err == nil && len(t.rebinds) > 0 {
		err = r.rebind(t.rebinds)
	}
	// A Start or Stop asked for while the window was open reaches every
	// node now.
	nowStarted, nowStopped := r.d.close()
	if nowStarted && !started {
		r.broadcast(events.Start)
	}
	if nowStopped && !stopReq {
		r.broadcast(events.Stop)
	}
	return err
}

// movable checks the movability contract of segment si: every boundary is
// a redialable durable lane (or absent, for sinks) — the upstream journal
// carries the in-flight items through the move — a self-acking inbound
// lane needs a single-pump segment (so its ack anchor proves consumption —
// see netpipe's laneRx.pop), and neither stream position (sources) nor a
// merge tee lives in the segment.  Split trunks move on the live path only:
// the tee drains on the still-running old node and is rebuilt from its
// spec on the destination (see move); a dead node cannot drain.
func (r *remoteDeployment) movable(si int, live bool) error {
	if !r.opt.ClusterLanes {
		return errNotRedialable
	}
	if si < 0 {
		return nil
	}
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
	}
	// A self-acking inbound listener anchors its acks one pop behind the
	// FIRST pump: in a buffered segment it would acknowledge items still
	// queued inside, and a replay after the move would lose them.
	if r.chainLane(si) == "" && r.segSections[si] > 1 {
		return refuse("buffers items internally (its self-acking inbound lane cannot prove end-of-segment consumption)")
	}
	switch t := seg.Tail; {
	case t.Kind == core.EndSplitTrunk:
		if !live {
			return refuse("hosts the split tee %q (its relay journals died with the node)", t.Node)
		}
		// The upstream journal replays its unacked tail through a FRESH tee,
		// so routing must be a pure function of the item: round-robin state
		// would re-route the overlap onto a branch whose dedup cannot absorb
		// it.
		n := r.g.index[t.Node]
		if n.spec.Kind == "route" {
			if sel := n.spec.Params["sel"]; sel == "" || sel == "rr" {
				return refuse("hosts split %q with stateful round-robin routing (a rebuilt tee would re-route the replayed overlap)", t.Node)
			}
		}
		// A branch wired directly pulls the tee instance itself, and that
		// reference cannot follow the tee to another node.
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

// move moves segment si to node dest over the extended §2.4 protocol: it
// detaches the segment on its old node, drops the old node's halves of its
// lanes (senders close WITHOUT an EOS frame, so the resumable listeners
// below park), places it on dest the way the deploy did, and redials the
// stationary upstream sender, whose journal replays into the dedup
// watermarks below: exactly-once at the boundary.  A dead old node (!oldUp)
// is never contacted.  A trunk first drains its tee through its relays
// (drainTee); on dest they recompose from the tee's spec.  A failure after
// a live detach leaves the segment on neither node: it is latched and the
// graph stopped.
func (r *remoteDeployment) move(si, dest int, started, oldUp bool) error {
	seg := r.plan.Segments[si]
	old := r.slotOf[si]
	pipeName := r.name + "/" + seg.Name()
	stepErr := func(step string, err error) error {
		return fmt.Errorf("graph %q: move %q: %s: %w", r.name, seg.Name(), step, err)
	}
	latch := func(err error) error {
		if oldUp {
			r.d.fail(fmt.Errorf("graph %q: move %q failed, deployment stopped: %w", r.name, seg.Name(), err))
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
				err := fmt.Errorf("graph %q: move %q: split %q never drained (a branch is not consuming)",
					r.name, seg.Name(), teeName)
				if rerr := r.place(si); rerr != nil {
					return latch(err)
				}
				if started {
					_ = c.Start(pipeName)
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

	// The segment's node flips and its inbound listener is unbound, so place
	// binds a fresh one, composes the segment and dials the stationary lanes
	// below it.  A trunk's relays compose first: their tee factory rebuilds
	// the tee on dest, and the trunk attaches to that instance.
	r.d.mu.Lock()
	r.slotOf[si] = dest
	r.d.mu.Unlock()
	if inLane != "" {
		r.links[inLane] = nodeLink{}
	}
	var err error
	for port := range relayLanes {
		if err = r.relay(core.SegmentEnd{Kind: core.EndSplitOut, Node: teeName, Port: port}, dest, r.segOutSpec[si]); err != nil {
			break
		}
	}
	if err == nil {
		err = r.place(si)
	}
	if err != nil {
		r.d.mu.Lock()
		r.slotOf[si] = old
		r.d.mu.Unlock()
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
		_ = r.clients[dest].Start(pipeName) // its deployment there: the relays too
	}
	return nil
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
// its relays: the still-running relays pump the tee's out-port buffers into
// the branch lanes, and the node answers the drained probe once every item
// that entered the tee is on a branch listener's side of the wire (see
// nodeState.drained), asked up to drainCalls times.  It reports false,
// relays untouched, when the tee never drains.  Otherwise the relays detach
// at a pump-cycle boundary and the probe asks once more: a straggler the
// last answer caught between a buffer pop and a journal append shows here.
func drainTee(c *remote.Client, teeKey string, lanes []string) (bool, error) {
	probe := remote.LaneRequest{Kind: remote.LaneDrained, Tee: teeKey, Lanes: lanes}
	rep, err := c.Lane(probe)
	for call := 1; err == nil && !rep.Drained && call < drainCalls; call++ {
		rep, err = c.Lane(probe)
	}
	if err != nil || !rep.Drained {
		return false, err
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
