package graph

import (
	"fmt"
	"maps"
	"slices"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/typespec"
)

// This file is the one entry for every change to a running flow, on either
// target: Rebalance's and FailOver's moves and Edit's ops are deltas staged
// into one txn.  Each op validates itself against the declaration the ops
// before it left and rewrites it; the declaration is re-planned; then the
// host applies the delta.  The shard host quiesces the pipelines the delta
// affects at a pump-cycle boundary (an interrupted blocked push
// force-completes into its destination queue; the group clock is held
// throughout), commits while they are parked, recomposes them over the same
// stages, tees and cuts, and resumes; every other pipeline runs on.  The node
// host moves each segment on its own (replace.go).  A failure before the
// host commits rolls the declaration back; one after it winds the
// deployment down and is latched for Err/Wait.

// yield is nil except in this package's tests (export_test.go), which point
// it at a function that gives the CPU away for a few milliseconds.  It runs
// where an external action is half done — between two Detach calls in
// quiesce, and between two pipelines' deliveries of a Start broadcast — so
// what a loaded host does to a controller now and then happens every time.
var yield func()

// txn is one reconfiguration transaction.
type txn struct {
	d         *Deployment
	g         *Graph
	verb      string // "rebalance", "failover" or "edit": the voice of the txn's errors
	lost      bool   // the moves leave a slot that died (FailOver)
	committed bool   // the host is past the point of no return

	// Declaration-layer snapshot plus the undo log for node fields the ops
	// changed in place.
	nodes []*node
	edges []core.GraphEdgeInfo
	index map[string]*node
	undo  []func()

	// Deltas staged by the ops.
	moves     map[string]int        // segment name -> slot
	newStages map[string]core.Stage // nodes gaining a (new) live instance
	attaches  []attachRec
	detaches  []*detachRec
	scales    []*scaleRec
	rebinds   []RebindTenant

	// The re-planned state the host installs.
	plan   *core.GraphPlan
	slotOf []int
	segOut []typespec.Typespec
}

// reconfigure runs ops as one transaction against the live deployment;
// concurrent calls serialize on rbMu.  Tenant retunes alone need no quiesce.
func (d *Deployment) reconfigure(verb string, ops []EditOp) (err error) {
	d.rbMu.Lock()
	defer d.rbMu.Unlock()
	g := d.host.graph()
	t := &txn{d: d, g: g, verb: verb,
		nodes:     slices.Clone(g.nodes),
		edges:     slices.Clone(g.edges),
		index:     maps.Clone(g.index),
		moves:     make(map[string]int),
		newStages: make(map[string]core.Stage),
	}
	defer func() {
		if err != nil && !t.committed {
			t.rollback()
		}
	}()
	for _, op := range ops {
		if err := op.stage(t); err != nil {
			return err
		}
	}
	if len(t.rebinds) == len(ops) {
		return d.host.rebind(t.rebinds)
	}
	if err := t.replan(); err != nil {
		return err
	}
	return d.host.apply(t)
}

// errf renders a refusal in the transaction's voice.
func (t *txn) errf(format string, args ...any) error {
	return fmt.Errorf("graph %q: %s: "+format, append([]any{t.d.name, t.verb}, args...)...)
}

// declare adds a plain stage node under its own, so far unused, name.
func (t *txn) declare(st core.Stage, place int) (string, error) {
	_, comp := st.IsComponent()
	_, buf := st.IsBuffer()
	_, pump := st.IsPump()
	if !comp && !buf && !pump {
		return "", t.errf("zero-valued stage")
	}
	g, name := t.g, st.Name()
	if _, dup := g.index[name]; dup {
		return "", t.errf("stage name %q already in the graph", name)
	}
	n := &node{name: name, kind: nStage, stage: st, place: place}
	g.nodes = append(g.nodes, n)
	g.index[name] = n
	t.newStages[name] = st
	return name, nil
}

// rollback undoes every declaration change the ops staged.
func (t *txn) rollback() {
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i]()
	}
	t.g.nodes, t.g.edges, t.g.index = t.nodes, t.edges, t.index
}

// replan plans the staged declaration and maps the plan-indexed state onto
// it by segment name: ops never rename a segment they do not scale, so a
// name match keeps its slot and out-spec.  New segments take their hint or
// inherit across their tee, then the staged moves and scale pins apply.
func (t *txn) replan() error {
	plan, err := core.PlanGraph(t.g.infos(), t.g.edges)
	if err != nil {
		return t.errf("%w", err)
	}
	old, slotOf, segOut := t.d.host.wired()
	t.slotOf = make([]int, len(plan.Segments))
	t.segOut = make([]typespec.Typespec, len(plan.Segments))
	for i, seg := range plan.Segments {
		t.slotOf[i] = -1
		if oi := segmentIndex(old, seg.Name()); oi >= 0 {
			t.slotOf[i], t.segOut[i] = slotOf[oi], segOut[oi]
		}
		if slot, ok := t.moves[seg.Name()]; ok {
			t.slotOf[i] = slot
		}
	}
	placeUnresolved(plan, t.slotOf, func() int { return 0 })
	pinScalePlacements(plan, t.slotOf, t.scales)
	t.plan = plan
	return nil
}

// segmentIndex returns the index of the named segment in plan, -1 for none.
func segmentIndex(plan *core.GraphPlan, name string) int {
	return slices.IndexFunc(plan.Segments, func(s *core.GraphSegment) bool { return s.Name() == name })
}

// movable validates moving the named segment to slot: the segment is
// known, the slot in range, and the host lets the segment move.
func (d *Deployment) movable(name string, slot int, live bool) error {
	plan, _, _ := d.host.wired()
	si := segmentIndex(plan, name)
	switch n := d.host.slots(); {
	case si < 0:
		return fmt.Errorf("graph %q: hint for unknown segment %q", d.name, name)
	case slot < 0 || slot >= n:
		return fmt.Errorf("graph %q: segment %q hinted to slot %d, the target has %d", d.name, name, slot, n)
	}
	return d.host.movable(si, live)
}

// moveOp is Rebalance's delta: segment name to destination slot.
type moveOp map[string]int

func (op moveOp) stage(t *txn) error {
	if err := t.d.host.movable(-1, true); err != nil {
		return err
	}
	for _, name := range slices.Sorted(maps.Keys(op)) {
		if err := t.d.movable(name, op[name], true); err != nil {
			return err
		}
	}
	maps.Copy(t.moves, op)
	return nil
}

// failOp is FailOver's delta: every segment on the dead slot, to its hinted
// survivor.
type failOp struct {
	dead  int
	hints map[string]int
}

func (op failOp) stage(t *txn) error {
	if err := t.d.host.movable(-1, false); err != nil {
		return err
	}
	if n := t.d.host.slots(); op.dead < 0 || op.dead >= n {
		return t.errf("node %d is not among the target's %d", op.dead, n)
	}
	plan, slotOf, _ := t.d.host.wired()
	for si, seg := range plan.Segments {
		if slotOf[si] != op.dead {
			continue
		}
		dest, ok := op.hints[seg.Name()]
		if !ok {
			return t.errf("no destination for segment %q on dead node %d", seg.Name(), op.dead)
		}
		if dest == op.dead {
			return t.errf("segment %q hinted back to its dead node %d", seg.Name(), op.dead)
		}
		if err := t.d.movable(seg.Name(), dest, false); err != nil {
			return err
		}
		t.moves[seg.Name()] = dest
	}
	t.lost = true
	return nil
}

// apply runs a replanned transaction on the shard host: it checks the
// staged stage set's event capabilities, then quiesces the affected set,
// commits and resumes as one external action — while part of the flow is
// parked the group clock must not move, or the rest would tick ahead.
func (ld *localDeploy) apply(t *txn) error {
	if len(t.rebinds) > 0 && ld.tenant == nil {
		return ErrNoTenant
	}
	if err := ld.checkEvents(t.g, t.newStages); err != nil {
		return t.errf("%w", err)
	}
	var err error
	ld.external(func() {
		if err = ld.quiesce(t); err != nil {
			return
		}
		t.committed = true
		err = ld.resume(t, ld.commit(t))
	})
	return err
}

// affected names the pipelines the transaction replaces: each segment it
// moves, edits, scales, renames or drops, every segment downstream of an
// edited or new one (the Typespec entering it may change, and only a
// recompose checks it), and the trunk of a split whose ports change.  The
// rest runs on: a tee port's buffer and a cut's are read and filled from any
// shard, and a full one parks a pushing upstream.
func (ld *localDeploy) affected(t *txn) map[string]bool {
	np, ns := t.plan, t.slotOf
	kept, reseeded := make(map[string]bool), make([]bool, len(np.Segments))
	for _, si := range np.Order {
		seg := np.Segments[si]
		oi := segmentIndex(ld.plan, seg.Name())
		reseeded[si] = oi < 0 || slices.ContainsFunc(np.Upstream(si), func(u int) bool { return reseeded[u] })
		if reseeded[si] {
			continue
		}
		was, h, tl := ld.plan.Segments[oi], seg.Head, seg.Tail
		reseeded[si] = !slices.Equal(seg.Stages, was.Stages) || h != was.Head || tl != was.Tail ||
			slices.ContainsFunc(seg.Stages, func(n string) bool { _, ok := t.newStages[n]; return ok })
		switch {
		case reseeded[si], ns[si] != ld.slotOf[oi],
			tl.Kind == core.EndSplitTrunk && slices.ContainsFunc(t.attaches, func(a attachRec) bool { return a.tee.Name() == tl.Node }),
			tl.Kind == core.EndSplitTrunk && slices.ContainsFunc(t.detaches, func(d *detachRec) bool { return d.tee.Name() == tl.Node }):
		default:
			kept[seg.Name()] = true
		}
	}
	set := make(map[string]bool)
	for _, seg := range ld.plan.Segments {
		set[ld.name+"/"+seg.Name()] = !kept[seg.Name()]
	}
	return set
}

// quiesce parks the affected set: it refuses a finished deployment, a failed
// pipeline anywhere and a coroutine-threaded one in the set, opens the
// window, detaches the set's running pipelines and waits for their threads.
func (ld *localDeploy) quiesce(t *txn) error {
	d, affected := ld.d, ld.affected(t)
	var old []*core.Pipeline
	if _, _, err := d.open(func() error {
		if ld.finished {
			return ErrDeploymentDone
		}
		for _, p := range ld.pipelines {
			if perr := p.Err(); perr != nil {
				// A failed pipeline has already dropped its in-flight item
				// and broadcast a stop; recomposing over it would erase the
				// evidence.
				return fmt.Errorf("graph %q: %s refused, pipeline %s failed: %w", d.name, t.verb, p.Name(), perr)
			}
			if affected[p.Name()] && !p.ReachedEOS() {
				old = append(old, p)
			}
		}
		if i := slices.IndexFunc(old, hasCoroutines); i >= 0 {
			return fmt.Errorf("%w (%s)", ErrNotMigratable, old[i].Name())
		}
		return nil
	}); err != nil {
		return err
	}

	for _, p := range old {
		p.Detach()
		if yield != nil {
			yield()
		}
	}
	for _, p := range old {
		<-p.Done()
	}
	// A pipeline that FAILED during the detach lost its in-flight item:
	// abort, and the old generation stays registered for Err/Wait.
	for _, p := range old {
		if perr := p.Err(); perr != nil {
			d.close()
			ld.seal()
			ld.broadcast(events.Stop)
			return fmt.Errorf("graph %q: %s aborted, pipeline %s failed: %w", d.name, t.verb, p.Name(), perr)
		}
	}
	return nil
}

// commit applies the staged deltas while the affected set is parked: tee
// port surgery, the stage table, the plan swap, then the recomposition.
func (ld *localDeploy) commit(t *txn) error {
	for _, a := range t.attaches {
		if got := a.tee.AddOut(); got != a.port {
			return t.errf("split %q port drift (declared %d, instance %d)", a.tee.Name(), a.port, got)
		}
	}
	maps.Copy(ld.stages, t.newStages)
	for _, dr := range t.detaches {
		if err := dr.tee.DetachOut(dr.port); err != nil {
			return t.errf("%w", err)
		}
		for _, name := range dr.stageNames {
			delete(ld.stages, name)
		}
	}
	for _, sr := range t.scales {
		// The new tee pair goes on the books; its lanes are new names, so
		// nothing is linked yet.
		ld.splits[sr.splitName] = sr.tee
		ld.merges[sr.mergeName] = sr.om
		ld.mergeInSpec[sr.mergeName] = make([]typespec.Typespec, sr.replicas)
	}

	// Swap the plan.  Segment names that vanish with it (a detached branch;
	// the trunk and tail a scale renamed) leave the books, their counters
	// folded into the ledger.
	ld.d.mu.Lock()
	for _, dr := range t.detaches {
		dr.pipe = ld.pipes[ld.name+"/"+dr.segName]
	}
	old := ld.plan
	ld.plan, ld.slotOf, ld.segOutSpec = t.plan, t.slotOf, t.segOut
	ld.d.mu.Unlock()
	for _, seg := range old.Segments {
		if segmentIndex(ld.plan, seg.Name()) < 0 {
			ld.forget(ld.name + "/" + seg.Name())
		}
	}

	if err := ld.redeploy(); err != nil {
		return err
	}
	return ld.drainDetached(t.detaches)
}

// resume ends the transaction: it closes the window and watches the
// generation now on the books.  A failed commit is latched and winds the
// deployment down — never resume a stream that silently lost structure —
// otherwise tenant rebinds apply and the Start/Stop requests re-broadcast
// to the new generation.
func (ld *localDeploy) resume(t *txn, err error) error {
	if err != nil {
		ld.d.latch(t.errf("%w", err))
	}
	started, stopReq := ld.d.close()
	ld.seal()
	if err != nil {
		ld.broadcast(events.Stop)
		return ld.d.Err()
	}
	if err := ld.applyRebinds(t.rebinds); err != nil {
		return err
	}
	if started {
		ld.broadcast(events.Start)
	}
	if stopReq {
		ld.broadcast(events.Stop)
	}
	return nil
}

// hasCoroutines reports whether any component placement of the pipeline
// needs a coroutine thread (the quiesce parks pump threads at cycle
// boundaries; coroutine rendezvous state cannot be carried across yet).
func hasCoroutines(p *core.Pipeline) bool {
	coroutine := func(pl core.Placement) bool { return !pl.Direct }
	return slices.ContainsFunc(p.Plan().Sections, func(s core.SectionPlan) bool {
		return slices.ContainsFunc(s.Upstream, coroutine) || slices.ContainsFunc(s.Downstream, coroutine)
	})
}
