package graph

import (
	"fmt"
	"maps"
	"slices"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/typespec"
)

// This file is the one reconfiguration engine of local deployments.  Every
// change to a running flow — Rebalance's segment moves, Edit's structural
// ops, ScaleStage — is a delta staged into one txn, and reconfigure runs
// the txn through the same five steps:
//
//  1. stage: each op validates itself against the declaration as left by
//     the ops before it and rewrites the declaration layer,
//  2. replan: the edited declaration is re-planned, the event capabilities
//     re-checked, and placement remapped onto the new plan by segment name,
//  3. quiesce: every pipeline detaches at a pump-cycle boundary (an
//     interrupted blocked push force-completes into its destination queue,
//     which survives; the group's virtual clock is held from here to the
//     end of step 5),
//  4. commit: tee ports, stage table and plan are swapped while everything
//     is parked, and the graph recomposes over the same stage instances
//     and boundary links,
//  5. resume: the generation watcher restarts and Start/Stop re-broadcast.
//
// A failure in steps 1–3 rolls the declaration layer back and the running
// flow never notices the attempt.  A failure in step 4 is past the point of
// no return: the deployment winds down like a failed deploy and the error
// is latched for Err/Wait.

// yield is nil except in this package's tests (export_test.go), which point
// it at a function that gives the CPU away for a few milliseconds.  It runs
// where an external action is half done — between two Detach calls in
// quiesce, and between two pipelines' deliveries of a Start broadcast (see
// localDeploy.compose) — so that what a loaded multi-core host does to a
// controller goroutine now and then happens every time, on one core.
var yield func()

// txn is one reconfiguration transaction.
type txn struct {
	d    *Deployment
	ld   *localDeploy
	verb string // "rebalance" or "edit": the voice of the txn's errors

	// Declaration-layer snapshot plus the undo log for node fields the ops
	// changed in place.
	nodes []*node
	edges []core.GraphEdgeInfo
	index map[string]*node
	undo  []func()

	// Deltas staged by the ops.
	moves     map[string]int        // segment name -> shard
	newStages map[string]core.Stage // nodes gaining a (new) live instance
	attaches  []attachRec
	detaches  []*detachRec
	scales    []*scaleRec
	rebinds   []RebindTenant

	// The re-planned state commit installs.
	plan    *core.GraphPlan
	shardOf []int
	segOut  []typespec.Typespec
}

// reconfigure runs ops as one transaction against the live deployment.  It
// is the only code that quiesces a local deployment; concurrent calls
// serialize on rbMu, and a Stop that races one is applied when it resumes.
func (d *Deployment) reconfigure(verb string, ops []EditOp) error {
	d.rbMu.Lock()
	defer d.rbMu.Unlock()
	g := d.ld.g
	t := &txn{d: d, ld: d.ld, verb: verb,
		nodes:     append([]*node(nil), g.nodes...),
		edges:     append([]core.GraphEdgeInfo(nil), g.edges...),
		index:     maps.Clone(g.index),
		moves:     make(map[string]int),
		newStages: make(map[string]core.Stage),
	}
	committed := false
	defer func() {
		if !committed {
			t.rollback()
		}
	}()
	for _, op := range ops {
		if err := op.stage(t); err != nil {
			return err
		}
	}
	if err := t.replan(); err != nil {
		return err
	}
	// From the first Detach to the last re-broadcast Start the flow is half
	// parked: the group clock must not move, or the pipelines still (or
	// already) running would tick ahead of the parked ones.
	var err error
	d.External(func() {
		if err = t.quiesce(); err != nil {
			return
		}
		committed = true
		err = t.resume(t.commit())
	})
	return err
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
	g, name := t.ld.g, st.Name()
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
	g := t.ld.g
	g.nodes, g.edges, g.index = t.nodes, t.edges, t.index
}

// replan plans the staged declaration and maps the plan-indexed deployment
// state onto it by segment name.  Ops never rename surviving segments they
// do not scale (an insert lands strictly between a segment's first and last
// stage; a swap keeps the node name), so a name match means "same segment,
// keep its shard and out-spec".  New segments take their hint or inherit
// across their tee, then the staged moves and scale pins apply.
func (t *txn) replan() error {
	ld, g := t.ld, t.ld.g
	plan, err := core.PlanGraph(g.infos(), g.edges)
	if err != nil {
		return t.errf("%w", err)
	}
	all := make([]core.Stage, 0, len(g.nodes))
	for _, n := range g.nodes {
		if n.kind != nStage {
			continue
		}
		if st, ok := t.newStages[n.name]; ok {
			all = append(all, st)
		} else {
			all = append(all, ld.stages[n.name])
		}
	}
	if err := core.CheckEventCapabilities(all); err != nil {
		return t.errf("%w", err)
	}

	t.shardOf = make([]int, len(plan.Segments))
	t.segOut = make([]typespec.Typespec, len(plan.Segments))
	for i, seg := range plan.Segments {
		t.shardOf[i] = -1
		if oi := ld.segment(seg.Name()); oi >= 0 {
			t.shardOf[i] = ld.slotOf[oi]
			t.segOut[i] = ld.segOutSpec[oi]
		}
	}
	placeUnresolved(plan, t.shardOf, func() int { return 0 })
	for i, seg := range plan.Segments {
		if sh, ok := t.moves[seg.Name()]; ok {
			t.shardOf[i] = sh
		}
	}
	pinScalePlacements(plan, t.shardOf, t.scales)
	t.plan = plan
	return nil
}

// quiesce parks the whole deployment: it refuses finished, failed and
// coroutine-threaded deployments, opens the rebalancing window (Start/Stop
// defer, the generation watcher stands down), detaches every pipeline of
// the old generation and waits for its threads to exit.  The shard pins
// taken at deploy keep every scheduler alive through the window.
func (t *txn) quiesce() error {
	d := t.d
	d.mu.Lock()
	if d.finished {
		d.mu.Unlock()
		return ErrDeploymentDone
	}
	for _, p := range d.pipelines {
		if perr := p.Err(); perr != nil {
			// A failed pipeline has already dropped its in-flight item and
			// broadcast a stop; recomposing over it would erase the evidence.
			d.mu.Unlock()
			return fmt.Errorf("graph %q: %s refused, pipeline %s failed: %w", d.name, t.verb, p.Name(), perr)
		}
		if !p.ReachedEOS() && hasCoroutines(p) {
			d.mu.Unlock()
			return fmt.Errorf("%w (%s)", ErrNotMigratable, p.Name())
		}
	}
	d.rebalancing = true
	d.gen++
	old := append([]*core.Pipeline(nil), d.pipelines...)
	d.mu.Unlock()

	for _, p := range old {
		p.Detach()
		if yield != nil {
			yield()
		}
	}
	for _, p := range old {
		<-p.Done()
	}
	// A pipeline that FAILED during the detach (rather than parking cleanly)
	// lost its in-flight item: resuming would silently drop data.  Abort —
	// the old generation stays registered, so Err/Wait keep reporting the
	// failure.
	for _, p := range old {
		if perr := p.Err(); perr != nil {
			t.reopen(nil)
			d.abandon()
			return fmt.Errorf("graph %q: %s aborted, pipeline %s failed: %w", d.name, t.verb, p.Name(), perr)
		}
	}
	return nil
}

// commit applies the staged deltas while everything is parked: tee port
// surgery, the stage table, the plan swap, then the recomposition.
func (t *txn) commit() error {
	ld, d := t.ld, t.d
	for _, a := range t.attaches {
		if got := ld.splits[a.split].(outAdder).AddOut(); got != a.port {
			return t.errf("split %q port drift (declared %d, instance %d)", a.split, a.port, got)
		}
	}
	maps.Copy(ld.stages, t.newStages)
	for _, dr := range t.detaches {
		if err := ld.splits[dr.split].(outDetacher).DetachOut(dr.port); err != nil {
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
	// the trunk and tail a scale renamed) leave the books: their counters
	// fold into the retired stats before redeploy composes the new names
	// over the same stage instances.
	live := make(map[string]bool, len(t.plan.Segments))
	for _, seg := range t.plan.Segments {
		live[seg.Name()] = true
	}
	d.mu.Lock()
	for _, dr := range t.detaches {
		dr.pipe = ld.pipes[ld.name+"/"+dr.segName]
	}
	old := ld.plan
	ld.plan, ld.slotOf, ld.segOutSpec = t.plan, t.shardOf, t.segOut
	d.mu.Unlock()
	for _, seg := range old.Segments {
		if !live[seg.Name()] {
			ld.forget(ld.name + "/" + seg.Name())
		}
	}

	if err := ld.redeploy(); err != nil {
		return err
	}
	return ld.drainDetached(t.detaches)
}

// reopen closes the rebalancing window: err (a failed commit) is latched
// for Err/Wait, and a watcher starts for the generation now on the books.
func (t *txn) reopen(err error) (started, stopReq bool) {
	d := t.d
	d.mu.Lock()
	d.rebalancing = false
	started, stopReq = d.started, d.stopReq
	if err != nil && d.deployErr == nil {
		d.deployErr = fmt.Errorf("graph %q: %s: %w", d.name, t.verb, err)
	}
	d.mu.Unlock()
	d.seal()
	return started, stopReq
}

// resume ends the transaction: a failed commit winds the deployment down
// and surfaces the error — never resume a stream that silently lost
// structure — otherwise tenant rebinds apply and the Start/Stop requests
// seen so far re-broadcast to the recomposed generation.
func (t *txn) resume(err error) error {
	d := t.d
	started, stopReq := t.reopen(err)
	if err != nil {
		d.abandon()
		return d.Err()
	}
	if err := t.ld.applyRebinds(t.rebinds); err != nil {
		return err
	}
	if started {
		d.broadcast(events.Start)
	}
	if stopReq {
		d.broadcast(events.Stop)
	}
	return nil
}

// abandon winds a dead deployment down: stop whatever is composed AND close
// every link — one whose receiver never composed would hold its receiving
// scheduler's external-source reference forever.
func (d *Deployment) abandon() {
	d.broadcast(events.Stop)
	for _, l := range d.Links() {
		l.Close()
	}
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
