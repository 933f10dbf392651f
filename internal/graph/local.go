package graph

import (
	"errors"
	"fmt"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/pipes"
	"infopipes/internal/qos"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// SchedulerTarget deploys every segment onto one scheduler: the whole graph
// in-process, joined through the tees' internal buffers (and same-scheduler
// links at cut edges).  Placement hints are ignored — a single scheduler
// collapses the placement dimension entirely.
type SchedulerTarget struct {
	Sched *uthread.Scheduler
	// Bus is the shared event service (nil for a deployment-private bus).
	Bus *events.Bus
	// LinkDepth bounds the cut-edge links (0 = the link default).
	LinkDepth int
	// Tenant binds the deployment to a QoS tenant (nil = default tenant:
	// today's scheduling and admission behavior, byte for byte).  See
	// WithTenant.
	Tenant *qos.Tenant
}

// OnScheduler targets a single scheduler.
func OnScheduler(s *uthread.Scheduler) *SchedulerTarget {
	return &SchedulerTarget{Sched: s}
}

// WithTenant binds every pipeline of the deployment to a tenant: its
// threads share the scheduler under the tenant's weight (weighted-fair run
// token grants), its true sources pass the tenant's admission control, and
// its relays pump at the tenant's priority.  Placement stays a separate,
// orthogonal policy — the same graph deploys under any tenant.
func (t *SchedulerTarget) WithTenant(tn *qos.Tenant) *SchedulerTarget {
	t.Tenant = tn
	return t
}

func (t *SchedulerTarget) deploy(g *Graph, plan *core.GraphPlan) (*Deployment, error) {
	shardOf := make([]int, len(plan.Segments))
	ld := &localDeploy{
		g: g, plan: plan, bus: t.Bus, depth: t.LinkDepth,
		shardOf: shardOf,
		schedOf: func(int) *uthread.Scheduler { return t.Sched },
		tenant:  t.Tenant,
	}
	return ld.run()
}

// GroupTarget deploys onto a SchedulerGroup: the planner places each
// segment on a shard (honoring Place hints; unhinted segments stay with
// their tee-adjacent neighbours, and free-standing ones follow the group's
// placement policy) and joins segments that land on different shards with
// auto-inserted shard links plus relay pipelines at tee boundaries.
//
// Group deployments are rebalancable: Deployment.Rebalance re-places
// segments on the live group mid-stream (the deployment pins every shard
// with an external-source reference until it finishes, so shards stay
// available as migration targets even while empty).
type GroupTarget struct {
	Group *shard.Group
	// Bus is the shared event service (nil for a deployment-private bus).
	Bus *events.Bus
	// LinkDepth bounds the auto-inserted links (0 = the link default).
	LinkDepth int
	// Tenant binds the deployment to a QoS tenant (nil = default tenant).
	// See SchedulerTarget.WithTenant.
	Tenant *qos.Tenant
}

// OnGroup targets a sharded runtime.
func OnGroup(gr *shard.Group) *GroupTarget {
	return &GroupTarget{Group: gr}
}

// WithTenant binds every pipeline of the deployment to a tenant (one
// weighted-fair class per shard the tenant touches).  See
// SchedulerTarget.WithTenant.
func (t *GroupTarget) WithTenant(tn *qos.Tenant) *GroupTarget {
	t.Tenant = tn
	return t
}

// ErrGroupExited marks a deploy onto a group whose shards have already
// returned from Run — a group started while still empty exits at once.
// Deploy first, then start the group.
var ErrGroupExited = errors.New("graph: group has already exited (deploy before Group.Start)")

func (t *GroupTarget) deploy(g *Graph, plan *core.GraphPlan) (*Deployment, error) {
	if t.Group.Exited() {
		return nil, fmt.Errorf("graph %q: %w", g.name, ErrGroupExited)
	}
	// The placement policy decides free-standing chains only; accounting
	// happens per composed pipeline (placeAt/release in compose below), so
	// undo Place's own bookkeeping right away.
	fromPolicy := func() int {
		idx := t.Group.Place()
		t.Group.Release(idx)
		return idx
	}
	shardOf, err := resolvePlacement(g, plan, t.Group.Shards(), "shard", fromPolicy)
	if err != nil {
		return nil, err
	}
	ld := &localDeploy{
		g: g, plan: plan, bus: t.Bus, depth: t.LinkDepth,
		group:   t.Group,
		shardOf: shardOf,
		schedOf: t.Group.Scheduler,
		placeAt: t.Group.PlaceAt,
		release: t.Group.Release,
		tenant:  t.Tenant,
	}
	d, err := ld.run()
	if err != nil {
		return nil, err
	}
	// Pin every shard for the deployment's lifetime: an empty shard's Run
	// would otherwise return (no threads, no external sources) and a later
	// Rebalance could never migrate a segment onto it.  Released in
	// maybeFinish.
	n := t.Group.Shards()
	for i := 0; i < n; i++ {
		t.Group.Scheduler(i).AddExternalSource()
	}
	d.unpin = func() {
		for i := 0; i < n; i++ {
			t.Group.Scheduler(i).ReleaseExternalSource()
		}
	}
	return d, nil
}

// localDeploy composes one pipeline per segment on the schedulers the
// placement chose, wiring tee ports directly where segments are
// co-scheduled and inserting shard links (plus relay pipelines at tee
// boundaries) where they are not.  The structure is retained on the
// Deployment: Rebalance re-runs the composition with a new placement,
// reusing the materialized stages and the boundary links (whose queues
// carry the in-flight items across the migration).
type localDeploy struct {
	g       *Graph
	plan    *core.GraphPlan
	bus     *events.Bus
	depth   int
	group   *shard.Group // nil on a single scheduler
	shardOf []int
	schedOf func(i int) *uthread.Scheduler
	// placeAt/release are the group's load accounting, nil on a single
	// scheduler; every composed pipeline (relays included) counts.
	placeAt func(i int)
	release func(i int)
	// tenant is the deployment's QoS binding (nil = default tenant).  One
	// weighted-fair SchedClass is created lazily per shard the tenant's
	// pipelines touch — a class binds to exactly one scheduler, and the
	// per-shard instances keep each shard's virtual clock independent (a
	// tenant's trace on shard k must not depend on its siblings).
	tenant  *qos.Tenant
	classes map[int]*uthread.SchedClass

	stages map[string]core.Stage
	splits map[string]core.SplitPoint
	merges map[string]core.MergePoint

	d *Deployment
	// segOutSpec[i] is the Typespec of the flow leaving segment i's last
	// declared stage (entering its tail boundary) — the seed carried into
	// the downstream segment (§2.3 checking does not stop at a tee).
	segOutSpec  []typespec.Typespec
	mergeInSpec map[string][]typespec.Typespec
	cutLinks    []*shard.Link
	// splitLinks/mergeLinks record the relay link of each tee boundary
	// (nil while the boundary is wired directly).  Once a boundary has a
	// link it keeps it across rebalances — the queue holds in-flight items
	// — even if the segments become co-scheduled again.
	splitLinks map[string][]*shard.Link
	mergeLinks map[string][]*shard.Link
	// relayPipes tracks the relay pipeline of each linked tee boundary by
	// lane name, so a rebalance can skip relays whose stream already ended.
	relayPipes map[string]*core.Pipeline
	// shardByPipe records the shard every pipeline was composed on
	// (telemetry attribution).
	shardByPipe map[*core.Pipeline]int
	// retired accumulates the pump counters of pipelines replaced by
	// rebalances, keyed by segment name (segments) or pipeline name
	// (relays), so Stats stays cumulative across generations.
	retired map[string]retiredCounts
	// retiredByShard attributes the same retired counters to the shard the
	// replaced pipeline actually RAN on — per-shard load must reflect where
	// the work happened, not where the segment lives now, or the balancer
	// would chase migrated history around the group.
	retiredByShard []retiredCounts
	// rebalance marks a transaction's re-composition pass: links are reused
	// and retargeted instead of created, finished pipelines are kept.
	rebalance bool
	// draining records detached branches still draining their tombstoned
	// tee ports, keyed by retired segment name.  A later edit quiesces
	// their drain pipelines along with everything else and redeploy drops
	// them from the books (they are off-plan), so drainDetached must keep
	// recomposing them until they reach end of stream — or the branch's
	// in-flight items and its boundary link's wake registration would be
	// stranded and the shard group never finish.
	draining map[string]*detachRec
}

// retiredCounts folds the counters of replaced pipeline generations.
type retiredCounts struct {
	items, cycles, busyNs int64
}

// foldRetired accumulates a replaced pipeline's counters under key and
// under the shard it ran on, and drops the pipeline from the placement map
// (its generation is gone; keeping the entry would pin every replaced
// pipeline in memory forever).  Takes d.mu: Stats reads these maps under
// the same lock, concurrently with a rebalance.
func (ld *localDeploy) foldRetired(key string, p *core.Pipeline) {
	ps := p.Stats()
	ld.d.mu.Lock()
	defer ld.d.mu.Unlock()
	r := ld.retired[key]
	r.items += ps.Items
	r.cycles += ps.Cycles
	r.busyNs += ps.BusyNanos
	ld.retired[key] = r
	if sh, ok := ld.shardByPipe[p]; ok && sh >= 0 && sh < len(ld.retiredByShard) {
		ld.retiredByShard[sh].items += ps.Items
		ld.retiredByShard[sh].cycles += ps.Cycles
		ld.retiredByShard[sh].busyNs += ps.BusyNanos
	}
	delete(ld.shardByPipe, p)
}

func (ld *localDeploy) run() (*Deployment, error) {
	g, plan := ld.g, ld.plan
	var err error
	ld.stages, ld.splits, ld.merges, err = g.materialize()
	if err != nil {
		return nil, err
	}
	// The §2.3 event-capability check runs graph-wide: an event emitted in
	// one segment may well be handled in another (that is what the shared
	// bus is for), so the per-pipeline check is skipped below.
	all := make([]core.Stage, 0, len(ld.stages))
	for _, n := range g.nodes {
		if n.kind == nStage {
			all = append(all, ld.stages[n.name])
		}
	}
	if err := core.CheckEventCapabilities(all); err != nil {
		return nil, fmt.Errorf("graph %q: %w", g.name, err)
	}

	if ld.bus == nil {
		ld.bus = &events.Bus{}
	}
	ld.d = newDeployment(g.name, ld.bus)
	ld.d.ld = ld
	sched0 := ld.schedOf(0)
	ld.d.now = sched0.Now
	ld.segOutSpec = make([]typespec.Typespec, len(plan.Segments))
	ld.mergeInSpec = make(map[string][]typespec.Typespec)
	for name, ports := range plan.MergeBranch {
		ld.mergeInSpec[name] = make([]typespec.Typespec, len(ports))
	}
	ld.splitLinks = make(map[string][]*shard.Link)
	for name, ports := range plan.SplitBranch {
		ld.splitLinks[name] = make([]*shard.Link, len(ports))
	}
	ld.mergeLinks = make(map[string][]*shard.Link)
	for name, ports := range plan.MergeBranch {
		ld.mergeLinks[name] = make([]*shard.Link, len(ports))
	}
	ld.relayPipes = make(map[string]*core.Pipeline)
	ld.draining = make(map[string]*detachRec)
	ld.shardByPipe = make(map[*core.Pipeline]int)
	ld.retired = make(map[string]retiredCounts)
	nShards := 1
	if ld.group != nil {
		nShards = ld.group.Shards()
	}
	ld.retiredByShard = make([]retiredCounts, nShards)
	if ld.tenant != nil {
		// One weighted-fair class per (tenant, shard): a class binds to
		// exactly one scheduler, and per-shard virtual clocks keep each
		// shard's trace independent of its siblings (the determinism harness
		// re-runs one tenant's flow at 1, 2 and 4 shards and expects
		// identical per-tenant traces).  Built for every shard up front so
		// a rebalance can move segments anywhere without mutating the map
		// Stats reads.
		ld.classes = make(map[int]*uthread.SchedClass, nShards)
		for i := 0; i < nShards; i++ {
			ld.classes[i] = uthread.NewSchedClass(ld.tenant.Name(), ld.tenant.Weight())
		}
	}
	ld.cutLinks = make([]*shard.Link, len(plan.Cuts))
	for ci, cut := range plan.Cuts {
		link := shard.NewLink(fmt.Sprintf("%s/cut%d", g.name, ci),
			ld.schedOf(ld.shardOf[cut.ToSeg]), ld.depth)
		ld.cutLinks[ci] = link
		ld.d.links = append(ld.d.links, link)
	}

	for _, si := range plan.Order {
		if err := ld.composeSegment(si); err != nil {
			// The deployment is dead: stop what already runs and close
			// every link — a link whose endpoints never composed has no
			// component left to close it, and an open link holds its
			// receiving scheduler's external-source reference forever
			// (the group could never drain).
			ld.d.broadcast(events.Stop)
			for _, l := range ld.d.links {
				l.Close()
			}
			return nil, err
		}
	}
	ld.d.seal()
	return ld.d, nil
}

// redeploy recomposes the graph for the plan and placement a transaction
// just committed; every pipeline of the previous generation is already
// detached.  Stages, tees and links are reused — their buffered state
// carries the stream across — and segments whose stream already ended are
// kept as-is instead of being recomposed.
func (ld *localDeploy) redeploy() error {
	old := make(map[string]*core.Pipeline, len(ld.d.bySegment))
	ld.d.mu.Lock()
	for name, p := range ld.d.bySegment {
		old[name] = p
	}
	ld.d.pipelines = nil
	ld.d.mu.Unlock()

	for _, si := range ld.plan.Order {
		seg := ld.plan.Segments[si]
		if p := old[seg.Name()]; p != nil && p.ReachedEOS() {
			if err := ld.keepSegment(si, p); err != nil {
				return err
			}
			continue
		}
		if p := old[seg.Name()]; p != nil {
			ld.foldRetired(seg.Name(), p)
		}
		if err := ld.composeSegment(si); err != nil {
			return err
		}
	}
	return nil
}

// keepSegment re-registers a finished segment pipeline (and the relays of
// its boundaries) in the new generation without recomposing it: its stream
// has fully ended, so placement no longer matters and recomposing it would
// replay end-of-stream into its tail.
//
// A split-head relay of a finished branch is necessarily finished too (the
// relay closes the link on its own end of stream, and the branch can only
// end after that).  A merge-tail relay sits DOWNSTREAM of the segment and
// may still be draining the link queue into the merge — it was detached
// with everything else, so it is recomposed on the merge's (possibly new)
// shard.
func (ld *localDeploy) keepSegment(si int, p *core.Pipeline) error {
	seg := ld.plan.Segments[si]
	ld.d.mu.Lock()
	ld.d.pipelines = append(ld.d.pipelines, p)
	if h := seg.Head; h.Kind == core.EndSplitOut {
		if rp := ld.relayPipes[ld.laneName(h.Node, h.Port)]; rp != nil {
			ld.d.pipelines = append(ld.d.pipelines, rp)
		}
	}
	ld.d.mu.Unlock()
	if t := seg.Tail; t.Kind == core.EndMergeIn && ld.mergeLinks[t.Node][t.Port] != nil {
		return ld.composeMergeRelay(t.Node, t.Port, ld.segOutSpec[si])
	}
	return nil
}

// composeSplitRelay (re)composes the relay pipeline that pumps a split
// out-port across its boundary link from the trunk's shard, retargeting
// the link to the branch's shard.  A relay whose stream already ended is
// kept as-is.  Mirror image of composeMergeRelay, so the relay invariants
// (EOS keep, retired fold, retarget, relayPipes registration) live in one
// place per tee direction.
func (ld *localDeploy) composeSplitRelay(node string, port, branchShard int, seed typespec.Typespec) error {
	link := ld.splitLinks[node][port]
	lane := link.Name()
	if rp := ld.relayPipes[lane]; rp != nil {
		if rp.ReachedEOS() {
			ld.d.mu.Lock()
			ld.d.pipelines = append(ld.d.pipelines, rp)
			ld.d.mu.Unlock()
			return nil
		}
		ld.foldRetired(lane+"/relay", rp)
	}
	if ld.rebalance {
		link.Retarget(ld.schedOf(branchShard))
	}
	relay := append([]core.Stage{
		core.Comp(ld.splits[node].OutPort(port)),
		core.Pmp(ld.relayPump(lane)),
	}, link.SenderStages(lane)...)
	rp, err := ld.compose(lane+"/relay", ld.shardOf[ld.plan.SplitTrunk[node]], relay, seed)
	if err != nil {
		return err
	}
	ld.relayPipes[lane] = rp
	return nil
}

// composeMergeRelay (re)composes the relay pipeline that drains a merge
// boundary link into the merge's in-port on the anchor shard, retargeting
// the link there first.  A relay whose stream already ended is kept as-is.
// seed is the Typespec of the flow entering the link (the inbound
// segment's out-spec).  Serves both composeSegment and keepSegment so the
// relay invariants (EOS keep, retired fold, retarget, relayPipes and
// mergeInSpec registration) live in one place.
func (ld *localDeploy) composeMergeRelay(node string, port int, seed typespec.Typespec) error {
	link := ld.mergeLinks[node][port]
	lane := link.Name()
	if rp := ld.relayPipes[lane]; rp != nil {
		if rp.ReachedEOS() {
			ld.d.mu.Lock()
			ld.d.pipelines = append(ld.d.pipelines, rp)
			ld.d.mu.Unlock()
			return nil
		}
		ld.foldRetired(lane+"/relay", rp)
	}
	anchor := ld.shardOf[ld.plan.MergeDown[node]]
	if ld.rebalance {
		link.Retarget(ld.schedOf(anchor))
	}
	relay := append(link.ReceiverStages(lane),
		core.Pmp(ld.relayPump(lane)),
		core.Comp(ld.merges[node].InPort(port)))
	rp, err := ld.compose(lane+"/relay", anchor, relay, seed)
	if err != nil {
		return err
	}
	ld.relayPipes[lane] = rp
	ld.mergeInSpec[node][port] = rp.SpecAt(len(relay) - 2)
	return nil
}

// laneName renders the canonical name of a tee-boundary relay lane.
func (ld *localDeploy) laneName(node string, port int) string {
	return fmt.Sprintf("%s/%s:%d", ld.g.name, node, port)
}

// classOf returns the tenant's weighted-fair class for one shard (nil
// without a tenant — the default tenant runs classless, keeping today's
// ready-queue order byte for byte).  The map is built eagerly in run() and
// immutable afterwards, so Stats can read it without racing a rebalance's
// recomposition.
func (ld *localDeploy) classOf(shardIdx int) *uthread.SchedClass {
	return ld.classes[shardIdx]
}

// relayPump builds a boundary relay's pump: free-running at the tenant's
// priority, so a lane relay stops flattening the flow's priority to normal —
// a tenant's effective priority crosses the boundary with its items.
func (ld *localDeploy) relayPump(lane string) core.Pump {
	prio := uthread.PriorityNormal
	if ld.tenant != nil {
		prio = ld.tenant.Priority()
	}
	return pipes.NewFreePumpPrio(lane+"/pump", prio)
}

func (ld *localDeploy) composeSegment(si int) error {
	g, plan, seg := ld.g, ld.plan, ld.plan.Segments[si]
	own := ld.shardOf[si]
	var stages []core.Stage
	var seed typespec.Typespec

	switch h := seg.Head; h.Kind {
	case core.EndSplitOut:
		split := ld.splits[h.Node]
		trunk := plan.SplitTrunk[h.Node]
		seed = ld.segOutSpec[trunk]
		link := ld.splitLinks[h.Node][h.Port]
		if ld.shardOf[trunk] == own && link == nil {
			stages = append(stages, core.Comp(split.OutPort(h.Port)))
		} else {
			// The branch runs on another shard (or did at some point —
			// once linked, a boundary stays linked so its queue survives):
			// relay the tee port across an auto-inserted link.  The tee's
			// buffers stay with the trunk; thread transparency is per
			// scheduler.
			lane := ld.laneName(h.Node, h.Port)
			if link == nil {
				link = shard.NewLink(lane, ld.schedOf(own), ld.depth)
				ld.splitLinks[h.Node][h.Port] = link
				ld.addLink(link)
			}
			if err := ld.composeSplitRelay(h.Node, h.Port, own, seed); err != nil {
				return err
			}
			stages = append(stages, link.ReceiverStages(lane)...)
		}
	case core.EndMergeOut:
		for port, ts := range ld.mergeInSpec[h.Node] {
			merged, err := seed.Merge(ts)
			if err != nil {
				return fmt.Errorf("graph %q: merging flows into %q: in-port %d: %w",
					g.name, h.Node, port, err)
			}
			seed = merged
		}
		stages = append(stages, core.Comp(ld.merges[h.Node].OutPort()))
	case core.EndCut:
		seed = ld.segOutSpec[plan.Cuts[h.Port].FromSeg]
		link := ld.cutLinks[h.Port]
		if ld.rebalance {
			link.Retarget(ld.schedOf(own))
		}
		stages = append(stages, link.ReceiverStages(link.Name())...)
	}

	declStart := len(stages)
	for _, name := range seg.Stages {
		stages = append(stages, ld.stages[name])
	}
	if ld.tenant != nil && seg.Head.Kind == core.EndNone {
		// Admission control gates TRUE SOURCES, before the first queue: an
		// over-rate tenant sheds (or blocks) here, where dropping is cheap,
		// instead of filling shared buffers and links downstream.  The gate
		// runs in push mode behind the segment's pump (see AdmissionIndex).
		// Boundary-headed segments carry already-admitted items and are
		// never re-gated.
		at := declStart + qos.AdmissionIndex(stages[declStart:]) + 1
		gate := core.Comp(qos.NewAdmission(g.name+"/"+seg.Name()+"/admit", ld.tenant))
		stages = append(stages, core.Stage{})
		copy(stages[at+1:], stages[at:])
		stages[at] = gate
	}
	tailStart := len(stages)

	type mergeRelay struct {
		node string
		port int
	}
	var pendingRelay *mergeRelay
	switch t := seg.Tail; t.Kind {
	case core.EndSplitTrunk:
		stages = append(stages, core.Comp(ld.splits[t.Node]))
	case core.EndMergeIn:
		anchor := ld.shardOf[plan.MergeDown[t.Node]]
		link := ld.mergeLinks[t.Node][t.Port]
		if anchor == own && link == nil {
			stages = append(stages, core.Comp(ld.merges[t.Node].InPort(t.Port)))
		} else {
			// The merge's buffer lives with its downstream segment: relay
			// this branch's tail across a link into the merge's shard.
			lane := ld.laneName(t.Node, t.Port)
			if link == nil {
				link = shard.NewLink(lane, ld.schedOf(anchor), ld.depth)
				ld.mergeLinks[t.Node][t.Port] = link
				ld.addLink(link)
			}
			// Retargeting (on rebalance) happens in composeMergeRelay.
			stages = append(stages, link.SenderStages(lane)...)
			pendingRelay = &mergeRelay{node: t.Node, port: t.Port}
		}
	case core.EndCut:
		stages = append(stages, ld.cutLinks[t.Port].SenderStages(ld.cutLinks[t.Port].Name())...)
	}

	name := g.name + "/" + seg.Name()
	p, err := ld.compose(name, own, stages, seed)
	if err != nil {
		return err
	}
	ld.d.mu.Lock()
	ld.d.bySegment[seg.Name()] = p
	ld.d.mu.Unlock()
	if tailStart > 0 {
		ld.segOutSpec[si] = p.SpecAt(tailStart - 1)
	} else {
		ld.segOutSpec[si] = seed
	}
	if t := seg.Tail; t.Kind == core.EndMergeIn && pendingRelay == nil {
		ld.mergeInSpec[t.Node][t.Port] = ld.segOutSpec[si]
	}
	if r := pendingRelay; r != nil {
		return ld.composeMergeRelay(r.node, r.port, ld.segOutSpec[si])
	}
	return nil
}

// addLink registers an auto-inserted link on the deployment.
func (ld *localDeploy) addLink(l *shard.Link) {
	ld.d.mu.Lock()
	ld.d.links = append(ld.d.links, l)
	ld.d.mu.Unlock()
}

// compose builds one pipeline of the deployment on the given shard.
func (ld *localDeploy) compose(name string, shardIdx int, stages []core.Stage, seed typespec.Typespec) (*core.Pipeline, error) {
	p, err := core.Compose(name, ld.schedOf(shardIdx), ld.bus, stages,
		core.SkipEventCapabilityCheck(), core.WithInputSpec(seed),
		core.WithSchedClass(ld.classOf(shardIdx)))
	if err != nil {
		return nil, fmt.Errorf("graph %q: %w", ld.g.name, err)
	}
	ld.d.mu.Lock()
	ld.d.pipelines = append(ld.d.pipelines, p)
	ld.shardByPipe[p] = shardIdx
	ld.d.mu.Unlock()
	if yield != nil {
		// A broadcast delivers in subscription order and runs function
		// subscribers inline, so this one sits inside the Start loop,
		// between p's threads and those of the pipeline composed next.
		y := yield
		ld.bus.SubscribeFunc(func(ev events.Event) {
			if ev.Type == events.Start {
				y()
			}
		})
	}
	if ld.placeAt != nil {
		idx := shardIdx
		ld.placeAt(idx)
		go func() {
			<-p.Done()
			ld.release(idx)
		}()
	}
	return p, nil
}
