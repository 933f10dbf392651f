package graph

import (
	"errors"
	"fmt"
	"slices"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/pipes"
	"infopipes/internal/qos"
	"infopipes/internal/remote"
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
	ld := &localDeploy{
		g: g, bus: t.Bus, depth: t.LinkDepth,
		schedOf: func(int) *uthread.Scheduler { return t.Sched },
		tenant:  t.Tenant,
	}
	return ld.run(plan, make([]int, len(plan.Segments)))
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
		g: g, bus: t.Bus, depth: t.LinkDepth,
		group:   t.Group,
		schedOf: t.Group.Scheduler,
		placeAt: t.Group.PlaceAt,
		release: t.Group.Release,
		tenant:  t.Tenant,
	}
	d, err := ld.run(plan, shardOf)
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

// localDeploy is the shard host: it renders live stages, joins segments on
// different shards with shard links, and composes pipelines on the shard's
// scheduler.  A reconfiguration recomposes the graph over the same stages
// and links, whose queues carry the in-flight items across.
type localDeploy struct {
	wiring[core.Stage, *shard.Link]
	g       *Graph
	bus     *events.Bus
	depth   int
	group   *shard.Group // nil on a single scheduler
	schedOf func(i int) *uthread.Scheduler
	// placeAt/release are the group's load accounting, nil on a single
	// scheduler; every composed pipeline (relays included) counts.
	placeAt func(i int)
	release func(i int)
	// tenant is the deployment's QoS binding (nil = default tenant); classes
	// holds its weighted-fair class on every shard (see run).
	tenant  *qos.Tenant
	classes map[int]*uthread.SchedClass

	stages map[string]core.Stage
	splits map[string]core.SplitPoint
	merges map[string]core.MergePoint

	d *Deployment
	// pipes holds the pipeline last composed under each name — segments,
	// relays, drains — so a recomposition can keep one whose stream ended
	// and fold the counters of one it replaces.
	pipes map[string]*core.Pipeline
	// shardByPipe records the shard every live pipeline was composed on
	// (telemetry attribution).
	shardByPipe map[*core.Pipeline]int
	// draining records detached branches still draining their tombstoned
	// tee ports, keyed by retired segment name: they are off-plan, so
	// drainDetached recomposes them after every edit until they reach end of
	// stream (see drainDetached).
	draining map[string]*detachRec
}

// retire folds a replaced pipeline's counters into the ledger under the
// shard it ran on and drops it from the placement map, under d.mu: Stats
// reads both under the same lock, concurrently with a rebalance.
func (ld *localDeploy) retire(name string, p *core.Pipeline) {
	ps := p.Stats()
	ld.d.mu.Lock()
	defer ld.d.mu.Unlock()
	sh, ok := ld.shardByPipe[p]
	if !ok {
		sh = -1
	}
	ld.ledger.fold(name, sh, counts{ps.Items, ps.Cycles, ps.BusyNanos})
	delete(ld.shardByPipe, p)
}

// forget takes pipeline name off the books for good, folding its counters.
func (ld *localDeploy) forget(name string) {
	if p := ld.pipes[name]; p != nil {
		ld.retire(name, p)
		ld.d.mu.Lock()
		delete(ld.pipes, name)
		ld.d.mu.Unlock()
	}
}

func (ld *localDeploy) run(plan *core.GraphPlan, shardOf []int) (*Deployment, error) {
	g := ld.g
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
	ld.d.now = ld.schedOf(0).Now
	ld.setup(ld, g.name, plan, shardOf)
	ld.pipes = make(map[string]*core.Pipeline)
	ld.draining = make(map[string]*detachRec)
	ld.shardByPipe = make(map[*core.Pipeline]int)
	if ld.tenant != nil {
		// One weighted-fair class per (tenant, shard): a class binds to one
		// scheduler, and per-shard classes keep a tenant's trace on one shard
		// independent of its siblings.  Built for every shard up front, so a
		// rebalance never mutates the map Stats reads.
		ld.classes = make(map[int]*uthread.SchedClass, ld.shards())
		for i := 0; i < ld.shards(); i++ {
			ld.classes[i] = uthread.NewSchedClass(ld.tenant.Name(), ld.tenant.Weight())
		}
	}

	for _, si := range plan.Order {
		if err := ld.place(si); err != nil {
			ld.d.abandon()
			return nil, err
		}
	}
	ld.d.seal()
	return ld.d, nil
}

// shards reports the target's placement width.
func (ld *localDeploy) shards() int {
	if ld.group == nil {
		return 1
	}
	return ld.group.Shards()
}

// redeploy recomposes the graph for the plan and placement a transaction
// just committed; every pipeline of the previous generation is already
// detached.  Stages, tees and links are reused — their buffered state
// carries the stream across — and segments whose stream already ended are
// kept as-is instead of being recomposed.
func (ld *localDeploy) redeploy() error {
	ld.d.mu.Lock()
	ld.d.pipelines = nil
	ld.d.mu.Unlock()
	for _, si := range ld.plan.Order {
		if p := ld.pipes[ld.name+"/"+ld.plan.Segments[si].Name()]; p != nil && p.ReachedEOS() {
			if err := ld.keep(si, p); err != nil {
				return err
			}
			continue
		}
		if err := ld.place(si); err != nil {
			return err
		}
	}
	return nil
}

// keep re-registers a finished segment pipeline in the new generation
// without placing it again: recomposing it would replay end-of-stream into
// its tail.  Its split-head relay has necessarily finished too, but a
// merge-tail relay sits DOWNSTREAM and may still be draining the link into
// the merge, so it is recomposed on the merge's (possibly new) shard.
func (ld *localDeploy) keep(si int, p *core.Pipeline) error {
	seg := ld.plan.Segments[si]
	ld.register(p)
	if h := seg.Head; h.Kind == core.EndSplitOut {
		if rp := ld.pipes[ld.laneName(h.Node, h.Port)+"/relay"]; rp != nil {
			ld.register(rp)
		}
	}
	if t := seg.Tail; t.Kind == core.EndMergeIn {
		lane := ld.laneName(t.Node, t.Port)
		if l := ld.links[lane]; l != nil {
			l.Retarget(ld.schedOf(ld.slotOf[ld.plan.MergeDown[t.Node]]))
			return ld.mergeRelay(si)
		}
	}
	return nil
}

// register puts a pipeline on the current generation's books.
func (ld *localDeploy) register(p *core.Pipeline) {
	ld.d.mu.Lock()
	ld.d.pipelines = append(ld.d.pipelines, p)
	ld.d.mu.Unlock()
}

// link binds a shard link delivering to segment to's shard, or retargets a
// bound one there (its queued items stay put).  A reconfiguration calls it
// while everything is parked, so no thread waits on the link.
func (ld *localDeploy) link(lane string, l *shard.Link, _, to int) (*shard.Link, error) {
	sched := ld.schedOf(ld.slotOf[to])
	if l != nil {
		l.Retarget(sched)
		return l, nil
	}
	l = shard.NewLink(lane, sched, ld.depth)
	ld.d.mu.Lock()
	ld.d.links = append(ld.d.links, l)
	ld.d.mu.Unlock()
	return l, nil
}

// unlink leaves the link be: a failed placement abandons the deployment.
func (ld *localDeploy) unlink(string, int) {}

func (ld *localDeploy) recv(lane string, l *shard.Link) []core.Stage { return l.ReceiverStages(lane) }

func (ld *localDeploy) send(lane string, l *shard.Link, _ int) []core.Stage {
	return l.SenderStages(lane)
}

func (ld *localDeploy) tee(e core.SegmentEnd) core.Stage {
	switch e.Kind {
	case core.EndSplitOut:
		return core.Comp(ld.splits[e.Node].OutPort(e.Port))
	case core.EndSplitTrunk:
		return core.Comp(ld.splits[e.Node])
	case core.EndMergeIn:
		return core.Comp(ld.merges[e.Node].InPort(e.Port))
	}
	return core.Comp(ld.merges[e.Node].OutPort())
}

func (ld *localDeploy) stage(name string) core.Stage { return ld.stages[name] }

// pump builds a boundary relay's pump: free-running at the tenant's
// priority, so a lane relay stops flattening the flow's priority to normal —
// a tenant's effective priority crosses the boundary with its items.
func (ld *localDeploy) pump(lane string) core.Stage {
	prio := uthread.PriorityNormal
	if ld.tenant != nil {
		prio = ld.tenant.Priority()
	}
	return core.Pmp(pipes.NewFreePumpPrio(lane+"/pump", prio))
}

// runs reports whether pipeline name is on the current generation's books
// on the given shard.
func (ld *localDeploy) runs(name string, shardIdx int) bool {
	ld.d.mu.Lock()
	defer ld.d.mu.Unlock()
	return slices.ContainsFunc(ld.d.pipelines, func(p *core.Pipeline) bool {
		sh, live := ld.shardByPipe[p]
		return live && sh == shardIdx && p.Name() == name
	})
}

// compose builds one pipeline of the deployment on the given shard, under
// the tenant's class there (none for the default tenant).  A previous
// generation's pipeline of the same name is kept when its stream ended
// (recomposing it would replay end-of-stream) and folded into the ledger
// otherwise.
func (ld *localDeploy) compose(name string, shardIdx, _ int, stages []core.Stage, seed typespec.Typespec, admit bool) ([]typespec.Typespec, error) {
	if old := ld.pipes[name]; old != nil {
		if old.ReachedEOS() {
			ld.register(old)
			return old.Plan().Specs, nil
		}
		ld.retire(name, old)
	}
	gate := -1
	if admit && ld.tenant != nil {
		// An over-rate tenant sheds (or blocks) at its true sources, where
		// dropping is cheap, instead of filling shared buffers downstream.
		stages, gate = qos.InsertAdmission(stages, name+"/admit", ld.tenant)
	}
	p, err := core.Compose(name, ld.schedOf(shardIdx), ld.bus, stages,
		core.SkipEventCapabilityCheck(), core.WithInputSpec(seed),
		core.WithSchedClass(ld.classes[shardIdx]))
	if err != nil {
		return nil, fmt.Errorf("graph %q: %w", ld.g.name, err)
	}
	ld.d.mu.Lock()
	ld.d.pipelines = append(ld.d.pipelines, p)
	ld.shardByPipe[p] = shardIdx
	ld.pipes[name] = p
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
	specs := p.Plan().Specs
	if gate >= 0 {
		specs = slices.Delete(slices.Clone(specs), gate, gate+1)
	}
	return specs, nil
}

// stats assembles the deployment's live rows: segments in plan order, then
// the other pipelines of the generation (relays, drains).  A pipeline absent
// from shardByPipe has been folded by an in-flight rebalance but not yet
// replaced: its counters already live in the ledger, so adding its live
// reading again would double-count the snapshot.
func (ld *localDeploy) stats() GraphStats {
	d := ld.d
	d.mu.Lock()
	defer d.mu.Unlock()
	row := func(p *core.Pipeline, seg, slot int) pipeRow {
		r := pipeRow{name: p.Name(), seg: seg, slot: slot, ran: -1, eos: p.ReachedEOS()}
		if runsOn, live := ld.shardByPipe[p]; live {
			ps := p.Stats()
			r.ran, r.counts = runsOn, counts{ps.Items, ps.Cycles, ps.BusyNanos}
		}
		return r
	}
	var rows []pipeRow
	seen := make(map[*core.Pipeline]bool, len(d.pipelines))
	for i, seg := range ld.plan.Segments {
		if p := ld.pipes[ld.name+"/"+seg.Name()]; p != nil {
			seen[p] = true
			rows = append(rows, row(p, i, ld.slotOf[i]))
		}
	}
	for _, p := range d.pipelines {
		if !seen[p] {
			seen[p] = true
			rows = append(rows, row(p, -1, ld.shardByPipe[p]))
		}
	}
	var tenantRows []remote.TenantStat
	if t := ld.tenant; t != nil {
		tenantRows = append(tenantRows, remote.TenantStat{Admitted: t.Admitted(), Sheds: t.Sheds()})
		for sh := range ld.shards() {
			c := ld.classes[sh]
			tr := remote.TenantStat{Granted: c.Granted(), SchedCycles: ld.schedOf(sh).Stats().Cycles}
			if debt := c.VTime() - ld.schedOf(sh).FairNow(); debt > 0 {
				tr.CreditDebt = debt
			}
			tenantRows = append(tenantRows, tr)
		}
	}
	st := ld.fold(rows, ld.shards(), ld.tenant, tenantRows)
	for _, l := range d.links {
		st.Links = append(st.Links, LinkStats{
			Name: l.Name(), Depth: l.Depth(), HighWater: l.HighWater(),
			Moved: l.Moved(), Drains: l.Drains(), Wakes: l.Wakes(),
			Closed: l.Closed(),
		})
	}
	return st
}
