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
// in-process, joined through the tees' internal buffers and, at cut edges,
// a 64-item buffer.  Placement hints are ignored — a single scheduler
// collapses the placement dimension entirely.
type SchedulerTarget struct {
	Sched *uthread.Scheduler
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
// token grants) and its true sources pass the tenant's admission control.
// No pipeline of the deployment is a relay, so none pumps at the tenant's
// priority (on nodes the lanes carry it: NodesTarget.Tenant).  Placement
// stays a separate, orthogonal policy — the same graph deploys under any
// tenant.
func (t *SchedulerTarget) WithTenant(tn *qos.Tenant) *SchedulerTarget {
	t.Tenant = tn
	return t
}

func (t *SchedulerTarget) deploy(g *Graph, plan *core.GraphPlan) (*Deployment, error) {
	if !t.Sched.AddExternalSource() {
		return nil, fmt.Errorf("graph %q: %w", g.name, ErrTargetExited)
	}
	defer t.Sched.ReleaseExternalSource()
	ld := &localDeploy{
		schedOf: func(int) *uthread.Scheduler { return t.Sched },
		tenant:  t.Tenant,
	}
	return ld.run(g, plan, make([]int, len(plan.Segments)))
}

// GroupTarget deploys onto a SchedulerGroup: the planner places each
// segment on a shard (honoring Place hints; unhinted segments stay with
// their tee-adjacent neighbours, and free-standing ones follow the group's
// placement policy).  A cut edge and a tee port are both a buffer, read or
// filled from whatever shard the segment at either end runs on, so a
// placement hint adds no pipeline and no link.  The deployment pins every
// shard until it finishes, so Rebalance can move a segment onto an empty
// one.
type GroupTarget struct {
	Group *shard.Group
	// Tenant binds the deployment to a QoS tenant (nil = default tenant).
	// See SchedulerTarget.WithTenant.
	Tenant *qos.Tenant
}

// OnGroup targets a sharded runtime.
func OnGroup(gr *shard.Group) *GroupTarget {
	return &GroupTarget{Group: gr}
}

// WithTenant binds every pipeline of the deployment to a tenant (one
// weighted-fair class per shard the tenant touches; no relay pumps at its
// priority, as none is composed).  See SchedulerTarget.WithTenant.
func (t *GroupTarget) WithTenant(tn *qos.Tenant) *GroupTarget {
	t.Tenant = tn
	return t
}

// ErrTargetExited marks a deploy onto a scheduler, or a shard of a group,
// whose Run has already returned — one started while still empty returns at
// once.  Deploy first, then run the scheduler or start the group.
var ErrTargetExited = errors.New("graph: target has already exited (deploy before Run or Group.Start)")

func (t *GroupTarget) deploy(g *Graph, plan *core.GraphPlan) (*Deployment, error) {
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
	// Pin every shard while the deployment lives, or an empty one's Run
	// returns before a Rebalance can use it.  Released in maybeFinish.
	unpin, ok := t.Group.Pin()
	if !ok {
		return nil, fmt.Errorf("graph %q: %w", g.name, ErrTargetExited)
	}
	ld := &localDeploy{
		group:   t.Group,
		schedOf: t.Group.Scheduler,
		placeAt: t.Group.PlaceAt,
		release: t.Group.Release,
		tenant:  t.Tenant,
		unpin:   unpin,
	}
	d, err := ld.run(g, plan, shardOf)
	if err != nil {
		unpin()
	}
	return d, err
}

// localDeploy is the shard host: it renders live stages, joins the segments
// of a cut with a one-port copy split (newCut), and composes
// pipelines on the shard's scheduler.  A reconfiguration recomposes the
// pipelines it affects over the same stages, tees and cuts, whose buffers
// carry the in-flight items across.
type localDeploy struct {
	wiring[core.Stage, *pipes.Split]
	bus     *events.Bus
	group   *shard.Group // nil on a single scheduler
	schedOf func(i int) *uthread.Scheduler
	// placeAt/release are the group's load accounting, nil on a single
	// scheduler; every composed pipeline (drains included) counts.  failed
	// closes when the deploy fails: its pipelines never run.
	placeAt func(i int)
	release func(i int)
	failed  chan struct{}
	// tenant is the deployment's QoS binding (nil = default tenant); classes
	// holds its weighted-fair class on every shard (see run).
	tenant  *qos.Tenant
	classes map[int]*uthread.SchedClass

	stages map[string]core.Stage
	splits map[string]core.SplitPoint
	merges map[string]core.MergePoint

	// Under d.mu: the current generation's pipelines and the end of the
	// deployment (unpin runs exactly once).
	pipelines []*core.Pipeline
	finished  bool
	unpin     func()
	// pipes holds the pipeline last composed under each name — segments and
	// drains — so a recomposition can keep one it did not detach and fold
	// the counters of one it replaces.
	pipes map[string]*core.Pipeline
	// shardByPipe records the shard every live pipeline was composed on
	// (telemetry attribution).
	shardByPipe map[*core.Pipeline]int
	// draining records detached branches still draining their tombstoned
	// tee ports, by retired segment name (see drainDetached).
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
		ld.pipelines = slices.DeleteFunc(ld.pipelines, func(q *core.Pipeline) bool { return q == p })
		ld.d.mu.Unlock()
	}
}

func (ld *localDeploy) run(g *Graph, plan *core.GraphPlan, shardOf []int) (*Deployment, error) {
	var err error
	ld.stages, ld.splits, ld.merges, err = g.materialize()
	if err != nil {
		return nil, err
	}
	if err := ld.checkEvents(g, nil); err != nil {
		return nil, fmt.Errorf("graph %q: %w", g.name, err)
	}

	ld.bus = &events.Bus{} // the deployment's own event scope
	d := newDeployment(g.name, ld.bus, ld)
	ld.setup(ld, d, g, plan, shardOf)
	ld.pipes = make(map[string]*core.Pipeline)
	ld.draining = make(map[string]*detachRec)
	ld.shardByPipe = make(map[*core.Pipeline]int)
	ld.failed = make(chan struct{})
	if ld.tenant != nil {
		// One weighted-fair class per (tenant, shard): a class binds to one
		// scheduler, and per-shard classes keep a tenant's trace on one shard
		// independent of its siblings.  Built for every shard up front, so a
		// rebalance never mutates the map Stats reads.
		ld.classes = make(map[int]*uthread.SchedClass, ld.slots())
		for i := 0; i < ld.slots(); i++ {
			ld.classes[i] = uthread.NewSchedClass(ld.tenant.Name(), ld.tenant.Weight())
		}
	}

	for _, si := range plan.Order {
		if err := ld.place(si); err != nil {
			ld.broadcast(events.Stop)
			close(ld.failed)
			return nil, err
		}
	}
	ld.seal()
	return d, nil
}

// checkEvents runs the §2.3 event-capability check graph-wide over the
// declared stages, fresh instances first: an event emitted in one segment
// may well be handled in another (that is what the shared bus is for), so
// compose skips the per-pipeline check.
func (ld *localDeploy) checkEvents(g *Graph, fresh map[string]core.Stage) error {
	var all []core.Stage
	for _, n := range g.nodes {
		if st, ok := fresh[n.name]; ok {
			all = append(all, st)
		} else if n.kind == nStage {
			all = append(all, ld.stages[n.name])
		}
	}
	return core.CheckEventCapabilities(all)
}

// seal starts a watcher that finishes the deployment once every pipeline
// of the current generation has terminated — unless a reconfiguration
// superseded the generation meanwhile (its detached pipelines terminate
// too).
func (ld *localDeploy) seal() {
	d := ld.d
	d.mu.Lock()
	gen, ps := d.gen, slices.Clone(ld.pipelines)
	d.mu.Unlock()
	go func() {
		for _, p := range ps {
			<-p.Done()
		}
		ld.maybeFinish(gen)
	}()
}

// maybeFinish completes the deployment if generation gen is still current:
// it releases the shard pins (so an idle group can drain) and closes Done.
func (ld *localDeploy) maybeFinish(gen uint64) {
	d := ld.d
	d.mu.Lock()
	if d.gen != gen || d.moving || ld.finished {
		d.mu.Unlock()
		return
	}
	ld.finished = true
	unpin := ld.unpin
	ld.unpin = nil
	d.mu.Unlock()
	if unpin != nil {
		unpin()
	}
	close(d.done)
}

// slots reports the target's placement width.
func (ld *localDeploy) slots() int {
	if ld.group == nil {
		return 1
	}
	return ld.group.Shards()
}

// movable lets any segment of a group move; a single scheduler has nowhere
// to move one, and a shard does not die.
func (ld *localDeploy) movable(_ int, live bool) error {
	if ld.group == nil || !live {
		return ErrNotRebalancable
	}
	return nil
}

func (ld *localDeploy) external(fn func()) {
	if ld.group == nil {
		fn()
		return
	}
	ld.group.External(fn)
}

// broadcast publishes a control event on the deployment's own bus, stamped
// with the scheduler clock, as one external action.
func (ld *localDeploy) broadcast(ev events.Type) {
	ld.external(func() {
		ld.bus.Broadcast(events.Event{Type: ev, Time: ld.schedOf(0).Now(), Origin: ld.name})
	})
}

func (ld *localDeploy) err() error {
	for _, p := range ld.d.Pipelines() {
		if err := p.Err(); err != nil {
			return fmt.Errorf("%s: %w", p.Name(), err)
		}
	}
	return nil
}

func (ld *localDeploy) wait() error {
	<-ld.d.done
	return ld.d.Err()
}

// redeploy recomposes what the quiesce detached, for the plan a transaction
// just committed, over the same stages, tees and cuts (their buffered state
// carries the stream across).  A segment that runs on keeps its pipeline.
func (ld *localDeploy) redeploy() error {
	ld.d.mu.Lock()
	ld.pipelines = slices.DeleteFunc(ld.pipelines, (*core.Pipeline).Detached)
	ld.d.mu.Unlock()
	for _, si := range ld.plan.Order {
		if !ld.runs(ld.name + "/" + ld.plan.Segments[si].Name()) {
			if err := ld.place(si); err != nil {
				return err
			}
		}
	}
	return nil
}

// apart is false: the shards of a group share one address space.
func (ld *localDeploy) apart(int, int) bool { return false }

// newCut builds the buffer of a cut edge inside one address space: a
// one-port copy split of 64 items, whose port wakes each waiter on its own
// scheduler, so a move keeps it as it is.
func newCut(lane string) *pipes.Split {
	return pipes.NewCopyTee(lane, 1, 64, typespec.Block, typespec.Block)
}

// link builds the buffer of a cut once and returns a bound one unchanged.
func (ld *localDeploy) link(lane string, l *pipes.Split, _, _ int) (*pipes.Split, error) {
	if l == nil {
		l = newCut(lane)
	}
	return l, nil
}

func (ld *localDeploy) recv(_ string, l *pipes.Split) []core.Stage {
	return []core.Stage{core.Comp(l.OutPort(0))}
}

func (ld *localDeploy) send(_ string, l *pipes.Split, _ int) []core.Stage {
	return []core.Stage{core.Comp(l)}
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

// runs reports whether pipeline name was not detached: a transaction left it
// running, or its stream ended (recomposing would replay end-of-stream).
func (ld *localDeploy) runs(name string) bool {
	p := ld.pipes[name]
	return p != nil && !p.Detached()
}

// compose builds one pipeline on the given shard, under the tenant's class
// there; the one it replaces, detached, is folded into the ledger.
func (ld *localDeploy) compose(name string, shardIdx, _ int, stages []core.Stage, seed typespec.Typespec, admit bool) ([]typespec.Typespec, error) {
	if old := ld.pipes[name]; old != nil {
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
		return nil, fmt.Errorf("graph %q: %w", ld.name, err)
	}
	ld.d.mu.Lock()
	ld.pipelines = append(ld.pipelines, p)
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
			select {
			case <-p.Done():
			case <-ld.failed:
			}
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
// the generation's other pipelines (drains).  One absent from
// shardByPipe was folded by an in-flight reconfiguration: its counters live
// in the ledger already.
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
	seen := make(map[*core.Pipeline]bool, len(ld.pipelines))
	for i, seg := range ld.plan.Segments {
		if p := ld.pipes[ld.name+"/"+seg.Name()]; p != nil {
			seen[p] = true
			rows = append(rows, row(p, i, ld.slotOf[i]))
		}
	}
	for _, p := range ld.pipelines {
		if !seen[p] {
			seen[p] = true
			rows = append(rows, row(p, -1, ld.shardByPipe[p]))
		}
	}
	var tenantRows []remote.TenantStat
	if t := ld.tenant; t != nil {
		tenantRows = append(tenantRows, remote.TenantStat{Admitted: t.Admitted(), Sheds: t.Sheds()})
		for sh := range ld.slots() {
			c := ld.classes[sh]
			tr := remote.TenantStat{Granted: c.Granted(), SchedCycles: ld.schedOf(sh).Stats().Cycles}
			if debt := c.VTime() - ld.schedOf(sh).FairNow(); debt > 0 {
				tr.CreditDebt = debt
			}
			tenantRows = append(tenantRows, tr)
		}
	}
	return ld.fold(rows, ld.slots(), ld.tenant, tenantRows)
}
