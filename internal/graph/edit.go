package graph

import (
	"errors"
	"maps"
	"slices"

	"infopipes/internal/core"
	"infopipes/internal/pipes"
	"infopipes/internal/qos"
	"infopipes/internal/uthread"
)

// This file implements Deployment.Edit: live graph surgery.  The paper's
// thesis — flow structure and placement are policy, not code — extends to
// the time axis here: a subscriber joining a split, a filter spliced into an
// edge, a stage swapped or a tenant retuned are runtime operations, each
// staged into the reconfiguration transaction (reconfigure.go).  Branches
// an edit does not touch resume exactly where they left off on the frozen
// virtual clock: their traces are byte-identical to an unedited run.

// Edit errors.
var (
	// ErrNotEditable marks structural edit ops, and the replica knobs,
	// against a target that cannot apply them: remote deployments support
	// RebindTenant only for now.
	ErrNotEditable = errors.New("graph: deployment target cannot apply structural edits (remote targets support RebindTenant only)")
	// ErrNoTenant marks a RebindTenant against a tenant-less deployment.
	ErrNoTenant = errors.New("graph: deployment has no tenant to rebind")
)

// EditOp is one live-edit operation.  Implementations: AttachBranch,
// DetachBranch, InsertStage, SwapStage, ScaleStage (scale.go), RebindTenant.
type EditOp interface {
	// stage validates the op against the declaration as left by the ops
	// before it in the batch and records its delta in the transaction.
	stage(*txn) error
}

// AttachBranch adds a new branch to a running split tee: the tee grows one
// out-port (never renumbering existing ports) and the given stages compose
// into a new sink pipeline fed from it — a subscriber joining a multicast.
// Attaching to a split whose trunk already ended yields a branch that drains
// straight to end of stream.  On a routing split the new port only receives
// items if the tee's selector already targets its index.
type AttachBranch struct {
	// Split names the split node to grow.
	Split string
	// Stages is the new branch pipeline, in flow order, ending in a sink.
	// Stage names must be unused in the graph.
	Stages []core.Stage
	// Place is the shard hint for the new branch (group targets); -1
	// inherits the trunk's shard.
	Place int
}

func (op AttachBranch) stage(t *txn) error {
	ld, err := t.d.local()
	if err != nil {
		return err
	}
	g := t.g
	n, ok := g.index[op.Split]
	if !ok || n.kind != nSplit {
		return t.errf("AttachBranch target %q is not a split", op.Split)
	}
	tee, err := t.portSplit(ld, op.Split)
	if err != nil {
		return err
	}
	if len(op.Stages) == 0 {
		return t.errf("AttachBranch on %q with no stages", op.Split)
	}
	if op.Place < -1 || op.Place >= ld.slots() {
		return t.errf("AttachBranch on %q placed on shard %d, target has %d", op.Split, op.Place, ld.slots())
	}
	port := n.outs
	prev, prevPort := op.Split, port
	for _, st := range op.Stages {
		name, err := t.declare(st, op.Place)
		if err != nil {
			return err
		}
		g.edges = append(g.edges, core.GraphEdgeInfo{
			From: prev, FromPort: prevPort, To: name, ToPort: core.GraphMainPort,
		})
		prev, prevPort = name, core.GraphMainPort
	}
	n.outs++
	t.undo = append(t.undo, func() { n.outs-- })
	t.attaches = append(t.attaches, attachRec{tee: tee, port: port})
	return nil
}

// DetachBranch removes a branch from a running split tee: the port is
// tombstoned (never renumbered), the trunk stops feeding it, and the leaving
// branch drains its in-flight items and ends with a clean end of stream —
// off the deployment's books but composed through to its sink.  Only pure
// sink branches detach: a branch feeding a merge, cut or nested split stays
// (detaching it would starve downstream structure shared with other flows).
// The last attached port cannot detach.
type DetachBranch struct {
	Split string
	Port  int
}

func (op DetachBranch) stage(t *txn) error {
	ld, err := t.d.local()
	if err != nil {
		return err
	}
	g := t.g
	n, ok := g.index[op.Split]
	if !ok || n.kind != nSplit {
		return t.errf("DetachBranch target %q is not a split", op.Split)
	}
	tee, err := t.portSplit(ld, op.Split)
	if err != nil {
		return err
	}
	branches := ld.plan.SplitBranch[op.Split]
	if op.Port < 0 || op.Port >= len(branches) || branches[op.Port] < 0 {
		return t.errf("split %q has no attached branch at port %d", op.Split, op.Port)
	}
	seg := ld.plan.Segments[branches[op.Port]]
	if seg.Tail.Kind != core.EndNone {
		return t.errf("branch %q of split %q feeds further graph structure; only pure sink branches detach",
			seg.Name(), op.Split)
	}
	rec := &detachRec{
		tee: tee, port: op.Port, segName: seg.Name(),
		stageNames: seg.Stages, branchShard: ld.slotOf[branches[op.Port]],
	}
	leaving := make(map[string]bool, len(seg.Stages))
	for _, name := range seg.Stages {
		st, ok := ld.stages[name]
		if !ok {
			return t.errf("branch stage %q has no live instance", name)
		}
		rec.stageInsts = append(rec.stageInsts, st)
		leaving[name] = true
	}
	old := n.detachedOuts
	n.detachedOuts = append(append([]int(nil), old...), op.Port)
	t.undo = append(t.undo, func() { n.detachedOuts = old })
	kept := g.edges[:0:0]
	for _, e := range g.edges {
		if !leaving[e.From] && !leaving[e.To] {
			kept = append(kept, e)
		}
	}
	g.edges = kept
	keptNodes := g.nodes[:0:0]
	for _, gn := range g.nodes {
		if leaving[gn.name] {
			delete(g.index, gn.name)
		} else {
			keptNodes = append(keptNodes, gn)
		}
	}
	g.nodes = keptNodes
	t.detaches = append(t.detaches, rec)
	return nil
}

// InsertStage splices a stage into a live edge between two plain stages of
// one segment: From >> To becomes From >> Stage >> To, with the in-flight
// items upstream of the edge re-entering through the new stage.  Cut edges
// and tee ports do not accept insertion.
type InsertStage struct {
	From, To string
	// Stage is the spliced stage; its name must be unused in the graph.
	Stage core.Stage
}

func (op InsertStage) stage(t *txn) error {
	if _, err := t.d.local(); err != nil {
		return err
	}
	g := t.g
	for _, ref := range []string{op.From, op.To} {
		if n, ok := g.index[ref]; !ok || n.kind != nStage {
			return t.errf("InsertStage endpoint %q is not a plain stage", ref)
		}
	}
	ei := -1
	for i, e := range g.edges {
		if e.From == op.From && e.To == op.To &&
			e.FromPort == core.GraphMainPort && e.ToPort == core.GraphMainPort {
			ei = i
			break
		}
	}
	if ei < 0 {
		return t.errf("no edge %s -> %s", op.From, op.To)
	}
	if g.edges[ei].Cut {
		return t.errf("edge %s -> %s is a cut; stages do not insert across explicit boundaries", op.From, op.To)
	}
	name, err := t.declare(op.Stage, -1)
	if err != nil {
		return err
	}
	g.edges[ei] = core.GraphEdgeInfo{
		From: op.From, FromPort: core.GraphMainPort, To: name, ToPort: core.GraphMainPort,
	}
	g.edges = append(g.edges, core.GraphEdgeInfo{
		From: name, FromPort: core.GraphMainPort, To: op.To, ToPort: core.GraphMainPort,
	})
	return nil
}

// SwapStage replaces a stage's implementation in place at a pump-cycle
// boundary: the node keeps its name and position, the new instance takes
// over from the next item on.  The replacement must be the same stage
// flavor (component for component, pump for pump); buffers do not swap —
// they hold in-flight items no new instance could take over.
type SwapStage struct {
	// Node names the graph node whose implementation is replaced.
	Node string
	// Stage is the replacement instance (same flavor as the current one).
	Stage core.Stage
}

func (op SwapStage) stage(t *txn) error {
	ld, err := t.d.local()
	if err != nil {
		return err
	}
	n, ok := t.g.index[op.Node]
	if !ok || n.kind != nStage {
		return t.errf("SwapStage target %q is not a plain stage", op.Node)
	}
	cur, ok := ld.stages[op.Node]
	if !ok {
		return t.errf("stage %q has no live instance", op.Node)
	}
	if _, isBuf := cur.IsBuffer(); isBuf {
		return t.errf("%q is a buffer; buffers hold in-flight items and do not swap", op.Node)
	}
	if _, isBuf := op.Stage.IsBuffer(); isBuf {
		return t.errf("replacement for %q is a buffer; buffers do not swap", op.Node)
	}
	_, curPump := cur.IsPump()
	_, newPump := op.Stage.IsPump()
	if curPump != newPump {
		return t.errf("replacement for %q changes the stage flavor (pump vs component)", op.Node)
	}
	if rn := op.Stage.Name(); rn != op.Node {
		if _, dup := t.g.index[rn]; dup {
			return t.errf("replacement name %q collides with another node", rn)
		}
	}
	oldStage, oldSpec := n.stage, n.spec
	n.stage, n.spec = op.Stage, nil
	t.undo = append(t.undo, func() { n.stage, n.spec = oldStage, oldSpec })
	t.newStages[op.Node] = op.Stage
	return nil
}

// RebindTenant retunes the deployment's QoS binding live: weight drives the
// scheduler credit classes (observable in work shares within one pump
// batch), rate/burst reload every admission gate on its next item, and
// priority applies to pipelines composed after the change.  RebindTenant
// needs no quiesce and is the only edit op remote deployments accept.
type RebindTenant struct {
	// Weight is the new weighted-fair share; 0 keeps the current weight.
	Weight int
	// Rate/Burst replace the admission rate limit when SetRate is true
	// (Rate 0 = unlimited).
	Rate    float64
	Burst   int
	SetRate bool
	// Prio replaces the tenant's pump priority when SetPrio is true.
	Prio    uthread.Priority
	SetPrio bool
}

func (op RebindTenant) stage(t *txn) error {
	t.rebinds = append(t.rebinds, op)
	return nil
}

// rebind records rebinds in the deployer-side tenant's policy fields, so
// stats and later composes see the new policy.
func rebind(t *qos.Tenant, rebinds []RebindTenant) {
	for _, rb := range rebinds {
		if rb.Weight > 0 {
			t.SetWeight(rb.Weight)
		}
		if rb.SetRate {
			t.SetRate(rb.Rate, rb.Burst)
		}
		if rb.SetPrio {
			t.SetPriority(rb.Prio)
		}
	}
}

// portSplit resolves the live split an AttachBranch or DetachBranch operates
// on.  A spread split is refused: its seq merge cannot grow with it, so a
// new port would carry trunk items out of the rebuilt stream.
func (t *txn) portSplit(ld *localDeploy, name string) (*pipes.Split, error) {
	sp, ok := ld.splits[name].(*pipes.Split)
	if !ok {
		return nil, t.errf("split %q does not support live port surgery", name)
	}
	if sp.Spread() {
		return nil, t.errf("split %q spreads a scaled stage over its replicas; retune it with SetReplicas", name)
	}
	return sp, nil
}

// Edit applies a batch of live-edit operations as one transaction: every
// op is validated first — a rejected batch leaves the flow untouched — then
// the deployment is re-planned, and the pipelines the batch affects quiesce
// at a pump-cycle boundary and recompose while the rest run on.
// RebindTenant ops need no quiesce: alone they apply at once, beside
// structural ops as the flow resumes.  Structural ops refuse remote
// deployments with ErrNotEditable.  A failure after the quiesce (a
// composition the planner could not foresee) winds the deployment down and
// is preserved through Err/Wait.
func (d *Deployment) Edit(ops ...EditOp) error { return d.reconfigure("edit", ops) }

func (ld *localDeploy) rebind(rebinds []RebindTenant) error {
	var err error
	ld.external(func() { err = ld.applyRebinds(rebinds) })
	return err
}

// applyRebinds retunes the tenant's policy fields (so stats and later
// deploys agree), then the live per-shard credit classes.
func (ld *localDeploy) applyRebinds(rebinds []RebindTenant) error {
	if len(rebinds) == 0 {
		return nil
	}
	if ld.tenant == nil {
		return ErrNoTenant
	}
	rebind(ld.tenant, rebinds)
	for _, c := range ld.classes {
		c.SetWeight(ld.tenant.Weight())
	}
	return nil
}

// attachRec carries one validated AttachBranch to the commit: the new
// port's index (the split's outs before the attach).
type attachRec struct {
	tee  *pipes.Split
	port int
}

// detachRec carries one validated DetachBranch through the transaction and,
// while the branch drains, across later ones (localDeploy.draining).
type detachRec struct {
	tee         *pipes.Split
	port        int
	segName     string
	stageNames  []string
	stageInsts  []core.Stage
	branchShard int
	pipe        *core.Pipeline // the branch's detached pipeline (post-quiesce)
	drain       *core.Pipeline // the off-plan drain pipeline, recomposed per txn
}

// drainDetached composes the leaving branches of DetachBranch ops: the
// tombstoned port's buffer was closed upstream, so the branch drains every
// in-flight item into its sink and ends cleanly.  Drain pipelines are
// off-plan: ld.draining carries them across transactions, which keep them
// running until they reach end of stream.
func (ld *localDeploy) drainDetached(detaches []*detachRec) error {
	for _, dr := range detaches {
		ld.draining[dr.segName] = dr
	}
	for _, segName := range slices.Sorted(maps.Keys(ld.draining)) {
		dr := ld.draining[segName]
		name := ld.name + "/" + dr.segName + "/detached"
		if dr.drain != nil && dr.drain.ReachedEOS() || dr.drain == nil && dr.pipe != nil && dr.pipe.ReachedEOS() {
			// Fully drained: fold the drain's counters and forget it.
			ld.forget(name)
			delete(ld.draining, segName)
			continue
		}
		// A drain runs on: no transaction quiesces one.
		if ld.runs(name) {
			continue
		}
		stages := append([]core.Stage{core.Comp(dr.tee.OutPort(dr.port))}, dr.stageInsts...)
		if _, err := ld.compose(name, dr.branchShard, -1, stages, ld.segOutSpec[ld.plan.SplitTrunk[dr.tee.Name()]], false); err != nil {
			return err
		}
		dr.drain = ld.pipes[name]
	}
	return nil
}
