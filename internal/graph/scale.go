package graph

import (
	"fmt"
	"slices"

	"infopipes/internal/core"
	"infopipes/internal/pipes"
	"infopipes/internal/typespec"
)

// This file implements replica scale-out: ScaleStage rewrites one plain
// stage S of a running deployment into
//
//	... >> S.split ──┬─ S    >> S#0/p ─┬─>> S.merge >> ...
//	                 ├─ S#1  >> S#1/p ─┤
//	                 └─ S#n-1>> S#n-1/p┘
//
// behind a spread split (pipes.NewElasticTee, a pure (Seq-1) mod active
// selector) and a seq-order merge (pipes.NewOrderedMerge): each
// replica is its own branch segment ("S#i>>S#i/p"), placeable on its own
// shard.  The merge rebuilds the exact trunk order, so every trace below it
// is byte-identical whatever the replica count — scaling is invisible, and
// elastic.Cluster retunes it from load policy: SetReplicas(S, n) moves the
// ACTIVE count with no quiesce at all, and idle replicas simply drain.

// ScaleStage is the live-edit operation that turns stage Node into Replicas
// parallel replicas behind an elastic split and an ordered merge.  The
// stage must be a plain 1:1 component interior to its segment (a stage
// between two plain stages, not a source, sink, pump or buffer), and its
// segment must be single-section (exactly one pump).  Replica 0 is the
// original live instance — (stage, replica-index) identity keeps the
// stage's accumulated state on replica 0; replicas 1..n-1 are built by
// Build, or cloned from the node's catalog spec when it is spec-backed.
type ScaleStage struct {
	// Node names the stage to scale.
	Node string
	// Replicas is the declared replica count (>= 2); the live knob
	// SetReplicas moves within 1..Replicas.
	Replicas int
	// Places optionally pins replica i to shard Places[i] (-1 inherits the
	// trunk's shard); nil places every replica on the trunk's shard.
	Places []int
	// Build makes replica instance i (1..Replicas-1) for live-declared
	// nodes; unused (may be nil) when the node is spec-backed.
	Build func(i int) (core.Stage, error)
}

// scaleRec carries one validated ScaleStage through the transaction.
type scaleRec struct {
	splitName string
	mergeName string
	replicas  int
	places    []int
	oldShard  int
	tee       *pipes.Split
	om        *pipes.Merge
}

// stage validates the op and rewrites the declaration layer: replica nodes,
// the tee pair, and one branch per replica between them.
func (op ScaleStage) stage(t *txn) error {
	ld, err := t.d.local()
	if err != nil {
		return err
	}
	g := t.g
	inIdx, outIdx, err := op.validate(t, ld)
	if err != nil {
		return err
	}
	n, in, out := g.index[op.Node], g.edges[inIdx], g.edges[outIdx]
	oldShard, pumpDownstream, err := op.host(t, ld)
	if err != nil {
		return err
	}

	// Replica 0 is the original (its state stays); 1..n-1 come from Build
	// or the node's catalog spec.
	repNames := make([]string, op.Replicas)
	repNames[0] = op.Node
	for i := 1; i < op.Replicas; i++ {
		var st core.Stage
		var err error
		switch {
		case op.Build != nil:
			st, err = op.Build(i)
		case n.spec != nil:
			f, ok := g.catalog[n.spec.Kind]
			if !ok {
				return t.errf("ScaleStage %q: spec kind %q not in catalog", op.Node, n.spec.Kind)
			}
			st, err = f(fmt.Sprintf("%s#%d", op.Node, i), n.spec.Args, n.spec.Params)
		default:
			return t.errf("ScaleStage %q is live-declared; supply Build to make replicas", op.Node)
		}
		if err != nil {
			return t.errf("ScaleStage %q replica %d: %w", op.Node, i, err)
		}
		if repNames[i], err = t.declare(st, -1); err != nil {
			return err
		}
		if _, isComp := st.IsComponent(); !isComp {
			return t.errf("ScaleStage %q replica %q is not a plain component", op.Node, repNames[i])
		}
	}

	// The tees: an elastic splitter and its paired seq-ordered merge.  Both
	// are declared unhinted, and the scaled node drops its own hint — a
	// rebalance may have moved the segment off its declared shard, so
	// placement is pinned per segment after the re-plan
	// (pinScalePlacements), not through hints.
	rec := &scaleRec{splitName: op.Node + ".split", mergeName: op.Node + ".merge",
		replicas: op.Replicas, places: op.Places, oldShard: oldShard}
	rec.tee = pipes.NewElasticTee(rec.splitName, op.Replicas, 8, typespec.Block, typespec.Block)
	rec.om = pipes.NewOrderedMerge(rec.mergeName, op.Replicas, 8, typespec.Block, typespec.Block, rec.tee)
	split := &node{name: rec.splitName, kind: nSplit, split: rec.tee, outs: op.Replicas, place: -1}
	merge := &node{name: rec.mergeName, kind: nMerge, merge: rec.om, ins: op.Replicas, place: -1}
	g.nodes = append(g.nodes, split, merge)
	g.index[split.name], g.index[merge.name] = split, merge
	oldPlace := n.place
	n.place = -1
	t.undo = append(t.undo, func() { n.place = oldPlace })

	// Rewrite the edges: drop From->S and S->To, route the flow through the
	// tees, and give every replica its own branch pump.  The segment's pump
	// stays on whichever side of S it already was; the other side gains a
	// fresh free pump (S/feed drives the trunk, S/fold the merged tail).
	kept := g.edges[:0:0]
	for i, e := range g.edges {
		if i != inIdx && i != outIdx {
			kept = append(kept, e)
		}
	}
	g.edges = kept
	from, fromPort := in.From, core.GraphMainPort
	link := func(to string, toPort int) {
		g.edges = append(g.edges, core.GraphEdgeInfo{From: from, FromPort: fromPort, To: to, ToPort: toPort})
		from, fromPort = to, core.GraphMainPort
	}
	pump := func(name string) error {
		if _, err := t.declare(core.Pmp(pipes.NewFreePump(name)), -1); err != nil {
			return err
		}
		link(name, core.GraphMainPort)
		return nil
	}
	if pumpDownstream {
		if err := pump(op.Node + "/feed"); err != nil {
			return err
		}
	}
	link(rec.splitName, core.GraphMainPort)
	for i, rep := range repNames {
		from, fromPort = rec.splitName, i
		link(rep, core.GraphMainPort)
		if err := pump(fmt.Sprintf("%s#%d/p", op.Node, i)); err != nil {
			return err
		}
		link(rec.mergeName, i)
	}
	if !pumpDownstream {
		if err := pump(op.Node + "/fold"); err != nil {
			return err
		}
	}
	link(out.To, core.GraphMainPort)
	t.scales = append(t.scales, rec)
	return nil
}

// validate checks the op's shape and that the stage is a plain component
// interior to its segment: exactly one plain non-cut in-edge and one plain
// non-cut out-edge, both to plain stages.  It returns their edge indices.
func (op ScaleStage) validate(t *txn, ld *localDeploy) (inIdx, outIdx int, err error) {
	g := t.g
	if op.Replicas < 2 {
		return 0, 0, t.errf("ScaleStage %q to %d replicas; want at least 2", op.Node, op.Replicas)
	}
	if len(op.Places) != 0 && len(op.Places) != op.Replicas {
		return 0, 0, t.errf("ScaleStage %q carries %d placement hints for %d replicas",
			op.Node, len(op.Places), op.Replicas)
	}
	for i, p := range op.Places {
		if p < -1 || p >= ld.slots() {
			return 0, 0, t.errf("ScaleStage %q replica %d placed on shard %d, target has %d",
				op.Node, i, p, ld.slots())
		}
	}
	if n, ok := g.index[op.Node]; !ok || n.kind != nStage {
		return 0, 0, t.errf("ScaleStage target %q is not a plain stage", op.Node)
	}
	cur, ok := ld.stages[op.Node]
	if !ok {
		return 0, 0, t.errf("stage %q has no live instance", op.Node)
	}
	if _, isComp := cur.IsComponent(); !isComp {
		return 0, 0, t.errf("ScaleStage %q: only plain components scale (pumps drive one pipeline, buffers hold its items)", op.Node)
	}
	for _, nm := range []string{op.Node + ".split", op.Node + ".merge"} {
		if _, dup := g.index[nm]; dup {
			return 0, 0, t.errf("%q already exists (stage %q scaled twice?)", nm, op.Node)
		}
	}
	inIdx, outIdx = -1, -1
	for i, e := range g.edges {
		if e.To == op.Node && e.ToPort == core.GraphMainPort {
			inIdx = i
		}
		if e.From == op.Node && e.FromPort == core.GraphMainPort {
			outIdx = i
		}
	}
	if inIdx < 0 || outIdx < 0 {
		return 0, 0, t.errf("ScaleStage %q is not interior (sources and sinks do not scale)", op.Node)
	}
	in, out := g.edges[inIdx], g.edges[outIdx]
	if in.Cut || out.Cut {
		return 0, 0, t.errf("ScaleStage %q sits on a cut boundary; scale a stage interior to one segment", op.Node)
	}
	for _, peer := range []string{in.From, out.To} {
		if pn, ok := g.index[peer]; !ok || pn.kind != nStage {
			return 0, 0, t.errf("ScaleStage %q neighbors tee %q; scale a stage between plain stages", op.Node, peer)
		}
	}
	if in.FromPort != core.GraphMainPort || out.ToPort != core.GraphMainPort {
		return 0, 0, t.errf("ScaleStage %q neighbors a tee port; scale a stage between plain stages", op.Node)
	}
	return inIdx, outIdx, nil
}

// host locates the live segment hosting the stage and its single pump: it
// returns the segment's shard and whether the pump sits downstream of the
// stage.
func (op ScaleStage) host(t *txn, ld *localDeploy) (shardIdx int, pumpDownstream bool, err error) {
	for si, seg := range ld.plan.Segments {
		nodeIdx := slices.Index(seg.Stages, op.Node)
		if nodeIdx < 0 {
			continue
		}
		pumpIdx, pumps := -1, 0
		for j, s := range seg.Stages {
			if _, isPump := ld.stages[s].IsPump(); isPump {
				pumpIdx, pumps = j, pumps+1
			}
		}
		if pumps != 1 {
			return 0, false, t.errf("ScaleStage %q: segment %q has %d pumps, want exactly 1 (multi-section segments do not scale)",
				op.Node, seg.Name(), pumps)
		}
		return ld.slotOf[si], pumpIdx > nodeIdx, nil
	}
	return 0, false, t.errf("ScaleStage %q not in any planned segment", op.Node)
}

// pinScalePlacements overrides the generic segment-name remap for the
// segments a ScaleStage created or renamed: the trunk and the merged tail
// stay on the scaled segment's shard, and each replica branch takes its
// Places hint (or inherits the trunk's shard).
func pinScalePlacements(newPlan *core.GraphPlan, newShard []int, scales []*scaleRec) {
	for _, sr := range scales {
		if trunk, ok := newPlan.SplitTrunk[sr.splitName]; ok {
			newShard[trunk] = sr.oldShard
		}
		if down, ok := newPlan.MergeDown[sr.mergeName]; ok {
			newShard[down] = sr.oldShard
		}
		for i, b := range newPlan.SplitBranch[sr.splitName] {
			if b < 0 {
				continue
			}
			sh := sr.oldShard
			if i < len(sr.places) && sr.places[i] >= 0 {
				sh = sr.places[i]
			}
			newShard[b] = sh
		}
	}
}

// SetReplicas retunes how many replicas of a scaled stage receive new items,
// clamped to 1..declared — the no-quiesce knob behind autoscaling.  The
// stage must have been scaled by a ScaleStage edit (or declared as an
// elastic split).  Returns the clamped active count.
func (d *Deployment) SetReplicas(stage string, replicas int) (int, error) {
	tee, err := d.elasticOf(stage)
	if err != nil {
		return 0, err
	}
	var active int
	d.External(func() { active = tee.SetActive(replicas) })
	return active, nil
}

// Replicas reports a scaled stage's active and declared replica counts.
func (d *Deployment) Replicas(stage string) (active, declared int, err error) {
	tee, err := d.elasticOf(stage)
	if err != nil {
		return 0, 0, err
	}
	return tee.Active(), tee.Outs(), nil
}

// elasticOf resolves a stage name (or its split's name) to the live spread
// split behind it.  Local deployments only — replica scale-out is a
// structural edit, and those are local-target for now.
func (d *Deployment) elasticOf(stage string) (*pipes.Split, error) {
	ld, err := d.local()
	if err != nil {
		return nil, err
	}
	d.rbMu.Lock()
	defer d.rbMu.Unlock()
	sp, ok := ld.splits[stage+".split"]
	if !ok {
		sp = ld.splits[stage]
	}
	if tee, ok := sp.(*pipes.Split); ok && tee.Spread() {
		return tee, nil
	}
	return nil, fmt.Errorf("graph %q: %q is neither a scaled stage nor a spread split", d.name, stage)
}
