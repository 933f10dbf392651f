package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"infopipes/internal/core"
	"infopipes/internal/qos"
	"infopipes/internal/remote"
	"infopipes/internal/typespec"
)

// This file decides, once for every target, how a segment meets its
// neighbours: a direct tee port, the tee sink, a merge port, or a link.  A
// cut is always a link; a tee port is one only when its ends sit in
// different address spaces, and then stays one wherever they move, so the
// link's journal carries the in-flight items.  Inside one address space a
// link is a buffer, read or filled on whatever shard a segment runs.  A host
// renders for its target: live core.Stages (local.go), or remote.StageSpecs
// joined by TCP lanes or same-node cut buffers (remote.go): a split's port
// that is a lane is its sending end, a merge's gets a relay.

// host renders, links and composes for one target.  P is what a part list
// holds; L is how a link is realized, its zero value an unbound link.
type host[P any, L comparable] interface {
	// apart reports whether slots a and b are different address spaces.
	apart(a, b int) bool
	// link realizes lane from segment from to segment to: it binds l when it
	// is unbound and returns a bound one as it is.
	link(lane string, l L, from, to int) (L, error)
	recv(lane string, l L) []P
	// send renders the sending end of lane for segment from.
	send(lane string, l L, from int) []P
	// tee renders the tee boundary e: a split's out-port or sink, a merge's
	// in-port or out-port.
	tee(e core.SegmentEnd) P
	stage(name string) P
	// compose composes pipeline name from parts on slot (seg is its plan
	// segment, -1 for a pipeline off the plan) and returns the Typespec
	// leaving every part.
	// admit asks for the tenant's admission gate: the segment is a true
	// source.
	compose(name string, slot, seg int, parts []P, seed typespec.Typespec, admit bool) ([]typespec.Typespec, error)
}

// wiring is a deployment's boundary state, the same for every target.
type wiring[P any, L comparable] struct {
	h      host[P, L]
	d      *Deployment
	g      *Graph
	name   string
	plan   *core.GraphPlan
	slotOf []int // shard or node by segment
	// links is the one table of links, keyed by lane name: present once a
	// boundary is linked, the zero L while a move has it unbound.
	links map[string]L
	// segOutSpec[i] is the Typespec leaving segment i's last declared stage,
	// the seed of what is wired to it directly (§2.3 checking crosses tees);
	// laneSeed enters each link's receiving end, mergeInSpec each merge
	// in-port.
	segOutSpec  []typespec.Typespec
	laneSeed    map[string]typespec.Typespec
	mergeInSpec map[string][]typespec.Typespec
	ledger      ledger
}

// setup starts the wiring of deployment d of g's plan placed by slotOf.
func (w *wiring[P, L]) setup(h host[P, L], d *Deployment, g *Graph, plan *core.GraphPlan, slotOf []int) {
	w.h, w.d, w.g, w.name, w.plan, w.slotOf = h, d, g, d.name, plan, slotOf
	w.links, w.laneSeed = make(map[string]L), make(map[string]typespec.Typespec)
	w.segOutSpec, w.mergeInSpec = make([]typespec.Typespec, len(plan.Segments)), make(map[string][]typespec.Typespec)
	for name, ports := range plan.MergeBranch {
		w.mergeInSpec[name] = make([]typespec.Typespec, len(ports))
	}
	w.ledger.byName, w.ledger.bySlot = make(map[string]counts), make(map[int]counts)
}

func (w *wiring[P, L]) graph() *Graph { return w.g }

func (w *wiring[P, L]) wired() (*core.GraphPlan, []int, []typespec.Typespec) {
	return w.plan, w.slotOf, w.segOutSpec
}

// laneName renders the canonical name of a tee-boundary lane.
func (w *wiring[P, L]) laneName(node string, port int) string {
	return fmt.Sprintf("%s/%s:%d", w.name, node, port)
}

// cutLane renders the canonical name of a cut-edge lane.
func (w *wiring[P, L]) cutLane(ci int) string {
	return fmt.Sprintf("%s/cut%d", w.name, ci)
}

// linkIf returns lane when the tee boundary between segments from and to is
// a link: once linked, or when its ends sit in different address spaces.
func (w *wiring[P, L]) linkIf(lane string, from, to int) string {
	if _, linked := w.links[lane]; linked || w.h.apart(w.slotOf[from], w.slotOf[to]) {
		return lane
	}
	return ""
}

// inLane returns the lane of segment si's inbound link, "" when its head is
// wired directly.
func (w *wiring[P, L]) inLane(si int) string {
	switch h := w.plan.Segments[si].Head; h.Kind {
	case core.EndSplitOut:
		return w.linkIf(w.laneName(h.Node, h.Port), w.plan.SplitTrunk[h.Node], si)
	case core.EndCut:
		return w.cutLane(h.Port)
	}
	return ""
}

// outLane returns the lane of segment si's (single) outbound link, "" when
// its tail is wired directly.
func (w *wiring[P, L]) outLane(si int) string {
	switch t := w.plan.Segments[si].Tail; t.Kind {
	case core.EndMergeIn:
		return w.linkIf(w.laneName(t.Node, t.Port), si, w.plan.MergeDown[t.Node])
	case core.EndCut:
		return w.cutLane(t.Port)
	}
	return ""
}

// portLanes returns the lanes of split tee's ports by port, "" for a port
// wired directly.
func (w *wiring[P, L]) portLanes(tee string) []string {
	branches := w.plan.SplitBranch[tee]
	lanes := make([]string, len(branches))
	for port, bi := range branches {
		if bi >= 0 {
			lanes[port] = w.inLane(bi)
		}
	}
	return lanes
}

// segmentParts renders segment si — head boundary, declared stages, tail
// boundary — and the index of its first tail part.
func (w *wiring[P, L]) segmentParts(si int) (parts []P, tailStart int) {
	seg := w.plan.Segments[si]
	in, out := w.inLane(si), w.outLane(si)
	switch h := seg.Head; {
	case in != "":
		parts = w.h.recv(in, w.links[in])
	case h.Kind != core.EndNone:
		parts = append(parts, w.h.tee(h))
	}
	for _, name := range seg.Stages {
		parts = append(parts, w.h.stage(name))
	}
	tailStart = len(parts)
	switch t := seg.Tail; {
	case out != "":
		parts = append(parts, w.h.send(out, w.links[out], si)...)
	case t.Kind != core.EndNone:
		parts = append(parts, w.h.tee(t))
	}
	return parts, tailStart
}

// specAt returns the Typespec leaving part i of a composed part list.
func specAt(specs []typespec.Typespec, i int) typespec.Typespec {
	if i < 0 || i >= len(specs) {
		return typespec.Typespec{}
	}
	return specs[i]
}

// seed returns the Typespec entering segment si, from what its upstream
// recorded: its inbound link's, the out-spec of the segment it is wired to
// directly, or the merge of a merge tee's in-ports.
func (w *wiring[P, L]) seed(si int) (seed typespec.Typespec, err error) {
	if lane := w.inLane(si); lane != "" {
		return w.laneSeed[lane], nil
	}
	h := w.plan.Segments[si].Head
	if h.Kind != core.EndMergeOut {
		if up := w.plan.Upstream(si); len(up) > 0 {
			seed = w.segOutSpec[up[0]]
		}
		return seed, nil
	}
	for port, ts := range w.mergeInSpec[h.Node] {
		if seed, err = seed.Merge(ts); err != nil {
			return seed, fmt.Errorf("graph %q: merging flows into %q: in-port %d: %w", w.name, h.Node, port, err)
		}
	}
	return seed, nil
}

// boundary is one linked end of a segment: lane from segment from to to.
type boundary struct {
	lane     string
	from, to int
}

// bind binds the links at segment si's ends, and at the ports of the split
// it feeds, and returns those it bound afresh, also when it fails part way.
func (w *wiring[P, L]) bind(si int) ([]boundary, error) {
	var ends, fresh []boundary
	if in := w.inLane(si); in != "" {
		ends = append(ends, boundary{in, w.plan.Upstream(si)[0], si})
	}
	if out := w.outLane(si); out != "" {
		ends = append(ends, boundary{out, si, w.plan.Downstream(si)[0]})
	}
	if t := w.plan.Segments[si].Tail; t.Kind == core.EndSplitTrunk {
		for port, lane := range w.portLanes(t.Node) {
			if lane != "" {
				ends = append(ends, boundary{lane, si, w.plan.SplitBranch[t.Node][port]})
			}
		}
	}
	for _, e := range ends {
		var zero L
		was := w.links[e.lane]
		l, err := w.h.link(e.lane, was, e.from, e.to)
		if err != nil {
			return fresh, err
		}
		if was == zero {
			fresh = append(fresh, e)
		}
		w.links[e.lane] = l
	}
	return fresh, nil
}

// place wires segment si on its slot: it binds the links at its ends and
// composes it.  A deploy calls it in topological order; a reconfiguration
// calls it again over links bound long ago.
func (w *wiring[P, L]) place(si int) error {
	if _, err := w.bind(si); err != nil {
		return err
	}
	return w.composeSegment(si)
}

// composeSegment composes segment si over its bound links and records the
// Typespecs it leaves at its tail and on its outbound link.
func (w *wiring[P, L]) composeSegment(si int) error {
	seg := w.plan.Segments[si]
	out := w.outLane(si)
	parts, tailStart := w.segmentParts(si)
	seed, err := w.seed(si)
	if err != nil {
		return err
	}
	specs, err := w.h.compose(w.name+"/"+seg.Name(), w.slotOf[si], si, parts, seed, seg.Head.Kind == core.EndNone)
	if err != nil {
		return err
	}
	w.segOutSpec[si] = seed
	if tailStart > 0 {
		w.segOutSpec[si] = specAt(specs, tailStart-1)
	}
	// A link's receiver is seeded with what enters the link's last sending
	// part: on a lane the WIRE Typespec, whose carried-item-type property
	// lets the receiving node's unmarshal restore the logical type.
	if out != "" {
		w.laneSeed[out] = specAt(specs, len(parts)-2)
	}
	if t := seg.Tail; t.Kind == core.EndMergeIn && out == "" {
		w.mergeInSpec[t.Node][t.Port] = w.segOutSpec[si]
	}
	return nil
}

// counts are the pump counters of one pipeline, or a fold of several.
type counts struct {
	items, cycles, busyNs int64
}

// ledger folds the counters of the pipeline generations a reconfiguration
// retired, by pipeline name and by the slot each ran on: Stats stays
// cumulative, and per-slot load reflects where work happened (else the
// balancer would chase migrated history).
type ledger struct {
	mu     sync.Mutex
	byName map[string]counts
	bySlot map[int]counts
}

// fold adds a retired pipeline's counters; slot < 0 attributes them to no
// slot.
func (l *ledger) fold(name string, slot int, c counts) {
	l.mu.Lock()
	defer l.mu.Unlock()
	add := func(sum counts) counts {
		return counts{sum.items + c.items, sum.cycles + c.cycles, sum.busyNs + c.busyNs}
	}
	l.byName[name] = add(l.byName[name])
	if slot >= 0 {
		l.bySlot[slot] = add(l.bySlot[slot])
	}
}

// pipeRow is one pipeline's live reading, as its host took it.
type pipeRow struct {
	name string
	seg  int // plan segment index, -1 for a pipeline off the plan
	slot int // where the deployment places it now
	ran  int // where the live counters were earned, -1 for nowhere
	eos  bool
	counts
}

// fold folds per-pipeline rows, the ledger and the tenant's per-slot rows
// into one GraphStats: segments in plan order, then the pipelines off the
// plan (relays, drains), each cumulative across generations, with per-slot
// load.
func (w *wiring[P, L]) fold(rows []pipeRow, slots int, t *qos.Tenant, tenantRows []remote.TenantStat) GraphStats {
	st := GraphStats{Shards: make([]ShardLoad, slots)}
	// Off-plan pipelines (seg -1, the largest uint) after the segments.
	slices.SortStableFunc(rows, func(a, b pipeRow) int { return cmp.Compare(uint(a.seg), uint(b.seg)) })
	w.ledger.mu.Lock()
	defer w.ledger.mu.Unlock()
	for slot, c := range w.ledger.bySlot {
		if slot < slots {
			st.Shards[slot].Items, st.Shards[slot].BusyNanos = c.items, c.busyNs
		}
	}
	for _, r := range rows {
		ret := w.ledger.byName[r.name]
		s := SegmentStats{Name: r.name, Shard: r.slot, Relay: r.seg < 0, Finished: r.eos,
			Items:     r.items + ret.items,
			Cycles:    r.cycles + ret.cycles,
			BusyNanos: r.busyNs + ret.busyNs,
		}
		if r.seg >= 0 {
			s.Name = w.plan.Segments[r.seg].Name()
		}
		if r.ran >= 0 && r.ran < slots {
			st.Shards[r.ran].Items += r.items
			st.Shards[r.ran].BusyNanos += r.busyNs
		}
		if !s.Finished && r.slot >= 0 && r.slot < slots {
			st.Shards[r.slot].Pipelines++
			if !s.Relay {
				st.Shards[r.slot].Segments++
			}
		}
		st.Segments = append(st.Segments, s)
	}

	if t == nil || len(tenantRows) == 0 {
		return st
	}
	row := TenantStats{Tenant: t.Name(), Weight: t.Weight()}
	var granted, cycles int64
	for _, tr := range tenantRows {
		row.Admitted += tr.Admitted
		row.Sheds += tr.Sheds
		row.CreditDebt += tr.CreditDebt
		granted += tr.Granted
		cycles += tr.SchedCycles
	}
	if cycles > 0 {
		row.Share = float64(granted) / float64(cycles)
	}
	st.Tenants = append(st.Tenants, row)
	return st
}
