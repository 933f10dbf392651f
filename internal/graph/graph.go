// Package graph implements the Graph composition API: applications declare
// an information-flow graph — named stages, fan-out and fan-in tees,
// explicit cut points — exactly once, and bind the placement as policy by
// deploying the same graph onto a single scheduler (everything in-process),
// a SchedulerGroup (the planner cuts the graph into per-shard segments that
// meet at buffers, as on one scheduler), or remote nodes (segments composed
// through the §2.4 remote-setup protocol, joined by TCP netpipes).
//
// The separation follows RAFDA's argument that logical composition and
// distribution policy are independent concerns bound late: the paper's
// composition operator (source >> decode >> pump >> sink) says nothing
// about threads or hosts, and neither does a Graph.
//
//	g := graph.New("diamond")
//	g.Add(core.Comp(src)).Add(core.Pmp(pump)).Split(tee)
//	g.Add(core.Comp(fa)).Add(core.Pmp(pa))
//	g.Add(core.Comp(fb)).Add(core.Pmp(pb))
//	g.Merge(mrg)
//	g.Add(core.Pmp(out)).Add(core.Comp(sink))
//	g.Pipe("src", "pump", "tee")
//	g.Pipe("tee:0", "fa", "pa", "mrg:0")
//	g.Pipe("tee:1", "fb", "pb", "mrg:1")
//	g.Pipe("mrg", "out", "sink")
//	d, err := g.Deploy(graph.OnGroup(group))   // or OnScheduler / OnNodes
//	d.Start(); err = d.Wait()
//
// Stages may be declared as live instances (Add/Split/Merge) or as specs
// (AddSpec/SplitSpec/MergeSpec) resolved through a Catalog — spec-backed
// graphs deploy unchanged onto remote nodes too.
package graph

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"infopipes/internal/core"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/typespec"
)

// StageFactory builds one pipeline stage from a spec: the instance name,
// positional arguments and key=value parameters.
type StageFactory func(name string, args []string, params map[string]string) (core.Stage, error)

// Catalog maps spec kinds to stage factories.  The ipcl package adapts its
// registry to a Catalog, so textual pipelines and spec-backed graphs draw
// from the same component library.
type Catalog map[string]StageFactory

// Spec describes a spec-backed node: the catalog kind plus arguments.
type Spec struct {
	Kind   string
	Args   []string
	Params map[string]string
}

type nodeKind int

const (
	nStage nodeKind = iota + 1
	nSplit
	nMerge
)

// node is one declared graph node.
type node struct {
	name  string
	kind  nodeKind
	stage core.Stage      // live stage (zero if spec-backed)
	split core.SplitPoint // live split
	merge core.MergePoint // live merge
	spec  *Spec           // non-nil for spec-backed nodes
	outs  int             // split fan-out
	ins   int             // merge fan-in
	place int             // placement hint, -1 none
	// detachedOuts lists split out-ports tombstoned by a live DetachBranch
	// edit: the port keeps its index but has no edge and no branch segment.
	detachedOuts []int
}

// NodeOption adjusts one node declaration.
type NodeOption func(*node)

// Place hints the placement of a node: the shard index under a group
// target, the node index under a remote target.  All hinted stages of one
// linear segment must agree; a single-scheduler target ignores hints (the
// whole graph collapses onto it).
func Place(i int) NodeOption {
	return func(n *node) { n.place = i }
}

// WithArgs sets a spec node's positional arguments.
func WithArgs(args ...string) NodeOption {
	return func(n *node) { n.spec.Args = append(n.spec.Args, args...) }
}

// WithParam sets one spec parameter.
func WithParam(key, val string) NodeOption {
	return func(n *node) {
		if n.spec.Params == nil {
			n.spec.Params = make(map[string]string, 4)
		}
		n.spec.Params[key] = val
	}
}

// Graph is the builder.  Declaration methods record errors instead of
// returning them (so declarations chain); Deploy (or Err) reports the first
// one.
type Graph struct {
	name    string
	catalog Catalog
	nodes   []*node
	index   map[string]*node
	edges   []core.GraphEdgeInfo
	errs    []error
}

// New starts an empty graph.
func New(name string) *Graph {
	return &Graph{name: name, index: make(map[string]*node)}
}

// Name returns the graph name.
func (g *Graph) Name() string { return g.name }

// UseCatalog sets the catalog that materializes spec-backed nodes on local
// deployments (remote nodes resolve specs against their own registries).
func (g *Graph) UseCatalog(c Catalog) *Graph {
	g.catalog = c
	return g
}

func (g *Graph) fail(format string, args ...any) *Graph {
	g.errs = append(g.errs, fmt.Errorf(format, args...))
	return g
}

func (g *Graph) declare(n *node, opts ...NodeOption) *Graph {
	if n.name == "" {
		return g.fail("graph %q: node with empty name", g.name)
	}
	if _, dup := g.index[n.name]; dup {
		return g.fail("graph %q: duplicate node name %q", g.name, n.name)
	}
	if n.spec == nil {
		// Live nodes carry their configuration in the instance itself:
		// spec-only options would silently vanish, so reject them.
		n.spec = &Spec{}
		for _, opt := range opts {
			opt(n)
		}
		if len(n.spec.Args) > 0 || len(n.spec.Params) > 0 {
			n.spec = nil
			return g.fail("graph %q: node %q is a live instance; WithArgs/WithParam apply to spec-backed nodes only",
				g.name, n.name)
		}
		n.spec = nil
	} else {
		for _, opt := range opts {
			opt(n)
		}
	}
	g.nodes = append(g.nodes, n)
	g.index[n.name] = n
	return g
}

// Add declares a live pipeline stage (component, buffer or pump).  The node
// name is the stage's own name.
func (g *Graph) Add(st core.Stage, opts ...NodeOption) *Graph {
	return g.declare(&node{name: st.Name(), kind: nStage, stage: st, place: -1}, opts...)
}

// AddSpec declares a spec-backed stage, materialized through the catalog on
// local deployments and shipped as a StageSpec to remote nodes.
func (g *Graph) AddSpec(name, kind string, opts ...NodeOption) *Graph {
	return g.declare(&node{name: name, kind: nStage, spec: &Spec{Kind: kind}, place: -1}, opts...)
}

// Split declares a live fan-out tee.
func (g *Graph) Split(sp core.SplitPoint, opts ...NodeOption) *Graph {
	return g.declare(&node{name: sp.Name(), kind: nSplit, split: sp, outs: sp.Outs(), place: -1}, opts...)
}

// SplitSpec declares a spec-backed fan-out tee.  kind is "copy" (multicast)
// or "route" (per-item routing; parameter sel = "rr" round-robin or "mod"
// sequence-modulo).  Parameters cap/push/pull configure the port buffers.
func (g *Graph) SplitSpec(name, kind string, outs int, opts ...NodeOption) *Graph {
	return g.declare(&node{name: name, kind: nSplit, outs: outs,
		spec: &Spec{Kind: kind}, place: -1}, opts...)
}

// Merge declares a live fan-in tee.
func (g *Graph) Merge(mp core.MergePoint, opts ...NodeOption) *Graph {
	return g.declare(&node{name: mp.Name(), kind: nMerge, merge: mp, ins: mp.Ins(), place: -1}, opts...)
}

// MergeSpec declares a spec-backed fan-in tee (arrival-order merge).
func (g *Graph) MergeSpec(name string, ins int, opts ...NodeOption) *Graph {
	return g.declare(&node{name: name, kind: nMerge, ins: ins,
		spec: &Spec{Kind: "merge"}, place: -1}, opts...)
}

// parseRef splits "name" or "name:port" into node name and port.
func (g *Graph) parseRef(ref string) (string, int, error) {
	name, portStr, hasPort := strings.Cut(ref, ":")
	if !hasPort {
		return name, core.GraphMainPort, nil
	}
	p, err := strconv.Atoi(portStr)
	if err != nil || p < 0 {
		return "", 0, fmt.Errorf("graph %q: bad port in reference %q", g.name, ref)
	}
	return name, p, nil
}

// Pipe connects the referenced nodes in order: Pipe("a", "b", "c") adds the
// edges a->b and b->c.  Tee ports are addressed "tee:0"; a split's trunk
// input and a merge's output use the bare name.
func (g *Graph) Pipe(refs ...string) *Graph {
	if len(refs) < 2 {
		return g.fail("graph %q: Pipe needs at least two stages", g.name)
	}
	for i := 0; i+1 < len(refs); i++ {
		g.edge(refs[i], refs[i+1], false)
	}
	return g
}

// Cut connects two plain stages across an explicit segment boundary: the
// deployment target joins the two segments with a buffer inside one address
// space (a scheduler, a group, one node) or a TCP netpipe between nodes,
// letting the flow change shards or nodes mid-chain.
func (g *Graph) Cut(from, to string) *Graph {
	return g.edge(from, to, true)
}

func (g *Graph) edge(fromRef, toRef string, cut bool) *Graph {
	from, fromPort, err := g.parseRef(fromRef)
	if err != nil {
		g.errs = append(g.errs, err)
		return g
	}
	to, toPort, err := g.parseRef(toRef)
	if err != nil {
		g.errs = append(g.errs, err)
		return g
	}
	g.edges = append(g.edges, core.GraphEdgeInfo{
		From: from, FromPort: fromPort, To: to, ToPort: toPort, Cut: cut,
	})
	return g
}

// Err reports the first declaration error, or nil.
func (g *Graph) Err() error {
	if len(g.errs) > 0 {
		return g.errs[0]
	}
	return nil
}

// infos derives the planner's node descriptions.
func (g *Graph) infos() []core.GraphNodeInfo {
	out := make([]core.GraphNodeInfo, 0, len(g.nodes))
	for _, n := range g.nodes {
		info := core.GraphNodeInfo{Name: n.name, Place: n.place, Outs: n.outs, Ins: n.ins,
			DetachedOuts: n.detachedOuts}
		switch n.kind {
		case nStage:
			info.Kind = core.GraphStage
		case nSplit:
			info.Kind = core.GraphSplit
		case nMerge:
			info.Kind = core.GraphMerge
		}
		out = append(out, info)
	}
	return out
}

// Plan validates the graph and returns its segmentation (diagnostics and
// tests; Deploy plans internally).
func (g *Graph) Plan() (*core.GraphPlan, error) {
	if err := g.Err(); err != nil {
		return nil, err
	}
	return core.PlanGraph(g.infos(), g.edges)
}

// Target is a deployment destination.  Implementations: OnScheduler,
// OnGroup, OnNodes.
type Target interface {
	deploy(g *Graph, plan *core.GraphPlan) (*Deployment, error)
}

// Deploy plans the graph and binds it to the target: one pipeline per
// segment, and at every cut edge a buffer, or a TCP lane between nodes.  A
// tee port whose ends land on different nodes is a lane too: a split's port
// is the lane's sending end, and a relay pipeline beside a merge pumps the
// lane into its in-port; elsewhere a port is the tee's own buffer.  The
// returned Deployment joins Start/Stop/Err/Done across all of them.
func (g *Graph) Deploy(t Target) (*Deployment, error) {
	plan, err := g.Plan()
	if err != nil {
		return nil, err
	}
	return t.deploy(g, plan)
}

// materialize resolves every spec-backed node to a live instance (local
// deployments).  Idempotent per Deploy call — each Deploy materializes
// fresh instances for spec nodes, while live nodes are shared across
// deployments (deploy a live graph once).
func (g *Graph) materialize() (map[string]core.Stage, map[string]core.SplitPoint, map[string]core.MergePoint, error) {
	stages := make(map[string]core.Stage, len(g.nodes))
	splits := make(map[string]core.SplitPoint)
	merges := make(map[string]core.MergePoint)
	for _, n := range g.nodes {
		switch {
		case n.kind == nStage && n.spec == nil:
			stages[n.name] = n.stage
		case n.kind == nStage:
			f, ok := g.catalog[n.spec.Kind]
			if !ok {
				return nil, nil, nil, fmt.Errorf("graph %q: stage %q: kind %q not in catalog (UseCatalog, or declare the stage live)",
					g.name, n.name, n.spec.Kind)
			}
			st, err := f(n.name, n.spec.Args, n.spec.Params)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("graph %q: stage %q: %w", g.name, n.name, err)
			}
			stages[n.name] = st
		case n.kind == nSplit && n.spec == nil:
			splits[n.name] = n.split
		case n.kind == nSplit:
			sp, err := BuildSplit(n.name, n.spec.Kind, n.outs, n.spec.Params)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("graph %q: %w", g.name, err)
			}
			splits[n.name] = sp
		case n.kind == nMerge && n.spec == nil:
			merges[n.name] = n.merge
		case n.kind == nMerge:
			mp, err := BuildMerge(n.name, n.ins, n.spec.Params)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("graph %q: %w", g.name, err)
			}
			merges[n.name] = mp
		}
	}
	return stages, splits, merges, nil
}

// BuildSplit materializes a spec-backed split tee; shared with the node-side
// remote factories so local and remote deployments build identical tees.
func BuildSplit(name, kind string, outs int, params map[string]string) (*pipes.Split, error) {
	capacity, push, pull, err := teeBufferParams(params)
	if err != nil {
		return nil, fmt.Errorf("split %q: %w", name, err)
	}
	switch kind {
	case "copy", "split", "":
		return pipes.NewCopyTee(name, outs, capacity, push, pull), nil
	case "route":
		sel, err := buildSelector(params["sel"], outs)
		if err != nil {
			return nil, fmt.Errorf("split %q: %w", name, err)
		}
		return pipes.NewRouteTee(name, outs, capacity, push, pull, sel), nil
	case "elastic":
		return pipes.NewElasticTee(name, outs, capacity, push, pull), nil
	default:
		return nil, fmt.Errorf("split %q: unknown split kind %q (want copy, route or elastic)", name, kind)
	}
}

// BuildMerge materializes a spec-backed merge tee: arrival order by
// default, ascending-Seq reconstruction with ord=seq (the replica fold-in;
// see pipes.NewElasticTee for the 1:1 seq-preserving contract).
func BuildMerge(name string, ins int, params map[string]string) (*pipes.Merge, error) {
	capacity, push, pull, err := teeBufferParams(params)
	if err != nil {
		return nil, fmt.Errorf("merge %q: %w", name, err)
	}
	switch params["ord"] {
	case "":
		return pipes.NewMergeTee(name, ins, capacity, push, pull), nil
	case "seq":
		return pipes.NewOrderedMerge(name, ins, capacity, push, pull, nil), nil
	default:
		return nil, fmt.Errorf("merge %q: unknown merge order %q (want seq or unset)", name, params["ord"])
	}
}

// buildSelector resolves a named route selector: spec-backed route tees
// cannot carry closures across the wire, so they pick from a fixed menu.
func buildSelector(sel string, outs int) (func(*item.Item) int, error) {
	switch sel {
	case "", "rr":
		next := 0
		return func(*item.Item) int {
			i := next
			next = (next + 1) % outs
			return i
		}, nil
	case "mod":
		n := int64(outs)
		return func(it *item.Item) int {
			return int((it.Seq - 1) % n)
		}, nil
	default:
		return nil, fmt.Errorf("unknown route selector %q (want rr or mod)", sel)
	}
}

func teeBufferParams(params map[string]string) (capacity int, push, pull typespec.BlockPolicy, err error) {
	capacity, push, pull = 8, typespec.Block, typespec.Block
	if v, ok := params["cap"]; ok {
		capacity, err = strconv.Atoi(v)
		if err != nil || capacity < 1 {
			return 0, 0, 0, fmt.Errorf("bad cap %q", v)
		}
	}
	if push, err = blockParam(params, "push", push); err != nil {
		return 0, 0, 0, err
	}
	if pull, err = blockParam(params, "pull", pull); err != nil {
		return 0, 0, 0, err
	}
	return capacity, push, pull, nil
}

func blockParam(params map[string]string, key string, def typespec.BlockPolicy) (typespec.BlockPolicy, error) {
	v, ok := params[key]
	if !ok {
		return def, nil
	}
	pol, err := typespec.ParseBlockPolicy(v)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", key, err)
	}
	return pol, nil
}

// errNotSpecBacked marks live nodes in a remote deployment.
var errNotSpecBacked = errors.New("graph: node is not spec-backed")

// resolvePlacement turns the planner's per-segment hints into concrete
// slot indices for a target with `capacity` slots (shards or nodes; `slot`
// names them in errors).
func resolvePlacement(g *Graph, plan *core.GraphPlan, capacity int, slot string, fromPolicy func() int) ([]int, error) {
	out := make([]int, len(plan.Segments))
	for i, seg := range plan.Segments {
		if seg.Place >= capacity {
			return nil, fmt.Errorf("graph %q: segment %q hinted to %s %d, target has %d",
				g.name, seg.Name(), slot, seg.Place, capacity)
		}
		out[i] = -1
	}
	placeUnresolved(plan, out, fromPolicy)
	return out, nil
}

// placeUnresolved fills the unresolved (-1) entries of out: a hinted
// segment takes its hint, unhinted segments inherit across tee boundaries
// — keeping a tee and its port pipelines together costs no lanes — and
// free-standing chains (true sources, cut heads) fall to the target's
// placement policy.  plan.Order guarantees the upstream side resolves
// first.
func placeUnresolved(plan *core.GraphPlan, out []int, fromPolicy func() int) {
	for _, si := range plan.Order {
		if out[si] >= 0 {
			continue
		}
		seg := plan.Segments[si]
		switch h := seg.Head; {
		case seg.Place >= 0:
			out[si] = seg.Place
		case h.Kind == core.EndSplitOut:
			out[si] = out[plan.SplitTrunk[h.Node]]
		case h.Kind == core.EndMergeOut:
			out[si] = out[plan.MergeBranch[h.Node][0]]
		default:
			out[si] = fromPolicy()
		}
	}
}
