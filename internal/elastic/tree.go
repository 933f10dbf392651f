package elastic

import (
	"fmt"
	"sync"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
)

// Tree is a multi-level fan-out distribution tree: one trunk pipeline feeds
// a root copy tee whose outputs each feed an interior RELAY — and every
// relay is its own deployment that multiplies the trunk to its leaves
// through a second-level copy tee.  Subscribers attach and detach at a
// relay via the live Edit machinery (AttachBranch/DetachBranch), so churn
// quiesces exactly one relay deployment for one pump cycle — the trunk and
// every other relay never pause.  That is the point of the structure: the
// blast radius of subscriber churn is the subscriber's parent, not the
// tree.  The trunk cannot even be edited — its graph declares the root tee
// as a plain consumer stage, not a split, so it owns no branches.
//
// Determinism carries through the levels because copy tees forward the
// trunk stream verbatim: every leaf subscribed before Start sees the
// byte-identical trunk trace, and a leaf that joins mid-stream sees a
// contiguous suffix of it.
//
// Topology constraint: the trunk and every relay HEAD segment are pinned to
// shard 0 of the group — a relay's source reads the root tee's buffer
// directly, and cross-deployment buffer hand-off must stay on one
// scheduler.  Leaf branches carry their own placement hints and may live on
// any shard; the relay's split-link machinery carries items across.
//
// Lifecycle: NewTree declares the structure, Subscribe before Start wires
// initial leaves statically, Start deploys and starts everything,
// Subscribe/Unsubscribe while the stream flows edit one relay, Wait drains.
type Tree struct {
	name string
	grp  *shard.Group
	root *pipes.Split

	mu      sync.Mutex
	trunkG  *graph.Graph
	trunk   *graph.Deployment
	relays  []*treeRelay
	started bool
}

// treeRelay is one interior node: a deployment sourcing from the root
// tee's r-th output, pumping into its own copy tee.  Before Start only the
// pending leaf list exists; the tee and graph are built at Start, when the
// tee's initial width (anchors + pre-subscribed leaves) is known — a
// graph's Split declaration snapshots the port count.
type treeRelay struct {
	prefix  string
	pending []pendingLeaf
	tee     *pipes.Split
	dep     *graph.Deployment
}

// pendingLeaf is a pre-Start subscription, wired statically at deploy.
type pendingLeaf struct {
	stages []core.Stage
	place  int
}

// anchorPorts is how many permanent null-sink leaves each relay carries.
const anchorPorts = 2

// Sub identifies one subscription: which relay it hangs off and which tee
// port feeds it.
type Sub struct {
	Relay int
	Port  int
}

// NewTree declares a 3-level tree on the group: the trunk stages
// (source..pump.., in flow order — exactly one pump, like any segment) feed
// the root tee, and `relays` interior relays each multiply the trunk behind
// their own tee.  Each relay carries two permanent anchor leaves (pump +
// null sink) that never detach — they keep the tee's port invariants while
// real subscribers churn.
func NewTree(name string, grp *shard.Group, relays int, trunk ...core.Stage) (*Tree, error) {
	if relays < 1 {
		return nil, fmt.Errorf("elastic: tree %q needs at least 1 relay", name)
	}
	if len(trunk) == 0 {
		return nil, fmt.Errorf("elastic: tree %q needs trunk stages", name)
	}
	t := &Tree{name: name, grp: grp}
	t.root = pipes.NewCopyTee(name+".root", relays, 8, typespec.Block, typespec.Block)

	// Trunk: the root tee joins as a PLAIN consumer stage — not a declared
	// split — so the trunk deployment owns no branches and no edit ever
	// quiesces it.  The relay deployments own all branch surgery.
	tg := graph.New(name + ".trunk")
	names := make([]string, 0, len(trunk)+1)
	for _, st := range trunk {
		tg.Add(st, graph.Place(0))
		names = append(names, st.Name())
	}
	tg.Add(core.Comp(t.root), graph.Place(0))
	names = append(names, t.root.Name())
	tg.Pipe(names...)
	t.trunkG = tg

	for r := 0; r < relays; r++ {
		t.relays = append(t.relays, &treeRelay{prefix: fmt.Sprintf("%s.r%d", name, r)})
	}
	return t, nil
}

// buildRelay constructs relay r's graph now that its initial width is
// known: head (root tee output) >> pump >> relay tee, anchors on ports
// 0..anchorPorts-1, pre-subscribed leaves on the ports Subscribe promised.
func (t *Tree) buildRelay(r int) *graph.Graph {
	rel := t.relays[r]
	rel.tee = pipes.NewCopyTee(rel.prefix+".tee", anchorPorts+len(rel.pending), 8,
		typespec.Block, typespec.Block)
	g := graph.New(rel.prefix)
	head := t.root.Out(r)
	g.Add(core.Comp(head), graph.Place(0))
	g.Add(core.Pmp(pipes.NewFreePump(rel.prefix+".pump")), graph.Place(0))
	g.Split(rel.tee, graph.Place(0))
	g.Pipe(head.Name(), rel.prefix+".pump", rel.tee.Name())
	for a := 0; a < anchorPorts; a++ {
		pn := fmt.Sprintf("%s.a%dp", rel.prefix, a)
		sn := fmt.Sprintf("%s.a%d", rel.prefix, a)
		g.Add(core.Pmp(pipes.NewFreePump(pn)))
		g.Add(core.Comp(pipes.NullSink(sn)))
		g.Pipe(fmt.Sprintf("%s:%d", rel.tee.Name(), a), pn, sn)
	}
	for i, pl := range rel.pending {
		refs := make([]string, 0, len(pl.stages)+1)
		refs = append(refs, fmt.Sprintf("%s:%d", rel.tee.Name(), anchorPorts+i))
		for _, st := range pl.stages {
			if pl.place >= 0 {
				g.Add(st, graph.Place(pl.place))
			} else {
				g.Add(st)
			}
			refs = append(refs, st.Name())
		}
		g.Pipe(refs...)
	}
	return g
}

// Start deploys the trunk and every relay on the group and starts them
// (relays first, so every level is listening before the trunk pushes).  It
// must precede Group.Start: Start is what deploys, and a group started
// while still empty exits at once (graph.ErrGroupExited).
func (t *Tree) Start() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		return fmt.Errorf("elastic: tree %q already started", t.name)
	}
	for r, rel := range t.relays {
		d, err := t.buildRelay(r).Deploy(graph.OnGroup(t.grp))
		if err != nil {
			return fmt.Errorf("elastic: tree %q: relay %d deploy: %w", t.name, r, err)
		}
		rel.dep = d
	}
	td, err := t.trunkG.Deploy(graph.OnGroup(t.grp))
	if err != nil {
		return fmt.Errorf("elastic: tree %q: trunk deploy: %w", t.name, err)
	}
	t.trunk = td
	t.started = true
	// One external action: no level's pumps tick before every level has
	// been told to start.
	t.grp.External(func() {
		for _, rel := range t.relays {
			rel.dep.Start()
		}
		t.trunk.Start()
	})
	return nil
}

// Relays reports the interior fan-out width.
func (t *Tree) Relays() int { return len(t.relays) }

// Trunk returns the trunk deployment (stats, liveness counters); nil before
// Start.
func (t *Tree) Trunk() *graph.Deployment {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trunk
}

// Relay returns relay r's deployment; nil before Start.
func (t *Tree) Relay(r int) *graph.Deployment {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.relays[r].dep
}

// TrunkCycles sums the trunk deployment's pump-cycle counters — a
// monotonically increasing liveness signal.  Churn at the relays must
// never stall it: the trunk keeps cycling through every subscriber edit.
func (t *Tree) TrunkCycles() int64 {
	d := t.Trunk()
	if d == nil {
		return 0
	}
	var n int64
	for _, seg := range d.Stats().Segments {
		n += seg.Cycles
	}
	return n
}

// Subscribe attaches a new leaf under relay r: the stages (pump + sink, in
// flow order) compose into a branch fed from a fresh tee port, placed on
// shard `place` (-1 for the planner's choice).  Before Start the branch is
// wired statically and will see the stream from its first item; after
// Start, only relay r's deployment quiesces — for one pump cycle — and the
// leaf receives a contiguous suffix.  Returns the handle for Unsubscribe.
func (t *Tree) Subscribe(r int, place int, stages ...core.Stage) (Sub, error) {
	if r < 0 || r >= len(t.relays) {
		return Sub{}, fmt.Errorf("elastic: tree %q has no relay %d", t.name, r)
	}
	if len(stages) == 0 {
		return Sub{}, fmt.Errorf("elastic: tree %q: subscription needs stages", t.name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rel := t.relays[r]
	if !t.started {
		port := anchorPorts + len(rel.pending)
		rel.pending = append(rel.pending, pendingLeaf{stages: stages, place: place})
		return Sub{Relay: r, Port: port}, nil
	}
	port := rel.tee.Outs() // ports only grow; the attach takes this index
	err := rel.dep.Edit(graph.AttachBranch{Split: rel.tee.Name(), Stages: stages, Place: place})
	if err != nil {
		return Sub{}, fmt.Errorf("elastic: tree %q: subscribe at relay %d: %w", t.name, r, err)
	}
	return Sub{Relay: r, Port: port}, nil
}

// Unsubscribe detaches a leaf from the running tree: its tee port is
// tombstoned, the branch drains what it already received and ends with a
// clean EOS.  Again only the leaf's parent relay quiesces.
func (t *Tree) Unsubscribe(s Sub) error {
	if s.Relay < 0 || s.Relay >= len(t.relays) {
		return fmt.Errorf("elastic: tree %q has no relay %d", t.name, s.Relay)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started {
		return fmt.Errorf("elastic: tree %q: unsubscribe before Start", t.name)
	}
	rel := t.relays[s.Relay]
	if err := rel.dep.Edit(graph.DetachBranch{Split: rel.tee.Name(), Port: s.Port}); err != nil {
		return fmt.Errorf("elastic: tree %q: unsubscribe relay %d port %d: %w", t.name, s.Relay, s.Port, err)
	}
	return nil
}

// Wait blocks until the trunk and every relay drained their streams.
func (t *Tree) Wait() error {
	t.mu.Lock()
	trunk, relays := t.trunk, append([]*treeRelay(nil), t.relays...)
	started := t.started
	t.mu.Unlock()
	if !started {
		return fmt.Errorf("elastic: tree %q never started", t.name)
	}
	if err := trunk.Wait(); err != nil {
		return fmt.Errorf("elastic: tree %q: trunk: %w", t.name, err)
	}
	for r, rel := range relays {
		if err := rel.dep.Wait(); err != nil {
			return fmt.Errorf("elastic: tree %q: relay %d: %w", t.name, r, err)
		}
	}
	return nil
}
