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

// Tree is a fan-out distribution tree deployed as ONE graph: trunk >> root
// copy split >> one RELAY segment per port (a pump into its own copy split)
// >> two anchor leaves (pump + null sink, keeping the split's port
// invariants) and the subscribers.  Subscribe and Unsubscribe are each one
// Edit, which quiesces only the leaf and the relay whose split changes: the
// trunk and every other relay never pause.  Copy splits forward the trunk
// verbatim, so a leaf subscribed before Start sees the byte-identical trunk
// trace, and one that joins later a suffix of it.
type Tree struct {
	name    string
	grp     *shard.Group
	trunk   []core.Stage
	mu      sync.Mutex
	pending [][]graph.AttachBranch // pre-Start subscriptions, by relay
	subs    []int                  // subscriber ports of each relay split so far
	dep     *graph.Deployment
}

const anchorPorts = 2 // permanent null-sink leaves per relay

// Sub identifies one subscription: its relay and the split port feeding it.
type Sub struct{ Relay, Port int }

// NewTree declares a tree on the group: the trunk stages (in flow order, one
// pump) feed the root split, and that feeds `relays` relays.
func NewTree(name string, grp *shard.Group, relays int, trunk ...core.Stage) (*Tree, error) {
	if relays < 1 || len(trunk) == 0 {
		return nil, fmt.Errorf("elastic: tree %q needs at least 1 relay and trunk stages", name)
	}
	return &Tree{name: name, grp: grp, trunk: trunk,
		pending: make([][]graph.AttachBranch, relays), subs: make([]int, relays)}, nil
}

func split(tree string, r int) string { return fmt.Sprintf("%s.r%d.tee", tree, r) }

// declare adds stages on shard place (-1: unhinted) and returns their names.
func declare(g *graph.Graph, place int, stages ...core.Stage) []string {
	var names []string
	for _, st := range stages {
		g.Add(st, graph.Place(place))
		names = append(names, st.Name())
	}
	return names
}

// Start deploys the tree with the leaves subscribed so far (relays stay with
// the trunk, leaves carry their own hints) and starts it, before
// Group.Start: a group started empty exits at once (graph.ErrTargetExited).
func (t *Tree) Start() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dep != nil {
		return fmt.Errorf("elastic: tree %q already started", t.name)
	}
	g, root := graph.New(t.name), t.name+".root"
	g.Pipe(append(declare(g, -1, t.trunk...), root)...)
	g.Split(pipes.NewCopyTee(root, len(t.subs), 8, typespec.Block, typespec.Block))
	for r, n := range t.subs {
		sp := split(t.name, r) // a split declaration takes its width from the instance
		g.Split(pipes.NewCopyTee(sp, anchorPorts+n, 8, typespec.Block, typespec.Block))
		g.Pipe(fmt.Sprintf("%s:%d", root, r), declare(g, -1, core.Pmp(pipes.NewFreePump(sp+"/pump")))[0], sp)
		for a := range anchorPorts {
			sink := fmt.Sprintf("%s/anchor%d", sp, a)
			g.Pipe(append([]string{fmt.Sprintf("%s:%d", sp, a)}, declare(g, -1, core.Pmp(pipes.NewFreePump(sink+"p")), core.Comp(pipes.NullSink(sink)))...)...)
		}
		for i, ab := range t.pending[r] {
			g.Pipe(append([]string{fmt.Sprintf("%s:%d", sp, anchorPorts+i)}, declare(g, ab.Place, ab.Stages...)...)...)
		}
	}
	d, err := g.Deploy(graph.OnGroup(t.grp))
	if err != nil {
		return fmt.Errorf("elastic: tree %q: deploy: %w", t.name, err)
	}
	t.dep = d
	d.Start()
	return nil
}

// Relays reports the interior fan-out width.
func (t *Tree) Relays() int { return len(t.subs) }

// Trunk returns the tree's one deployment; nil before Start.
func (t *Tree) Trunk() *graph.Deployment {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dep
}

// TrunkCycles reads the trunk's pump-cycle counter, a liveness signal churn
// must never stall (declared first, the trunk is plan segment 0).
func (t *Tree) TrunkCycles() int64 {
	if d := t.Trunk(); d != nil {
		return d.Stats().Segments[0].Cycles
	}
	return 0
}

// Subscribe attaches a leaf (pump + sink, in flow order) to a fresh port of
// relay r's split, on shard `place` (-1: the relay's): before Start
// statically, after it by one Edit, and the leaf receives a suffix.
func (t *Tree) Subscribe(r int, place int, stages ...core.Stage) (Sub, error) {
	if r < 0 || r >= len(t.subs) || len(stages) == 0 {
		return Sub{}, fmt.Errorf("elastic: tree %q: no relay %d, or a subscription without stages", t.name, r)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ab := graph.AttachBranch{Split: split(t.name, r), Stages: stages, Place: place}
	if t.dep == nil {
		t.pending[r] = append(t.pending[r], ab)
	} else if err := t.dep.Edit(ab); err != nil {
		return Sub{}, fmt.Errorf("elastic: tree %q: subscribe at relay %d: %w", t.name, r, err)
	}
	t.subs[r]++
	return Sub{Relay: r, Port: anchorPorts + t.subs[r] - 1}, nil
}

// Unsubscribe detaches a leaf from the running tree: its port is tombstoned,
// and the branch drains what it received and ends with a clean EOS.
func (t *Tree) Unsubscribe(s Sub) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.Relay < 0 || s.Relay >= len(t.subs) || t.dep == nil {
		return fmt.Errorf("elastic: tree %q: no relay %d, or not started", t.name, s.Relay)
	}
	if err := t.dep.Edit(graph.DetachBranch{Split: split(t.name, s.Relay), Port: s.Port}); err != nil {
		return fmt.Errorf("elastic: tree %q: unsubscribe relay %d port %d: %w", t.name, s.Relay, s.Port, err)
	}
	return nil
}

// Wait blocks until the tree drained its stream.
func (t *Tree) Wait() error {
	if d := t.Trunk(); d != nil {
		return d.Wait()
	}
	return fmt.Errorf("elastic: tree %q never started", t.name)
}
