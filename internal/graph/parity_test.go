package graph_test

import (
	"fmt"
	"slices"
	"strconv"
	"testing"

	"infopipes/internal/graph"
	"infopipes/internal/leakcheck"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
)

// parityShape declares one spec-backed graph whose every segment carries a
// placement hint: hint(i) is the slot of the shape's i-th segment.
type parityShape struct {
	name     string
	segments int
	build    func(g *graph.Graph, hint func(i int) graph.NodeOption)
}

const parityItems = 6

func paritySource(g *graph.Graph, src, pump string, at graph.NodeOption) {
	g.AddSpec(src, "counter", graph.WithArgs(strconv.Itoa(parityItems)), at)
	g.AddSpec(pump, "cpump", graph.WithArgs("2000"), at)
	g.Pipe(src, pump)
}

func parityBranch(g *graph.Graph, from, to, f, p string, at graph.NodeOption) {
	g.AddSpec(f, "probe", at)
	g.AddSpec(p, "fpump", at)
	g.Pipe(from, f, p, to)
}

// paritySink declares a sink branch named prefix fed from the tee port from.
func paritySink(g *graph.Graph, from, prefix string, at graph.NodeOption) {
	g.AddSpec(prefix+"f", "probe", at)
	g.AddSpec(prefix+"p", "fpump", at)
	g.AddSpec(prefix+"s", "collect", at)
	g.Pipe(from, prefix+"f", prefix+"p", prefix+"s")
}

var parityShapes = []parityShape{
	{"diamond", 4, func(g *graph.Graph, hint func(int) graph.NodeOption) {
		paritySource(g, "src", "pump", hint(0))
		g.SplitSpec("tee", "copy", 2, hint(0))
		g.MergeSpec("mrg", 2, hint(3))
		g.Pipe("pump", "tee")
		parityBranch(g, "tee:0", "mrg:0", "fa", "pa", hint(1))
		parityBranch(g, "tee:1", "mrg:1", "fb", "pb", hint(2))
		g.AddSpec("po", "fpump", hint(3))
		g.AddSpec("sink", "collect", hint(3))
		g.Pipe("mrg", "po", "sink")
	}},
	{"copy3", 4, func(g *graph.Graph, hint func(int) graph.NodeOption) {
		paritySource(g, "src", "pump", hint(0))
		g.SplitSpec("tee", "copy", 3, hint(0))
		g.Pipe("pump", "tee")
		for i := 0; i < 3; i++ {
			paritySink(g, fmt.Sprintf("tee:%d", i), fmt.Sprintf("b%d", i), hint(i+1))
		}
	}},
	{"cutchain", 3, func(g *graph.Graph, hint func(int) graph.NodeOption) {
		paritySource(g, "src", "pump", hint(0))
		g.AddSpec("mid", "probe", hint(1))
		g.AddSpec("mp", "fpump", hint(1))
		g.AddSpec("out", "fpump", hint(2))
		g.AddSpec("sink", "collect", hint(2))
		g.Cut("pump", "mid")
		g.Pipe("mid", "mp")
		g.Cut("mp", "out")
		g.Pipe("out", "sink")
	}},
	{"nested", 5, func(g *graph.Graph, hint func(int) graph.NodeOption) {
		paritySource(g, "src", "pump", hint(0))
		g.SplitSpec("tee", "copy", 2, hint(0))
		g.Pipe("pump", "tee")
		g.AddSpec("fa", "probe", hint(1))
		g.AddSpec("pa", "fpump", hint(1))
		g.SplitSpec("inner", "copy", 2, hint(1))
		g.Pipe("tee:0", "fa", "pa", "inner")
		for i := 0; i < 2; i++ {
			paritySink(g, fmt.Sprintf("inner:%d", i), fmt.Sprintf("x%d", i), hint(2+i))
		}
		paritySink(g, "tee:1", "b", hint(4))
	}},
	{"merge3", 4, func(g *graph.Graph, hint func(int) graph.NodeOption) {
		g.MergeSpec("mrg", 3, hint(3))
		for i := 0; i < 3; i++ {
			src, pump := fmt.Sprintf("src%d", i), fmt.Sprintf("pump%d", i)
			paritySource(g, src, pump, hint(i))
			g.Pipe(pump, fmt.Sprintf("mrg:%d", i))
		}
		g.AddSpec("po", "fpump", hint(3))
		g.AddSpec("sink", "collect", hint(3))
		g.Pipe("mrg", "po", "sink")
	}},
}

// TestWiringParityAcrossTargets: a shard group and a node set wire the same
// graph the same way.  Every shape deploys under every assignment of its
// segments to two slots, OnGroup (two shards) and OnNodes (two in-process
// nodes on plain lanes), and both list the same segments on the same slots.
// A tee port is a lane only between address spaces, so the nodes add a relay
// beside the tee exactly at each port whose ends sit on different nodes, and
// the group adds none.
func TestWiringParityAcrossTargets(t *testing.T) {
	leakcheck.Check(t)
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()
	a, b := startNode(t, "alpha", cat), startNode(t, "beta", cat)
	row := func(name string, relay bool, slot int) string {
		return fmt.Sprintf("%s relay=%v slot=%d", name, relay, slot)
	}
	rows := func(d *graph.Deployment) (segments, relays []string) {
		for _, s := range d.Stats().Segments {
			if s.Relay {
				relays = append(relays, row(s.Name, true, s.Shard))
			} else {
				segments = append(segments, row(s.Name, false, s.Shard))
			}
		}
		slices.Sort(segments)
		slices.Sort(relays)
		return segments, relays
	}
	// laneRelays lists the relays a node host composes for d: one beside
	// the tee of every port whose ends are on different nodes.
	laneRelays := func(g *graph.Graph, d *graph.Deployment) []string {
		plan, err := g.Plan()
		if err != nil {
			t.Fatal(err)
		}
		at := d.SegmentPlacements()
		slot := func(si int) int { return at[plan.Segments[si].Name()] }
		var out []string
		add := func(ports map[string][]int, anchor map[string]int) {
			for tee, branches := range ports {
				for port, b := range branches {
					if b >= 0 && slot(b) != slot(anchor[tee]) {
						out = append(out, row(fmt.Sprintf("%s/%s:%d/relay", d.Name(), tee, port), true, slot(anchor[tee])))
					}
				}
			}
		}
		add(plan.SplitBranch, plan.SplitTrunk)
		add(plan.MergeBranch, plan.MergeDown)
		slices.Sort(out)
		return out
	}
	for _, sh := range parityShapes {
		for mask := 0; mask < 1<<sh.segments; mask++ {
			name := fmt.Sprintf("%s-%d", sh.name, mask)
			g := graph.New(name).UseCatalog(cat)
			sh.build(g, func(i int) graph.NodeOption { return graph.Place(mask >> i & 1) })

			grp := shard.NewGroup(shard.WithShardCount(2))
			dg, err := g.Deploy(graph.OnGroup(grp))
			if err != nil {
				t.Fatalf("%s: deploy on the group: %v", name, err)
			}
			onGroup, groupRelays := rows(dg)
			dg.Start()
			if err := grp.Run(); err != nil {
				t.Fatalf("%s: run the group: %v", name, err)
			}
			if err := dg.Wait(); err != nil {
				t.Fatalf("%s: wait on the group: %v", name, err)
			}

			dn, err := g.Deploy(graph.OnNodes(a.client, b.client))
			if err != nil {
				t.Fatalf("%s: deploy on the nodes: %v", name, err)
			}
			onNodes, nodeRelays := rows(dn)
			wantRelays := laneRelays(g, dn)
			dn.Start()
			if err := dn.Wait(); err != nil {
				t.Fatalf("%s: wait on the nodes: %v", name, err)
			}
			if !slices.Equal(onGroup, onNodes) {
				t.Errorf("%s wires differently\n on the group: %q\n on the nodes: %q", name, onGroup, onNodes)
			}
			if len(groupRelays) > 0 || !slices.Equal(nodeRelays, wantRelays) {
				t.Errorf("%s relays\n on the group: %q (want none)\n on the nodes: %q\n want: %q",
					name, groupRelays, nodeRelays, wantRelays)
			}
		}
	}
}
