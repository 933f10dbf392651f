package graph_test

import (
	"reflect"
	"strconv"
	"sync"
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/leakcheck"
	"infopipes/internal/pipes"
)

// TestReplaceMoveOrderIsDeterministic: a Replace whose hint map names
// several segments executes its moves downstream-first, whatever order the
// map iterates in.  The op log is the catalog itself: every recomposition
// materializes the moved segment's stages on the destination node, so the
// order in which the probe stages are rebuilt is the order of the moves.
// Twenty Replaces shuttle two adjacent segments between two nodes before
// the stream starts; the stream must then still arrive complete.
func TestReplaceMoveOrderIsDeterministic(t *testing.T) {
	leakcheck.Check(t)
	const items = 60
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()
	var mu sync.Mutex
	var built []string
	probe := cat["probe"]
	cat["probe"] = func(name string, args []string, params map[string]string) (core.Stage, error) {
		mu.Lock()
		built = append(built, name)
		mu.Unlock()
		return probe(name, args, params)
	}
	a := startNode(t, "alpha", cat)
	b := startNode(t, "beta", cat)
	c := startNode(t, "gamma", cat)

	// src>>pump (n0) | up>>upp (n1) | down>>downp (n1) | out>>sink (n0)
	g := graph.New("order")
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)), graph.Place(0))
	g.AddSpec("pump", "cpump", graph.WithArgs("2000"), graph.Place(0))
	g.AddSpec("up", "probe", graph.Place(1))
	g.AddSpec("upp", "fpump", graph.Place(1))
	g.AddSpec("down", "probe", graph.Place(1))
	g.AddSpec("downp", "fpump", graph.Place(1))
	g.AddSpec("out", "fpump", graph.Place(0))
	g.AddSpec("sink", "collect", graph.Place(0))
	g.Pipe("src", "pump")
	g.Cut("pump", "up")
	g.Pipe("up", "upp")
	g.Cut("upp", "down")
	g.Pipe("down", "downp")
	g.Cut("downp", "out")
	g.Pipe("out", "sink")
	d, err := g.Deploy(graph.OnNodes(a.client, b.client, c.client).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}

	for run := 0; run < 20; run++ {
		dest := 2 - run%2 // gamma, beta, gamma, ...
		mu.Lock()
		built = nil
		mu.Unlock()
		if err := d.Rebalance(map[string]int{"up>>upp": dest, "down>>downp": dest}); err != nil {
			t.Fatalf("run %d: replace: %v", run, err)
		}
		mu.Lock()
		got := append([]string(nil), built...)
		mu.Unlock()
		if want := []string{"down", "up"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: segments recomposed in order %v, want %v (downstream first)", run, got, want)
		}
	}

	d.Start()
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	sink := tc.sinks["sink"]
	if sink == nil || sink.Count() != items {
		t.Fatalf("sink holds %v items after 20 double moves, want %d", sinkCount(sink), items)
	}
	for i, it := range sink.Items() {
		if it.Seq != int64(i+1) {
			t.Fatalf("item %d has seq %d (loss, duplication or reordering across the moves)", i, it.Seq)
		}
	}
}
