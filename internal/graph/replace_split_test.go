package graph_test

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"infopipes/internal/graph"
	"infopipes/internal/leakcheck"
	"infopipes/internal/pipes"
)

// splitTrunkGraph declares the trunk-move topology: the source feeds a cut
// onto a trunk segment that hosts a deterministic route split, and each
// branch runs to its own sink on a different node than the trunk.
//
//	src>>pump (n0) | cut | tk>>tp + tee (trunkNode) | fa>>sinka (branchANode)
//	                                                | fb>>sinkb (n2)
func splitTrunkGraph(name string, items, trunkNode, branchANode int, sel string) *graph.Graph {
	g := graph.New(name)
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)), graph.Place(0))
	g.AddSpec("pump", "cpump", graph.WithArgs("400"), graph.Place(0))
	g.AddSpec("tk", "probe", graph.Place(trunkNode))
	g.AddSpec("tp", "fpump", graph.Place(trunkNode))
	g.SplitSpec("tee", "route", 2, graph.WithParam("sel", sel), graph.Place(trunkNode))
	g.AddSpec("fa", "probe", graph.Place(branchANode))
	g.AddSpec("pa", "fpump", graph.Place(branchANode))
	g.AddSpec("sinka", "collect", graph.Place(branchANode))
	g.AddSpec("fb", "probe", graph.Place(2))
	g.AddSpec("pb", "fpump", graph.Place(2))
	g.AddSpec("sinkb", "collect", graph.Place(2))
	g.Pipe("src", "pump")
	g.Cut("pump", "tk")
	g.Pipe("tk", "tp", "tee")
	g.Pipe("tee:0", "fa", "pa", "sinka")
	g.Pipe("tee:1", "fb", "pb", "sinkb")
	return g
}

func sinkTrace(sink *pipes.CollectSink) string {
	var b strings.Builder
	for _, it := range sink.Items() {
		fmt.Fprintf(&b, "%d ", it.Seq)
	}
	return b.String()
}

// TestReplaceMovesSplitTrunkMidStream is the satellite regression: a
// segment hosting a split tee moves between nodes while the stream runs.
// The trunk detaches, the tee drains through its relays, and an identical
// tee is rebuilt from its carried spec on the destination; the upstream
// journal replays the unacked tail through it.  Both branch sinks must see
// their deterministic sub-streams byte-identical to a no-move run — zero
// loss, zero duplication, order preserved.
func TestReplaceMovesSplitTrunkMidStream(t *testing.T) {
	leakcheck.Check(t)
	const items = 160
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()
	a := startNode(t, "alpha", cat)
	b := startNode(t, "beta", cat)
	c := startNode(t, "gamma", cat)

	g := splitTrunkGraph("movetrunk", items, 1, 0, "mod")
	d, err := g.Deploy(graph.OnNodes(a.client, b.client, c.client).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	const trunk = "tk>>tp"
	if err := d.Replaceable(trunk); err != nil {
		t.Fatalf("Replaceable(%q) = %v, want nil for a live lane-attached trunk", trunk, err)
	}
	d.Start()

	// Let the stream get demonstrably going, then move the trunk (and with
	// it the tee and both relay pipelines) from beta onto gamma.
	deadline := time.Now().Add(10 * time.Second)
	for {
		tc.mu.Lock()
		sink := tc.sinks["sinka"]
		tc.mu.Unlock()
		if sink != nil && sink.Count() >= items/8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never got going")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := d.Rebalance(map[string]int{trunk: 2}); err != nil {
		t.Fatalf("replace trunk: %v", err)
	}
	if got := d.SegmentPlacements()[trunk]; got != 2 {
		t.Fatalf("trunk placed on node %d after replace, want 2", got)
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}

	// sel=mod routes seq s to port (s-1)%2: branch a owns the odd
	// sub-stream, branch b the even one.
	var wantA, wantB strings.Builder
	for i := 1; i <= items; i += 2 {
		fmt.Fprintf(&wantA, "%d ", i)
		fmt.Fprintf(&wantB, "%d ", i+1)
	}
	tc.mu.Lock()
	sinka, sinkb := tc.sinks["sinka"], tc.sinks["sinkb"]
	tc.mu.Unlock()
	if got := sinkTrace(sinka); got != wantA.String() {
		t.Fatalf("branch a diverged across the trunk move\n got: %s\nwant: %s", got, wantA.String())
	}
	if got := sinkTrace(sinkb); got != wantB.String() {
		t.Fatalf("branch b diverged across the trunk move\n got: %s\nwant: %s", got, wantB.String())
	}
}

// TestReplaceTrunkRefusals pins the two remaining trunk guards: stateful
// round-robin routing (a rebuilt tee would re-route the replayed overlap)
// and a branch wired directly to the trunk's own node (its tee reference
// cannot follow the move).
func TestReplaceTrunkRefusals(t *testing.T) {
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()
	a := startNode(t, "alpha", cat)
	b := startNode(t, "beta", cat)
	c := startNode(t, "gamma", cat)

	g := splitTrunkGraph("rrtrunk", 40, 1, 0, "rr")
	d, err := g.Deploy(graph.OnNodes(a.client, b.client, c.client).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy rr graph: %v", err)
	}
	if err := d.Replaceable("tk>>tp"); !errors.Is(err, graph.ErrNotReplaceable) {
		t.Fatalf("Replaceable(rr trunk) = %v, want ErrNotReplaceable", err)
	} else if !strings.Contains(err.Error(), "round-robin") {
		t.Fatalf("Replaceable(rr trunk) = %v, want the stateful-routing reason", err)
	}
	d.Start()
	if err := d.Wait(); err != nil {
		t.Fatalf("wait rr graph: %v", err)
	}

	// Same shape, branch a co-placed with the trunk: the branch pulls the
	// shared tee instance directly, so the trunk must refuse to move.
	g2 := splitTrunkGraph("directtrunk", 40, 1, 1, "mod")
	d2, err := g2.Deploy(graph.OnNodes(a.client, b.client, c.client).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy direct graph: %v", err)
	}
	if err := d2.Replaceable("tk>>tp"); !errors.Is(err, graph.ErrNotReplaceable) {
		t.Fatalf("Replaceable(direct trunk) = %v, want ErrNotReplaceable", err)
	} else if !strings.Contains(err.Error(), "wired directly to split") {
		t.Fatalf("Replaceable(direct trunk) = %v, want the direct-branch reason", err)
	}
	d2.Start()
	if err := d2.Wait(); err != nil {
		t.Fatalf("wait direct graph: %v", err)
	}
}
