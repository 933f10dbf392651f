package graph_test

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"infopipes/internal/control"
	"infopipes/internal/graph"
	"infopipes/internal/leakcheck"
	"infopipes/internal/pipes"
	"infopipes/internal/remote"
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
// loss, zero duplication, order preserved — and the old node serves a fixed
// number of control requests for it.
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
	requests := func() int64 {
		h, err := b.client.Health()
		if err != nil {
			t.Fatal(err)
		}
		return h.Requests
	}
	before := requests()
	if err := d.Rebalance(map[string]int{trunk: 2}); err != nil {
		t.Fatalf("replace trunk: %v", err)
	}
	// The old node serves a fixed count however long the tee takes to
	// drain: 1 stats, 1 detach, 2 drain probes (the node waits out the
	// drain itself), 2 relay detaches, 3 drops (the listener and two
	// relay senders) and 1 droptee.
	if n := requests() - before - 1; n != 10 { // less the second health request
		t.Errorf("the trunk move cost the old node %d control requests, want 10", n)
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

// TestDrainLetsHeartbeatsThrough holds a tee drain open against a tee no
// branch reads, on the control client a Directory heartbeats: the node
// bounds each drained request, so a heartbeat round completes while the
// drain is still in progress, and the drain ends once the tee is gone.
func TestDrainLetsHeartbeatsThrough(t *testing.T) {
	leakcheck.Check(t)
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	a := startNode(t, "alpha", tc.catalog())
	if err := a.client.Compose("stuck/trunk", []remote.StageSpec{
		{Kind: "counter", Name: "src", Args: []string{"100"}},
		{Kind: "fpump", Name: "pump"},
		{Kind: "ip/teesink", Name: "tee", Params: map[string]string{"graph": "stuck", "outs": "2"}},
	}); err != nil {
		t.Fatalf("compose: %v", err)
	}
	if err := a.client.Start("stuck/trunk"); err != nil {
		t.Fatalf("start: %v", err)
	}
	dir := control.NewDirectory()
	defer dir.Close()
	name, err := dir.Register(a.client.Addr())
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	c, _ := dir.Client(name)
	type result struct {
		drained bool
		err     error
	}
	done := make(chan result, 1)
	requests := func() int64 {
		h, err := a.client.Health()
		if err != nil {
			t.Fatal(err)
		}
		return h.Requests
	}
	before := requests()
	go func() {
		ok, err := graph.DrainTee(c, "stuck/tee", nil)
		done <- result{ok, err}
	}()
	// The drain is in progress once the node counts a request beyond the
	// polls' own (each poll is a round trip of its own, so none sleeps).
	for polls := int64(1); requests()-before <= polls; polls++ {
	}
	for range 3 {
		start := time.Now()
		if n, _ := dir.Heartbeat(); n != 1 {
			t.Fatalf("heartbeat saw %d healthy nodes, want 1", n)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("a heartbeat round took %v behind the drain", took)
		}
		select {
		case r := <-done:
			t.Fatalf("the drain of a tee no branch reads ended: %+v", r)
		default:
		}
	}
	if _, err := a.client.Lane(remote.LaneRequest{Kind: remote.LaneAbort, Prefix: "stuck/"}); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if r := <-done; !r.drained || r.err != nil {
		t.Fatalf("drain after the tee went = %+v, want drained", r)
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
