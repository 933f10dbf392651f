package graph_test

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"infopipes/internal/graph"
	"infopipes/internal/leakcheck"
	"infopipes/internal/netpipe"
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
// The trunk detaches, the old node drops the tee with its lane outlets, and
// an identical tee is rebuilt from its carried spec on the destination; the
// upstream journal replays the unacked tail through it.  Both branch sinks must see
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
	// it the tee and both lane outlets) from beta onto gamma.
	waitSink(t, tc, "sinka", items/8)
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
	// The old node serves a fixed count, and nothing waits for the tee:
	// 1 stats, 1 detach, 1 droptee (the tee and its two lane outlets) and
	// 1 drop (the inbound listener).
	if n := requests() - before - 1; n != 4 { // less the second health request
		t.Errorf("the trunk move cost the old node %d control requests, want 4", n)
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

// waitSink waits up to 10 s for the catalog's sink name to hold n items.
func waitSink(t *testing.T, tc *testCatalog, name string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		tc.mu.Lock()
		sink := tc.sinks[name]
		tc.mu.Unlock()
		if sink != nil && sink.Count() >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sink %s never reached %d items", name, n)
		}
	}
}

// TestSplitTrunkNodeHostsOnePipeline: a split port whose branch runs on
// another node is the sending end of the branch's lane, so the trunk's node
// hosts the trunk and nothing beside it (a relay pipeline per branch lane
// made it three).
func TestSplitTrunkNodeHostsOnePipeline(t *testing.T) {
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()
	a, b, c := startNode(t, "alpha", cat), startNode(t, "beta", cat), startNode(t, "gamma", cat)
	d, err := splitTrunkGraph("onepipe", 40, 1, 0, "mod").Deploy(graph.OnNodes(a.client, b.client, c.client))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if n := d.NodeHosts(1); n != 1 {
		t.Errorf("the trunk's node hosts %d pipelines of the deployment, want 1", n)
	}
	if rows, err := b.client.Stats("onepipe/"); err != nil || len(rows) != 1 {
		t.Errorf("the trunk's node answers %d pipeline rows (err %v), want 1", len(rows), err)
	}
	d.Start()
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
}

// copySplitGraph is the copy-split trunk-move topology: the source feeds a
// cut onto a trunk on node 1 that copies every item to three branches, two
// on node 0 and one on node 2.
func copySplitGraph(name string, items int) *graph.Graph {
	g := graph.New(name)
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)), graph.Place(0))
	g.AddSpec("pump", "cpump", graph.WithArgs("400"), graph.Place(0))
	g.AddSpec("tk", "probe", graph.Place(1))
	g.AddSpec("tp", "fpump", graph.Place(1))
	g.SplitSpec("tee", "copy", 3, graph.Place(1))
	g.Pipe("src", "pump")
	g.Cut("pump", "tk")
	g.Pipe("tk", "tp", "tee")
	for port, node := range []int{0, 0, 2} {
		f, p, sink := fmt.Sprintf("f%d", port), fmt.Sprintf("p%d", port), fmt.Sprintf("sink%d", port)
		g.AddSpec(f, "probe", graph.Place(node))
		g.AddSpec(p, "fpump", graph.Place(node))
		g.AddSpec(sink, "collect", graph.Place(node))
		g.Pipe(fmt.Sprintf("tee:%d", port), f, p, sink)
	}
	return g
}

// TestReplaceMovesCopySplitTrunkMidStream moves a copy split's trunk from
// node 1 onto node 2 while the stream runs: two branches stay remote, and
// the third now shares the trunk's node over its lane.  Every branch trace
// is byte-identical to a run without the move.
func TestReplaceMovesCopySplitTrunkMidStream(t *testing.T) {
	leakcheck.Check(t)
	const items, trunk = 160, "tk>>tp"
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()
	a, b, c := startNode(t, "alpha", cat), startNode(t, "beta", cat), startNode(t, "gamma", cat)
	traces := func() []string {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		return []string{sinkTrace(tc.sinks["sink0"]), sinkTrace(tc.sinks["sink1"]), sinkTrace(tc.sinks["sink2"])}
	}
	run := func(name string, move bool) []string {
		t.Helper()
		d, err := copySplitGraph(name, items).Deploy(graph.OnNodes(a.client, b.client, c.client).WithClusterLanes())
		if err != nil {
			t.Fatalf("%s: deploy: %v", name, err)
		}
		d.Start()
		if move {
			waitSink(t, tc, "sink0", items/8)
			if err := d.Rebalance(map[string]int{trunk: 2}); err != nil {
				t.Fatalf("%s: move the trunk: %v", name, err)
			}
			if got := d.SegmentPlacements()[trunk]; got != 2 {
				t.Fatalf("%s: trunk on node %d after the move, want 2", name, got)
			}
		}
		if err := d.Wait(); err != nil {
			t.Fatalf("%s: wait: %v", name, err)
		}
		return traces()
	}
	want := run("copyref", false)
	got := run("copymove", true)
	for port := range want {
		if got[port] != want[port] {
			t.Fatalf("branch %d diverged across the trunk move\n got: %s\nwant: %s", port, got[port], want[port])
		}
	}
	if n := strings.Count(want[0], " "); n != items {
		t.Fatalf("the run without the move delivered %d items per branch, want %d", n, items)
	}
}

// TestReplaceTrunkRefusedWhileOutletParked severs the connection of one of
// a trunk's lane outlets, so the outlet parks with the frames its branch has
// not seen in its journal.  A move of the trunk would drop that journal: it
// is refused, the trunk goes back where it was, and the other branch still
// receives its whole sub-stream.
func TestReplaceTrunkRefusedWhileOutletParked(t *testing.T) {
	const items, trunk = 160, "tk>>tp"
	var mu sync.Mutex
	conns := make(map[string]*netpipe.ChaosConn) // by the address each dialed
	netpipe.SetDialWrapper(func(conn net.Conn) net.Conn {
		cc := netpipe.NewChaosConn(conn, 1, netpipe.Chaos{})
		mu.Lock()
		conns[conn.RemoteAddr().String()] = cc
		mu.Unlock()
		return cc
	})
	t.Cleanup(func() { netpipe.SetDialWrapper(nil) })
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()
	a, b, c := startNode(t, "alpha", cat), startNode(t, "beta", cat), startNode(t, "gamma", cat)
	d, err := splitTrunkGraph("parked", items, 1, 0, "mod").Deploy(graph.OnNodes(a.client, b.client, c.client).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	d.Start()
	waitSink(t, tc, "sinka", items/8)

	// Port 0 feeds branch a: its outlet dialed the listener the trunk's
	// rendered sink names.
	var outlet string
	for _, part := range d.Rendered()["parked/"+trunk] {
		if part.Kind == "ip/teesink" {
			outlet = part.Params["addr.0"]
		}
	}
	mu.Lock()
	cc := conns[outlet]
	mu.Unlock()
	if cc == nil {
		t.Fatalf("no lane connection dialed %q", outlet)
	}
	cc.Close()
	// Branch b's items interleave with branch a's, so once four more reach
	// sink b the trunk has written to the severed outlet, and it parked.
	tc.mu.Lock()
	sinkb := tc.sinks["sinkb"]
	tc.mu.Unlock()
	waitSink(t, tc, "sinkb", sinkb.Count()+4)

	if err := d.Rebalance(map[string]int{trunk: 2}); err == nil || !strings.Contains(err.Error(), "parked") {
		t.Fatalf("moving the trunk with a parked outlet = %v, want a refusal naming the parked outlet", err)
	}
	if got := d.SegmentPlacements()[trunk]; got != 1 {
		t.Fatalf("trunk on node %d after the refused move, want 1", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("the refused move latched the deployment: %v", err)
	}
	waitSink(t, tc, "sinkb", items/2)
	var wantB strings.Builder
	for i := 2; i <= items; i += 2 {
		fmt.Fprintf(&wantB, "%d ", i)
	}
	if got := sinkTrace(sinkb); got != wantB.String() {
		t.Fatalf("branch b diverged after the refused move\n got: %s\nwant: %s", got, wantB.String())
	}
	d.Stop()
	if err := d.Wait(); err != nil {
		t.Fatalf("wait after stop: %v", err)
	}
}

// TestNonBlockingSplitHasNoLanePort: a split that drops when a port is
// full has no lane form, so a deploy that makes one of its ports a lane is
// refused; with every branch beside the trunk it deploys.
func TestNonBlockingSplitHasNoLanePort(t *testing.T) {
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()
	a, b := startNode(t, "alpha", cat), startNode(t, "beta", cat)
	declare := func(name string, branchB int) *graph.Graph {
		g := graph.New(name)
		g.AddSpec("src", "counter", graph.WithArgs("20"))
		g.AddSpec("pump", "fpump")
		g.SplitSpec("tee", "copy", 2, graph.WithParam("push", "nonblock"))
		g.AddSpec("pa", "fpump")
		g.AddSpec("sa", "collect")
		g.AddSpec("pb", "fpump", graph.Place(branchB))
		g.AddSpec("sb", "collect", graph.Place(branchB))
		g.Pipe("src", "pump", "tee")
		g.Pipe("tee:0", "pa", "sa")
		g.Pipe("tee:1", "pb", "sb")
		return g
	}
	if _, err := declare("droplane", 1).Deploy(graph.OnNodes(a.client, b.client)); !errors.Is(err, graph.ErrNonBlockingSplit) {
		t.Fatalf("deploying a non-blocking split with a lane port = %v, want ErrNonBlockingSplit", err)
	}
	if rows, err := b.client.Stats("droplane/"); err != nil || len(rows) != 0 {
		t.Fatalf("the refused deploy left %d pipelines behind (err %v)", len(rows), err)
	}
	d, err := declare("droplocal", 0).Deploy(graph.OnNodes(a.client, b.client))
	if err != nil {
		t.Fatalf("deploying a non-blocking split with its branches beside it: %v", err)
	}
	d.Start()
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
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
