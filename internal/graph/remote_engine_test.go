package graph_test

import (
	"fmt"
	"net"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"infopipes/internal/graph"
	"infopipes/internal/leakcheck"
	"infopipes/internal/pipes"
	"infopipes/internal/remote"
	"infopipes/internal/typespec"
)

// sink returns the collect sink a node built under name, nil before it has.
func (tc *testCatalog) sink(name string) *pipes.CollectSink {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.sinks[name]
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	return probe.Addr().String()
}

// assertNoListener fails the test when the node behind c still holds a
// rendezvous listener for lane.  Listen is idempotent per lane, so only a
// lane with no listener left binds the free address it is asked for.
func assertNoListener(t *testing.T, c *remote.Client, lane string) {
	t.Helper()
	free := freeAddr(t)
	rep, err := c.Lane(remote.LaneRequest{Kind: remote.LaneListen, Lane: lane, Addr: free})
	if err != nil || rep.Addr != free {
		t.Fatalf("a listener for %q is still bound: listen = %q, %v; want %q", lane, rep.Addr, err, free)
	}
	if _, err := c.Lane(remote.LaneRequest{Kind: remote.LaneDrop, Lane: lane, Side: remote.ListenerSide}); err != nil {
		t.Fatal(err)
	}
}

// specLines renders stage specs one line each — kind, name, args, sorted
// params — leaving out addr, the one param that differs from run to run.
func specLines(specs []remote.StageSpec) []string {
	out := make([]string, len(specs))
	for i, sp := range specs {
		var params []string
		for k, v := range sp.Params {
			if k != "addr" {
				params = append(params, k+"="+v)
			}
		}
		sort.Strings(params)
		out[i] = strings.TrimSpace(fmt.Sprintf("%s %s %s %s", sp.Kind, sp.Name,
			strings.Join(sp.Args, ","), strings.Join(params, " ")))
	}
	return out
}

// renderGraph has one boundary of every kind: a same-node cut (src>>pump to
// pre>>prep), a split with one direct branch (fa>>pa) and one cross-node
// branch (fb>>pb on node 1), a merge likewise, and a cross-node cut (po to
// out>>sink on node 2).
func renderGraph(name string, items int) *graph.Graph {
	g := graph.New(name)
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)), graph.Place(0))
	g.AddSpec("pump", "cpump", graph.WithArgs("2000"), graph.Place(0))
	g.AddSpec("pre", "probe", graph.Place(0))
	g.AddSpec("prep", "fpump", graph.Place(0))
	g.SplitSpec("tee", "route", 2, graph.WithParam("sel", "mod"), graph.Place(0))
	g.AddSpec("fa", "probe", graph.Place(0))
	g.AddSpec("pa", "fpump", graph.Place(0))
	g.AddSpec("fb", "probe", graph.Place(1))
	g.AddSpec("pb", "fpump", graph.Place(1))
	g.MergeSpec("mrg", 2, graph.Place(0))
	g.AddSpec("po", "fpump", graph.Place(0))
	g.AddSpec("out", "fpump", graph.Place(2))
	g.AddSpec("sink", "collect", graph.Place(2))
	g.Pipe("src", "pump")
	g.Cut("pump", "pre")
	g.Pipe("pre", "prep", "tee")
	g.Pipe("tee:0", "fa", "pa", "mrg:0")
	g.Pipe("tee:1", "fb", "pb", "mrg:1")
	g.Pipe("mrg", "po")
	g.Cut("po", "out")
	g.Pipe("out", "sink")
	return g
}

// TestRenderPinned pins what the one renderer makes of every segment and
// relay of renderGraph on plain lanes.
func TestRenderPinned(t *testing.T) {
	leakcheck.Check(t)
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()
	a, b, c := startNode(t, "alpha", cat), startNode(t, "beta", cat), startNode(t, "gamma", cat)
	d, err := renderGraph("rg", 30).Deploy(graph.OnNodes(a.client, b.client, c.client))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	const tee, mrg = "graph=rg kind=route merge=tee outs=2", "graph=rg ins=2 merge=mrg"
	want := map[string][]string{
		"rg/src>>pump": {"counter src 30", "cpump pump 2000", "ip/cutsink rg/cut0/sink  depth=0 lane=rg/cut0"},
		"rg/pre>>prep": {"ip/cutsrc rg/cut0/source  depth=0 lane=rg/cut0", "probe pre", "fpump prep",
			"ip/teesink tee  " + tee + " sel=mod tee=tee"},
		"rg/fa>>pa": {"ip/teeout tee.src0  " + tee + " port=0 sel=mod tee=tee", "probe fa", "fpump pa",
			"ip/mergein mrg.in0  " + mrg + " port=0 tee=mrg"},
		"rg/fb>>pb": {"ip/tcprecv rg/tee:1/source  depth=0 lane=rg/tee:1", "ip/unmarshal rg/tee:1/unmarshal",
			"probe fb", "fpump pb", "ip/marshal rg/mrg:1/marshal", "ip/tcpsend rg/mrg:1/sink  lane=rg/mrg:1"},
		"rg/tee:1/relay": {"ip/teeout tee.src1  " + tee + " port=1 sel=mod tee=tee", "ip/pump rg/tee:1/pump",
			"ip/marshal rg/tee:1/marshal", "ip/tcpsend rg/tee:1/sink  lane=rg/tee:1"},
		"rg/mrg:1/relay": {"ip/tcprecv rg/mrg:1/source  depth=0 lane=rg/mrg:1", "ip/unmarshal rg/mrg:1/unmarshal",
			"ip/pump rg/mrg:1/pump", "ip/mergein mrg.in1  " + mrg + " port=1 tee=mrg"},
		"rg/po": {"ip/mergeout mrg.src  " + mrg + " tee=mrg", "fpump po",
			"ip/marshal rg/cut1/marshal", "ip/tcpsend rg/cut1/sink  lane=rg/cut1"},
		"rg/out>>sink": {"ip/tcprecv rg/cut1/source  depth=0 lane=rg/cut1", "ip/unmarshal rg/cut1/unmarshal",
			"fpump out", "collect sink"},
	}
	got := d.Rendered()
	for name, specs := range got {
		if lines := specLines(specs); !reflect.DeepEqual(lines, want[name]) {
			t.Errorf("%s renders\n  %q\nwant\n  %q", name, lines, want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d pipelines rendered, want %d", len(got), len(want))
	}
	d.Start()
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if n := tc.sinks["sink"].Count(); n != 30 {
		t.Fatalf("sink received %d items, want 30", n)
	}
}

// TestReplaceRendersAsDeployDid: on cluster lanes a segment moved away and
// back is rendered — durable and chain params included — exactly as the
// deploy rendered it, and so are the stationary relays beside it.
func TestReplaceRendersAsDeployDid(t *testing.T) {
	leakcheck.Check(t)
	const items = 60
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()
	a, b, c := startNode(t, "alpha", cat), startNode(t, "beta", cat), startNode(t, "gamma", cat)
	d, err := renderGraph("rc", items).Deploy(graph.OnNodes(a.client, b.client, c.client).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	const seg = "fb>>pb"
	deployed := d.Rendered()
	want := []string{"ip/tcprecv rc/tee:1/source  depth=0 lane=rc/tee:1", "ip/unmarshal rc/tee:1/unmarshal",
		"probe fb", "fpump pb", "ip/marshal rc/mrg:1/marshal",
		"ip/tcpsend rc/mrg:1/sink  chain=rc/tee:1 durable=1 lane=rc/mrg:1"}
	if got := specLines(deployed["rc/"+seg]); !reflect.DeepEqual(got, want) {
		t.Fatalf("deploy rendered %s as\n  %q\nwant\n  %q", seg, got, want)
	}
	for _, dest := range []int{2, 0, 1} {
		if err := d.Rebalance(map[string]int{seg: dest}); err != nil {
			t.Fatalf("replace onto node %d: %v", dest, err)
		}
		for name, specs := range d.Rendered() {
			if got, was := specLines(specs), specLines(deployed[name]); !reflect.DeepEqual(got, was) {
				t.Errorf("%s on node %d: %s renders\n  %q\nthe deploy rendered\n  %q", seg, dest, name, got, was)
			}
		}
	}
	d.Start()
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if n := tc.sinks["sink"].Count(); n != items {
		t.Fatalf("sink received %d items after the moves, want %d", n, items)
	}
}

// TestAddNodeLeavesTargetAlone: a deployment that grows keeps its own client
// list.  Two deployments made from one NodesTarget must not come to share a
// slice that one of them extends under its own lock.
func TestAddNodeLeavesTargetAlone(t *testing.T) {
	leakcheck.Check(t)
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()
	a, b, c := startNode(t, "alpha", cat), startNode(t, "beta", cat), startNode(t, "gamma", cat)
	target := graph.OnNodes(a.client, b.client).WithClusterLanes()
	first, err := chainGraph("one", 10, "400", "probe", 1).Deploy(target)
	if err != nil {
		t.Fatalf("deploy one: %v", err)
	}
	second, err := chainGraph("two", 10, "400", "probe", 1).Deploy(target)
	if err != nil {
		t.Fatalf("deploy two: %v", err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				second.Stats()
				_ = second.Replaceable("mid>>mp")
			}
		}
	}()
	for i := 0; i < 10; i++ {
		if _, err := first.AddNode(c.client); err != nil {
			t.Fatalf("add node: %v", err)
		}
	}
	close(stop)
	<-done
	if n := len(target.Clients); n != 2 {
		t.Errorf("the target lists %d clients after AddNode on one of its deployments, want 2", n)
	}
	if n := second.NodeCount(); n != 2 {
		t.Errorf("the other deployment counts %d nodes, want 2", n)
	}
	if n := first.NodeCount(); n != 12 {
		t.Errorf("the grown deployment counts %d nodes, want 12", n)
	}
	first.Stop()
	second.Stop()
}

// TestFailOverFailedMoveDropsListener: a failover onto a node that cannot
// compose the segment (its catalog lacks a kind) leaves nothing behind
// there — the inbound listener the move bound is a port and a scheduler
// external-source reference — and a retry onto a good survivor still
// delivers every item exactly once.
func TestFailOverFailedMoveDropsListener(t *testing.T) {
	leakcheck.Check(t)
	const items = 120
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat, lacking := tc.catalog(), tc.catalog()
	delete(lacking, "probe")
	a, b := startNode(t, "alpha", cat), startNode(t, "beta", cat)
	c, e := startNode(t, "gamma", lacking), startNode(t, "delta", cat)
	d, err := chainGraph("fo", items, "400", "probe", 1).Deploy(
		graph.OnNodes(a.client, b.client, c.client, e.client).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	d.Supervise()
	d.Start()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if s := tc.sink("sink"); s != nil && s.Count() >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never reached 10 items")
		}
		time.Sleep(time.Millisecond)
	}
	b.close() // beta dies mid-stream with mid>>mp on it

	if err := d.FailOver(1, map[string]int{"mid>>mp": 2}); err == nil {
		t.Fatal("failover onto a node lacking the probe kind succeeded")
	}
	assertNoListener(t, c.client, "fo/cut0")
	if got := d.SegmentPlacements()["mid>>mp"]; got != 1 {
		t.Fatalf("failed failover left the segment placed on node %d, want 1", got)
	}
	if err := d.FailOver(1, map[string]int{"mid>>mp": 3}); err != nil {
		t.Fatalf("failover onto a good survivor: %v", err)
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	got := tc.sink("sink").Items()
	if len(got) != items {
		t.Fatalf("sink received %d items, want %d", len(got), items)
	}
	for i, it := range got {
		if it.Seq != int64(i+1) {
			t.Fatalf("item %d has seq %d (loss, duplication or reordering across the failover)", i, it.Seq)
		}
	}
}

// TestDeployRoundTrips counts the control requests a deploy of the two-node
// lane graph costs at the nodes: a ping each, one listen, a compose each —
// every compose reply carries what the deployer used to come back for.
func TestDeployRoundTrips(t *testing.T) {
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()
	a, b := startNode(t, "alpha", cat), startNode(t, "beta", cat)
	served := func() (n int64) {
		for _, c := range []*remote.Client{a.client, b.client} {
			h, err := c.Health()
			if err != nil {
				t.Fatal(err)
			}
			n += h.Requests - 1 // not the health request itself
		}
		return n
	}
	g := graph.New("rt")
	g.AddSpec("src", "counter", graph.WithArgs("10"), graph.Place(0))
	g.AddSpec("pump", "cpump", graph.WithArgs("2000"), graph.Place(0))
	g.AddSpec("out", "fpump", graph.Place(1))
	g.AddSpec("sink", "collect", graph.Place(1))
	g.Pipe("src", "pump")
	g.Cut("pump", "out")
	g.Pipe("out", "sink")
	before := served()
	d, err := g.Deploy(graph.OnNodes(a.client, b.client).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if n := served() - before - 2; n != 5 { // less the two health requests of the first count
		t.Errorf("the deploy cost %d control round trips, want 5 (2 ping, 1 listen, 2 compose)", n)
	}
	// Moving the tail segment onto node 0 before the start: its counters
	// retire (a stats fetch), node 1 detaches it and drops its listener,
	// node 0 binds a fresh one and composes it, and the stationary sender
	// there redials.
	before = served()
	if err := d.Rebalance(map[string]int{"out>>sink": 0}); err != nil {
		t.Fatalf("move: %v", err)
	}
	if n := served() - before - 2; n != 6 {
		t.Errorf("the move cost %d control round trips, want 6 (1 stats, 1 detach, 1 drop, 1 listen, 1 compose, 1 redial)", n)
	}
	d.Start()
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
}

// TestLaneOps drives the typed lane operations against a live node.
func TestLaneOps(t *testing.T) {
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	n := startNode(t, "alpha", tc.catalog())
	const lane = "ops/cut0"
	listen := func(bind string) string {
		t.Helper()
		rep, err := n.client.Lane(remote.LaneRequest{Kind: remote.LaneListen, Lane: lane, Addr: bind, Durable: true})
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		return rep.Addr
	}
	op := func(req remote.LaneRequest) error {
		_, err := n.client.Lane(req)
		return err
	}
	redial := func(addr string) error {
		return op(remote.LaneRequest{Kind: remote.LaneRedial, Lane: lane, Addr: addr})
	}

	first := freeAddr(t)
	if got := listen(first); got != first {
		t.Fatalf("listen bound %q, want the address asked for, %q", got, first)
	}
	if got := listen(freeAddr(t)); got != first {
		t.Fatalf("a second listen on the lane answered %q, want the bound %q (idempotent)", got, first)
	}
	if err := redial(first); err == nil {
		t.Fatal("redial of a lane with no registered sender succeeded")
	}
	// A sender for the same lane on the same node: the upstream half of a
	// co-placed pair.
	if _, err := n.client.ComposeTenantSegment("ops/up", []remote.StageSpec{
		{Kind: "counter", Name: "src", Args: []string{"5"}},
		{Kind: "fpump", Name: "pump"},
		{Kind: "ip/marshal", Name: lane + "/marshal"},
		{Kind: "ip/tcpsend", Name: lane + "/sink", Params: map[string]string{"addr": first, "lane": lane, "durable": "1"}},
	}, typespec.Typespec{}, nil, false); err != nil {
		t.Fatalf("compose sender: %v", err)
	}

	// Dropping the listener leaves the sender up: it can be redialed at a
	// fresh listener, which binds the new address because the old one is gone.
	if err := op(remote.LaneRequest{Kind: remote.LaneDrop, Lane: lane, Side: remote.ListenerSide}); err != nil {
		t.Fatalf("drop listener: %v", err)
	}
	second := freeAddr(t)
	if got := listen(second); got != second {
		t.Fatalf("listen after the listener was dropped answered %q, want a fresh %q", got, second)
	}
	if err := redial(second); err != nil {
		t.Fatalf("redial after dropping only the listener: %v", err)
	}
	// Dropping the sender leaves the listener up.
	if err := op(remote.LaneRequest{Kind: remote.LaneDrop, Lane: lane, Side: remote.SenderSide}); err != nil {
		t.Fatalf("drop sender: %v", err)
	}
	if err := redial(second); err == nil {
		t.Fatal("redial succeeded after the sender was dropped")
	}
	if got := listen(freeAddr(t)); got != second {
		t.Fatalf("listen after the sender was dropped answered %q, want the bound %q", got, second)
	}

	for name, req := range map[string]remote.LaneRequest{
		"zero kind":    {Lane: lane},
		"unknown kind": {Kind: remote.LaneAbort + 1, Lane: lane},
		"unknown side": {Kind: remote.LaneDrop, Lane: lane, Side: remote.SenderSide + 1},
		"no such side": {Kind: remote.LaneDrop, Lane: lane, Side: -1},
	} {
		if err := op(req); err == nil {
			t.Errorf("%s: the node accepted %+v", name, req)
		}
	}
	if got := listen(freeAddr(t)); got != second {
		t.Fatalf("a refused op disturbed the lane: listen answered %q, want %q", got, second)
	}
	if err := op(remote.LaneRequest{Kind: remote.LaneAbort, Prefix: "ops/"}); err != nil {
		t.Fatalf("abort: %v", err)
	}
	assertNoListener(t, n.client, lane)
}
