package graph_test

import (
	"strconv"
	"sync"
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/graph"
	"infopipes/internal/leakcheck"
	"infopipes/internal/netpipe"
	"infopipes/internal/pipes"
	"infopipes/internal/remote"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

func init() {
	netpipe.RegisterPayload(int64(0))
}

// testCatalog is a minimal component catalog for the remote tests; the
// "collect" factory stashes every sink it builds so the (in-process) test
// can read the results back out of the node.
type testCatalog struct {
	mu    sync.Mutex
	sinks map[string]*pipes.CollectSink
}

func (tc *testCatalog) catalog() graph.Catalog {
	return graph.Catalog{
		"counter": func(name string, args []string, _ map[string]string) (core.Stage, error) {
			limit, err := strconv.ParseInt(args[0], 10, 64)
			if err != nil {
				return core.Stage{}, err
			}
			return core.Comp(pipes.NewCounterSource(name, limit)), nil
		},
		"cpump": func(name string, args []string, _ map[string]string) (core.Stage, error) {
			rate, err := strconv.ParseFloat(args[0], 64)
			if err != nil {
				return core.Stage{}, err
			}
			return core.Pmp(pipes.NewClockedPump(name, rate)), nil
		},
		"fpump": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			return core.Pmp(pipes.NewFreePump(name)), nil
		},
		"probe": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			return core.Comp(pipes.NewCountingProbe(name)), nil
		},
		"collect": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			s := pipes.NewCollectSink(name)
			tc.mu.Lock()
			tc.sinks[name] = s
			tc.mu.Unlock()
			return core.Comp(s), nil
		},
	}
}

// TestGraphDeployOnNodes is acceptance target (c): the spec-backed diamond
// deploys onto two remote nodes — trunk, branch A, merge and sink on node
// alpha, branch B on node beta — with auto-inserted TCP netpipes for the
// two cross-node edges, and every item arrives.
func TestGraphDeployOnNodes(t *testing.T) {
	const items = 40
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()

	mkNode := func(name string) (*remote.Node, *uthread.Scheduler, *remote.Client) {
		sched := uthread.New(uthread.WithClock(vclock.Real{}))
		node := remote.NewNode(name, sched, &events.Bus{})
		graph.EnableNode(node, cat)
		addr, err := node.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatalf("node %s: %v", name, err)
		}
		client, err := remote.Dial(addr)
		if err != nil {
			t.Fatalf("dial %s: %v", name, err)
		}
		sched.RunBackground()
		return node, sched, client
	}
	nodeA, schedA, clientA := mkNode("alpha")
	defer func() { nodeA.Close(); schedA.Stop() }()
	nodeB, schedB, clientB := mkNode("beta")
	defer func() { nodeB.Close(); schedB.Stop() }()

	g := graph.New("rd")
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)))
	g.AddSpec("pump", "cpump", graph.WithArgs("400"))
	g.SplitSpec("tee", "route", 2, graph.WithParam("sel", "mod"))
	g.AddSpec("fa", "probe")
	g.AddSpec("pa", "fpump")
	g.AddSpec("fb", "probe", graph.Place(1))
	g.AddSpec("pb", "fpump", graph.Place(1))
	g.MergeSpec("mrg", 2)
	g.AddSpec("po", "fpump")
	g.AddSpec("sink", "collect")
	g.Pipe("src", "pump", "tee")
	g.Pipe("tee:0", "fa", "pa", "mrg:0")
	g.Pipe("tee:1", "fb", "pb", "mrg:1")
	g.Pipe("mrg", "po", "sink")

	d, err := g.Deploy(graph.OnNodes(clientA, clientB))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	d.Start()
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}

	tc.mu.Lock()
	sink := tc.sinks["sink"]
	tc.mu.Unlock()
	if sink == nil {
		t.Fatal("sink was never built on a node")
	}
	if sink.Count() != items {
		t.Fatalf("sink received %d items, want %d", sink.Count(), items)
	}
	// Every sequence number arrives exactly once (routing + netpipes +
	// merge lose and duplicate nothing).
	seen := make(map[int64]bool, items)
	for _, it := range sink.Items() {
		if seen[it.Seq] {
			t.Fatalf("duplicate seq %d", it.Seq)
		}
		seen[it.Seq] = true
	}
	for i := int64(1); i <= items; i++ {
		if !seen[i] {
			t.Fatalf("seq %d missing", i)
		}
	}
}

// TestGraphRemoteNeedsSpecs: live stages cannot ship to a remote node; the
// deployer says so instead of failing somewhere deep.
func TestGraphRemoteNeedsSpecs(t *testing.T) {
	g := graph.New("live")
	g.Add(core.Comp(pipes.NewCounterSource("src", 5)))
	g.Add(core.Pmp(pipes.NewFreePump("p")))
	g.Add(core.Comp(pipes.NewCollectSink("sink")))
	g.Pipe("src", "p", "sink")
	_, err := g.Deploy(graph.OnNodes(nil...))
	if err == nil {
		t.Fatal("deploy succeeded with no nodes")
	}
	sched := uthread.New(uthread.WithClock(vclock.Real{}))
	node := remote.NewNode("n", sched, &events.Bus{})
	graph.EnableNode(node, graph.Catalog{})
	addr, err := node.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	client, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := g.Deploy(graph.OnNodes(client)); err == nil {
		t.Fatal("live graph deployed remotely, want spec-backed error")
	}
}

// TestGraphRemoteAbortOnFailure: when a deployment fails partway (a kind
// missing on one node), the deployer rolls back what it already composed —
// rendezvous listeners are closed and forgotten — and a corrected retry of
// the same graph succeeds.
func TestGraphRemoteAbortOnFailure(t *testing.T) {
	leakcheck.Check(t)
	const items = 10
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()

	schedA := uthread.New(uthread.WithClock(vclock.Real{}))
	nodeA := remote.NewNode("alpha", schedA, &events.Bus{})
	graph.EnableNode(nodeA, cat)
	addrA, err := nodeA.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { nodeA.Close(); schedA.Stop() }()
	// Node beta lacks the "probe" kind entirely.
	catB := tc.catalog()
	delete(catB, "probe")
	schedB := uthread.New(uthread.WithClock(vclock.Real{}))
	nodeB := remote.NewNode("beta", schedB, &events.Bus{})
	graph.EnableNode(nodeB, catB)
	addrB, err := nodeB.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { nodeB.Close(); schedB.Stop() }()
	clientA, err := remote.Dial(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer clientA.Close()
	clientB, err := remote.Dial(addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer clientB.Close()
	schedA.RunBackground()
	schedB.RunBackground()

	declare := func(placeB int) *graph.Graph {
		g := graph.New("ab")
		g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)))
		g.AddSpec("pump", "cpump", graph.WithArgs("400"))
		g.SplitSpec("tee", "route", 2, graph.WithParam("sel", "mod"))
		g.AddSpec("fa", "probe")
		g.AddSpec("pa", "fpump")
		g.AddSpec("fb", "probe", graph.Place(placeB))
		g.AddSpec("pb", "fpump", graph.Place(placeB))
		g.MergeSpec("mrg", 2)
		g.AddSpec("po", "fpump")
		g.AddSpec("sink", "collect")
		g.Pipe("src", "pump", "tee")
		g.Pipe("tee:0", "fa", "pa", "mrg:0")
		g.Pipe("tee:1", "fb", "pb", "mrg:1")
		g.Pipe("mrg", "po", "sink")
		return g
	}

	// Branch B on beta, whose catalog lacks "probe": composing that
	// segment fails AFTER the listener of its merge lane was bound on alpha
	// (pre-bound here, so the test knows its address: listen is idempotent
	// per lane, and the deploy adopts it).
	bound := listenLane(t, clientA, remote.LaneRequest{Lane: "ab/mrg:1"})
	if _, err := declare(1).Deploy(graph.OnNodes(clientA, clientB)); err == nil {
		t.Fatal("deploy succeeded although beta lacks the probe kind")
	}
	// Rollback removed what the partial deploy created on alpha: no pipeline
	// row is left under the graph prefix, and the merge lane's rendezvous
	// listener is closed.
	if rows, err := clientA.Stats("ab/"); err != nil || len(rows) != 0 {
		t.Fatalf("pipelines survived the aborted deployment: %+v (err %v)", rows, err)
	}
	assertNoListener(t, bound)

	// The corrected graph — same name, branch B moved to alpha — deploys
	// cleanly afterwards: the aborted pipelines freed their names.
	d, err := declare(0).Deploy(graph.OnNodes(clientA, clientB))
	if err != nil {
		t.Fatalf("retry deploy: %v", err)
	}
	d.Start()
	if err := d.Wait(); err != nil {
		t.Fatalf("retry wait: %v", err)
	}
	if got := tc.sinks["sink"].Count(); got != items {
		t.Fatalf("sink received %d items, want %d", got, items)
	}
}
