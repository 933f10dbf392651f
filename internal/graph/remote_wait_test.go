package graph_test

import (
	"strconv"
	"testing"
	"time"

	"infopipes/internal/events"
	"infopipes/internal/graph"
	"infopipes/internal/pipes"
	"infopipes/internal/remote"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// TestRemoteWaitAfterFailedStart is the regression test for the
// Wait-hangs-forever bug: when Start cannot reach every node (a node died
// between Deploy and Start), the deployment rolls the started nodes back
// and Wait must return the rollback error — previously it polled the dead
// deployment's done-flags forever.
func TestRemoteWaitAfterFailedStart(t *testing.T) {
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
	defer schedA.Stop()
	nodeB, schedB, clientB := mkNode("beta")
	defer func() { nodeB.Close(); schedB.Stop() }()

	const items = 1000
	g := graph.New("rw")
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)))
	g.AddSpec("pump", "cpump", graph.WithArgs("50"))
	g.AddSpec("probe", "probe")
	g.AddSpec("po", "fpump", graph.Place(1))
	g.AddSpec("sink", "collect", graph.Place(1))
	g.Pipe("src", "pump", "probe")
	g.Cut("probe", "po")
	g.Pipe("po", "sink")

	d, err := g.Deploy(graph.OnNodes(clientA, clientB))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	// Node alpha — the FIRST client — dies before the deployment starts:
	// the start broadcast fails on it, so beta's pipelines never start and
	// a Wait that merely polled their done-flags would spin forever.
	nodeA.Close()
	clientA.Close()

	d.Start()
	waited := make(chan error, 1)
	go func() { waited <- d.Wait() }()
	select {
	case err := <-waited:
		if err == nil {
			t.Fatal("Wait returned nil after a failed Start")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait hung after a failed Start (regression)")
	}
	if err := d.Err(); err == nil {
		t.Fatal("Err reports nil after a failed Start")
	}
	d.Stop() // best-effort rollback of the surviving node
}

// TestRemoteStopReachesNodesPastADeadOne: Stop is a broadcast, and it used
// to end at the first node that could not be reached — so with node 0 dead,
// the segments on nodes 1 and 2 were never told to stop and ran on, parked
// on durable lanes nobody would redial (a plain lane would have ended its
// receiver with the dead sender's connection and hidden the bug).
func TestRemoteStopReachesNodesPastADeadOne(t *testing.T) {
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()
	a := startNode(t, "alpha", cat)
	b := startNode(t, "beta", cat)
	c := startNode(t, "gamma", cat)

	g := graph.New("stop3")
	g.AddSpec("src", "counter", graph.WithArgs("1000000"), graph.Place(0))
	g.AddSpec("pump", "cpump", graph.WithArgs("200"), graph.Place(0))
	g.AddSpec("mid", "probe", graph.Place(1))
	g.AddSpec("mp", "fpump", graph.Place(1))
	g.AddSpec("out", "fpump", graph.Place(2))
	g.AddSpec("sink", "collect", graph.Place(2))
	g.Pipe("src", "pump")
	g.Cut("pump", "mid")
	g.Pipe("mid", "mp")
	g.Cut("mp", "out")
	g.Pipe("out", "sink")
	d, err := g.Deploy(graph.OnNodes(a.client, b.client, c.client).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	d.Start()
	deadline := time.Now().Add(10 * time.Second)
	for tc.sinks["sink"].Count() < 5 {
		if time.Now().After(deadline) {
			t.Fatal("the chain delivered nothing")
		}
		time.Sleep(5 * time.Millisecond)
	}

	a.close()
	a.client.Close()
	d.Stop()

	deadline = time.Now().Add(5 * time.Second)
	for _, n := range []*clusterNode{b, c} {
		for {
			rows, err := n.client.Stats("stop3/")
			if err != nil {
				t.Fatalf("stats: %v", err)
			}
			running := ""
			for _, r := range rows {
				if !r.Done {
					running = r.Name
				}
			}
			if len(rows) > 0 && running == "" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("pipeline %q still runs after Stop (rows: %d): the broadcast ended at the dead node", running, len(rows))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
