package remote_test

import (
	"fmt"
	"sync"
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/graph"
	"infopipes/internal/pipes"
	"infopipes/internal/remote"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// TestDeploymentBusScope: the segments of one graph deployment share a bus
// of their own on a node, apart from every other deployment's and from the
// node's bus, which the plain Compose pipelines keep.  The bus goes with the
// deployment's last pipeline, however it leaves (detach, RemovePipeline,
// LaneAbort): the next segment under that name gets a fresh one.
func TestDeploymentBusScope(t *testing.T) {
	sched := uthread.New(uthread.WithClock(vclock.Real{}))
	node := remote.NewNode("scope", sched, &events.Bus{})
	graph.EnableNode(node, graph.Catalog{
		"src": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			return core.Comp(pipes.NewCounterSource(name, 0)), nil
		},
		"pump": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			return core.Pmp(pipes.NewFreePump(name)), nil
		},
		"sink": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			return core.Comp(pipes.NewCollectSink(name)), nil
		},
	})
	addr, err := node.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	sched.RunBackground()
	defer sched.Stop()
	c, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	specs := []remote.StageSpec{{Kind: "src", Name: "src"}, {Kind: "pump", Name: "pump"}, {Kind: "sink", Name: "sink"}}
	bus := func(name string) *events.Bus {
		t.Helper()
		p, ok := node.Pipeline(name)
		if !ok {
			t.Fatalf("no pipeline %q on the node", name)
		}
		return p.Bus()
	}
	segment := func(name string) *events.Bus {
		t.Helper()
		if err := c.ComposeSegment(name, specs); err != nil {
			t.Fatalf("compose %s: %v", name, err)
		}
		return bus(name)
	}
	a, b := segment("a/one"), segment("b/one")
	if segment("a/two") != a {
		t.Error("two segments of one deployment sit on different buses")
	}
	if a == b {
		t.Error("two deployments share a bus")
	}
	if a == node.Bus() || b == node.Bus() {
		t.Error("a graph segment sits on the node's own bus")
	}
	for _, name := range []string{"plain", "x/plain"} {
		if err := c.Compose(name, specs); err != nil {
			t.Fatalf("compose %s: %v", name, err)
		}
		if bus(name) != node.Bus() {
			t.Errorf("plain pipeline %q is not on the node's bus", name)
		}
	}

	// Segments of one deployment composed at once, over connections of
	// their own, still find one bus.
	var wg sync.WaitGroup
	for k := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc, err := remote.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cc.Close()
			if err := cc.ComposeSegment(fmt.Sprintf("c/%d", k), specs); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for k := range 4 {
		if bus(fmt.Sprintf("c/%d", k)) != bus("c/0") {
			t.Fatal("segments of one deployment composed at once sit on different buses")
		}
	}

	// Detach: the bus stays while a pipeline of the deployment is left.
	if err := c.Detach("a/one"); err != nil {
		t.Fatal(err)
	}
	if segment("a/three") != a {
		t.Error("the deployment's bus went while a pipeline of it was still on the node")
	}
	for _, name := range []string{"a/two", "a/three"} {
		if err := c.Detach(name); err != nil {
			t.Fatal(err)
		}
	}
	if segment("a/four") == a {
		t.Error("the deployment's bus outlived its last pipeline (detach)")
	}
	// RemovePipeline.
	if p, _ := node.RemovePipeline("b/one"); p != nil {
		p.Stop()
	}
	if segment("b/two") == b {
		t.Error("the deployment's bus outlived its last pipeline (RemovePipeline)")
	}
	// LaneAbort.
	if _, err := c.Lane(remote.LaneRequest{Kind: remote.LaneAbort, Prefix: "b/"}); err != nil {
		t.Fatal(err)
	}
	b = segment("b/three")
	if _, err := c.Lane(remote.LaneRequest{Kind: remote.LaneAbort, Prefix: "b/"}); err != nil {
		t.Fatal(err)
	}
	if segment("b/three") == b {
		t.Error("the deployment's bus outlived its last pipeline (LaneAbort)")
	}
}
