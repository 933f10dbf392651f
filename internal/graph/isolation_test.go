package graph_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// isoItems is the length of every stream in the isolation test.
const isoItems = 200

// isoCatalog is the typed test catalog plus "failat", a filter that fails
// the pipeline at the item whose sequence number is its argument.
func isoCatalog(tc *testCatalog) graph.Catalog {
	cat := typedCatalog(tc)
	cat["failat"] = func(name string, args []string, _ map[string]string) (core.Stage, error) {
		var at int64
		if _, err := fmt.Sscan(args[0], &at); err != nil {
			return core.Stage{}, err
		}
		return core.Comp(pipes.NewFuncFilter(name, func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
			if it.Seq == at {
				return nil, fmt.Errorf("%s: planted failure at item %d", name, at)
			}
			return it, nil
		})), nil
	}
	return cat
}

// isoGraph declares src>>pump | cut | mid>>out>>sink, 200 items at 1 kHz:
// two segments, so a stray event has a pipeline to reach on each side of
// the cut.  mid is the stage kind in the middle, and the sink is named
// after the graph.
func isoGraph(name, mid string, midArgs ...string) *graph.Graph {
	g := graph.New(name)
	g.AddSpec("src", "counter", graph.WithArgs(fmt.Sprint(isoItems)))
	g.AddSpec("pump", "cpump", graph.WithArgs("1000"))
	g.AddSpec("mid", mid, graph.WithArgs(midArgs...))
	g.AddSpec("out", "fpump")
	g.AddSpec(name+"sink", "collect")
	g.Pipe("src", "pump")
	g.Cut("pump", "mid")
	g.Pipe("mid", "out", name+"sink")
	return g
}

// colocation is one kind of place that hosts two deployments side by side:
// one in-process node, one scheduler or one 2-shard group, each on the wall
// clock so the test can act while a stream runs.  open readies a fresh one
// and returns how to deploy onto it.
type colocation struct {
	name string
	open func(t *testing.T, cat graph.Catalog) deployFn
}

type deployFn func(g *graph.Graph) (*graph.Deployment, error)

var colocations = []colocation{
	{"node", func(t *testing.T, cat graph.Catalog) deployFn {
		n := startNode(t, "host", cat)
		return func(g *graph.Graph) (*graph.Deployment, error) { return g.Deploy(graph.OnNodes(n.client)) }
	}},
	{"scheduler", func(t *testing.T, cat graph.Catalog) deployFn {
		sched := uthread.New(uthread.WithClock(vclock.Real{}))
		sched.AddExternalSource() // Run idles between the deployments
		ran := sched.RunBackground()
		t.Cleanup(func() {
			sched.ReleaseExternalSource()
			if err := <-ran; err != nil {
				t.Errorf("scheduler: %v", err)
			}
		})
		return func(g *graph.Graph) (*graph.Deployment, error) {
			return g.UseCatalog(cat).Deploy(graph.OnScheduler(sched))
		}
	}},
	{"group", func(t *testing.T, cat graph.Catalog) deployFn {
		grp := shard.NewGroup(shard.WithShardCount(2), shard.WithRealClock())
		t.Cleanup(func() {
			if err := grp.Wait(); err != nil {
				t.Errorf("group: %v", err)
			}
		})
		return func(g *graph.Graph) (*graph.Deployment, error) {
			d, err := g.UseCatalog(cat).Deploy(graph.OnGroup(grp))
			grp.Start() // after the first deploy, whose pins keep every shard up
			return d, err
		}
	}},
}

// until polls cond for up to ten seconds.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestLifecycleStaysInDeployment co-locates deployments A and B on one
// node, one scheduler and one 2-shard group, and lets A start, stop, fail
// and fail to deploy beside B.  Whatever A does, B's sink trace must be
// byte-identical to B run alone and B.Wait must return nil: a deployment
// is its own event scope on every target.
func TestLifecycleStaysInDeployment(t *testing.T) {
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	sched := uthread.New()
	alone, err := isoGraph("b", "probe").UseCatalog(isoCatalog(tc)).Deploy(graph.OnScheduler(sched))
	if err != nil {
		t.Fatal(err)
	}
	alone.Start()
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	want := sinkTrace(tc.sink("bsink"))
	if n := len(strings.Fields(want)); n != isoItems {
		t.Fatalf("B alone delivered %d of %d items", n, isoItems)
	}

	// Each row drives A beside B, which is deployed; the row starts B.
	rows := []struct {
		name string
		run  func(t *testing.T, deploy deployFn, tc *testCatalog, startB func())
	}{
		{"A starts while B has not", func(t *testing.T, deploy deployFn, tc *testCatalog, startB func()) {
			a := mustDeploy(t, deploy, isoGraph("a", "probe"))
			a.Start()
			if err := a.Wait(); err != nil {
				t.Fatalf("A: %v", err)
			}
			if n := tc.sink("bsink").Count(); n != 0 {
				t.Fatalf("A's start started B: %d items reached B's sink before B.Start", n)
			}
			startB()
		}},
		{"A stops mid-stream", func(t *testing.T, deploy deployFn, tc *testCatalog, startB func()) {
			startB()
			a := mustDeploy(t, deploy, isoGraph("a", "probe"))
			a.Start()
			until(t, "A is 40 items in", func() bool { return tc.sink("asink").Count() >= 40 })
			a.Stop()
			if err := a.Wait(); err != nil {
				t.Fatalf("A: %v", err)
			}
			if tc.sink("asink").Count() == isoItems {
				t.Fatal("A finished before its stop: the row shows nothing")
			}
		}},
		{"a stage in A fails mid-stream", func(t *testing.T, deploy deployFn, tc *testCatalog, startB func()) {
			startB()
			a := mustDeploy(t, deploy, isoGraph("a", "failat", "30"))
			a.Start()
			if err := a.Wait(); err == nil || !strings.Contains(err.Error(), "planted failure") {
				t.Fatalf("A's wait = %v, want the planted failure", err)
			}
		}},
		{"A's deploy fails after composing one segment", func(t *testing.T, deploy deployFn, tc *testCatalog, startB func()) {
			startB()
			until(t, "B is 40 items in", func() bool { return tc.sink("bsink").Count() >= 40 })
			if _, err := deploy(isoGraph("a", "wantother")); err == nil {
				t.Fatal("A deployed although its cut edge is mistyped")
			}
		}},
	}
	for _, row := range rows {
		for _, at := range colocations {
			t.Run(row.name+"/"+at.name, func(t *testing.T) {
				tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
				deploy := at.open(t, isoCatalog(tc))
				b := mustDeploy(t, deploy, isoGraph("b", "probe"))
				started := false
				row.run(t, deploy, tc, func() { b.Start(); started = true })
				if !started {
					t.Fatal("the row never started B")
				}
				if tc.sink("bsink").Count() == isoItems {
					t.Fatal("B finished before A acted: the row shows nothing")
				}
				if err := b.Wait(); err != nil {
					t.Fatalf("B: %v", err)
				}
				if got := sinkTrace(tc.sink("bsink")); got != want {
					t.Fatalf("B's trace differs from B run alone: %d of %d items",
						len(strings.Fields(got)), isoItems)
				}
			})
		}
	}
}

func mustDeploy(t *testing.T, deploy deployFn, g *graph.Graph) *graph.Deployment {
	t.Helper()
	d, err := deploy(g)
	if err != nil {
		t.Fatalf("deploy %s: %v", g.Name(), err)
	}
	return d
}
