package graph_test

import (
	"errors"
	"fmt"
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// diamond declares the canonical branching pipeline of the acceptance
// criteria — source -> split -> 2 filter chains -> merge -> sink — with a
// routing split (odd/even by sequence), live components, and returns the
// graph plus the collecting sink.
func diamond(name string, items int64, placeB int) (*graph.Graph, *pipes.CollectSink) {
	g := graph.New(name)
	sink := pipes.NewCollectSink("sink")
	tee := pipes.NewRouteTee("tee", 2, 8, typespec.Block, typespec.Block,
		func(it *item.Item) int { return int((it.Seq - 1) % 2) })
	mrg := pipes.NewMergeTee("mrg", 2, 8, typespec.Block, typespec.Block)

	tag := func(name, mark string) *pipes.FuncFilter {
		return pipes.NewFuncFilter(name, func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
			return it.WithAttr("via", mark), nil
		})
	}
	g.Add(core.Comp(pipes.NewCounterSource("src", items)))
	g.Add(core.Pmp(pipes.NewClockedPump("pump", 100)))
	g.Split(tee)
	bOpts := []graph.NodeOption{}
	if placeB >= 0 {
		bOpts = append(bOpts, graph.Place(placeB))
	}
	g.Add(core.Comp(tag("fa", "a")))
	g.Add(core.Pmp(pipes.NewFreePump("pa")))
	g.Add(core.Comp(tag("fb", "b")), bOpts...)
	g.Add(core.Pmp(pipes.NewFreePump("pb")), bOpts...)
	g.Merge(mrg)
	g.Add(core.Pmp(pipes.NewFreePump("po")))
	g.Add(core.Comp(sink))
	g.Pipe("src", "pump", "tee")
	g.Pipe("tee:0", "fa", "pa", "mrg:0")
	g.Pipe("tee:1", "fb", "pb", "mrg:1")
	g.Pipe("mrg", "po", "sink")
	return g, sink
}

// trace renders the sink's observed item stream: sequence, payload, branch
// tag and virtual arrival order.
func trace(sink *pipes.CollectSink) string {
	out := ""
	for _, it := range sink.Items() {
		via, _ := it.Attrs["via"].(string)
		out += fmt.Sprintf("%d/%v/%s;", it.Seq, it.Payload, via)
	}
	return out
}

func TestGraphDeployOnScheduler(t *testing.T) {
	const items = 40
	g, sink := diamond("d", items, -1)
	sched := uthread.New()
	d, err := g.Deploy(graph.OnScheduler(sched))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	d.Start()
	if err := sched.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if sink.Count() != items {
		t.Fatalf("sink received %d items, want %d", sink.Count(), items)
	}
	// Each branch saw its half, tagged accordingly.
	var a, b int
	for _, it := range sink.Items() {
		switch it.Attrs["via"] {
		case "a":
			a++
		case "b":
			b++
		}
	}
	if a != items/2 || b != items/2 {
		t.Fatalf("branch counts a=%d b=%d, want %d each", a, b, items/2)
	}
}

// TestGraphMatchesHandWiredTees: deploying the diamond through Graph must
// produce the exact item trace of the equivalent hand-wired tee pipelines
// under the virtual clock.
func TestGraphMatchesHandWiredTees(t *testing.T) {
	const items = 30

	// Hand-wired: three pipelines around the same tees.
	handSink := pipes.NewCollectSink("sink")
	sched := uthread.New()
	tee := pipes.NewRouteTee("tee", 2, 8, typespec.Block, typespec.Block,
		func(it *item.Item) int { return int((it.Seq - 1) % 2) })
	mrg := pipes.NewMergeTee("mrg", 2, 8, typespec.Block, typespec.Block)
	tag := func(name, mark string) *pipes.FuncFilter {
		return pipes.NewFuncFilter(name, func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
			return it.WithAttr("via", mark), nil
		})
	}
	trunk, err := core.Compose("trunk", sched, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", items)),
		core.Pmp(pipes.NewClockedPump("pump", 100)),
		core.Comp(tee),
	})
	if err != nil {
		t.Fatalf("compose trunk: %v", err)
	}
	if _, err := core.Compose("ba", sched, trunk.Bus(), []core.Stage{
		core.Comp(tee.Out(0)), core.Comp(tag("fa", "a")),
		core.Pmp(pipes.NewFreePump("pa")), core.Comp(mrg.In(0)),
	}); err != nil {
		t.Fatalf("compose ba: %v", err)
	}
	if _, err := core.Compose("bb", sched, trunk.Bus(), []core.Stage{
		core.Comp(tee.Out(1)), core.Comp(tag("fb", "b")),
		core.Pmp(pipes.NewFreePump("pb")), core.Comp(mrg.In(1)),
	}); err != nil {
		t.Fatalf("compose bb: %v", err)
	}
	if _, err := core.Compose("down", sched, trunk.Bus(), []core.Stage{
		core.Comp(mrg.Out()), core.Pmp(pipes.NewFreePump("po")), core.Comp(handSink),
	}); err != nil {
		t.Fatalf("compose down: %v", err)
	}
	trunk.Start()
	if err := sched.Run(); err != nil {
		t.Fatalf("hand-wired run: %v", err)
	}

	// Graph deploy of the same topology.
	g, graphSink := diamond("d", items, -1)
	sched2 := uthread.New()
	d, err := g.Deploy(graph.OnScheduler(sched2))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	d.Start()
	if err := sched2.Run(); err != nil {
		t.Fatalf("graph run: %v", err)
	}
	if got, want := trace(graphSink), trace(handSink); got != want {
		t.Fatalf("traces differ:\ngraph: %s\nhand:  %s", got, want)
	}
}

// TestGraphDeterministicAcrossTargets is the acceptance check: the same
// branching graph deployed on (a) one scheduler and (b) a 2-shard group,
// branch B reading its tee port from the other shard, yields byte-identical
// item traces under the group's virtual clock, run after run.
func TestGraphDeterministicAcrossTargets(t *testing.T) {
	const items = 30
	runScheduler := func() string {
		g, sink := diamond("d", items, -1)
		sched := uthread.New()
		d, err := g.Deploy(graph.OnScheduler(sched))
		if err != nil {
			t.Fatalf("deploy(scheduler): %v", err)
		}
		d.Start()
		if err := sched.Run(); err != nil {
			t.Fatalf("run(scheduler): %v", err)
		}
		if err := d.Wait(); err != nil {
			t.Fatalf("wait(scheduler): %v", err)
		}
		return trace(sink)
	}
	runGroup := func() string {
		// Branch B is hinted to shard 1; everything else stays on shard 0.
		g, sink := diamond("d", items, 1)
		grp := shard.NewGroup(shard.WithShardCount(2))
		d, err := g.Deploy(graph.OnGroup(grp))
		if err != nil {
			t.Fatalf("deploy(group): %v", err)
		}
		if at := d.SegmentPlacements()["fb>>pb"]; at != 1 || len(d.Links()) != 0 {
			t.Fatalf("branch B on shard %d with %d links; want shard 1 and no link", at, len(d.Links()))
		}
		d.Start()
		if err := grp.Run(); err != nil {
			t.Fatalf("run(group): %v", err)
		}
		if err := d.Wait(); err != nil {
			t.Fatalf("wait(group): %v", err)
		}
		return trace(sink)
	}

	want := runScheduler()
	if want == "" {
		t.Fatal("empty trace")
	}
	for i := 0; i < 3; i++ {
		if got := runScheduler(); got != want {
			t.Fatalf("scheduler run %d diverged:\n%s\nvs\n%s", i, got, want)
		}
	}
	for i := 0; i < 5; i++ {
		if got := runGroup(); got != want {
			t.Fatalf("group run %d diverged:\n%s\nvs\n%s", i, got, want)
		}
	}
}

// TestGraphValidationErrors covers the planner's error taxonomy.
func TestGraphValidationErrors(t *testing.T) {
	mk := func() (*graph.Graph, *pipes.Merge, *pipes.Split) {
		g := graph.New("v")
		tee := pipes.NewCopyTee("tee", 2, 4, typespec.Block, typespec.Block)
		mrg := pipes.NewMergeTee("mrg", 2, 4, typespec.Block, typespec.Block)
		g.Add(core.Comp(pipes.NewCounterSource("src", 5)))
		g.Add(core.Pmp(pipes.NewFreePump("p1")))
		g.Split(tee)
		g.Merge(mrg)
		g.Add(core.Pmp(pipes.NewFreePump("p2")))
		g.Add(core.Comp(pipes.NewCollectSink("sink")))
		return g, mrg, tee
	}

	t.Run("cycle", func(t *testing.T) {
		g := graph.New("cycle")
		g.Add(core.Comp(pipes.NewCounterSource("src", 5)))
		g.Add(core.Pmp(pipes.NewFreePump("p1")))
		g.Add(core.Comp(pipes.NewCountingProbe("x")))
		g.Add(core.Comp(pipes.NewCountingProbe("y")))
		g.Pipe("src", "p1", "x", "y", "x")
		_, err := g.Plan()
		if !errors.Is(err, core.ErrBadGraph) && !errors.Is(err, core.ErrGraphCycle) {
			t.Fatalf("err = %v, want cycle or duplicate-connection error", err)
		}
	})
	t.Run("pure-cycle", func(t *testing.T) {
		g := graph.New("cycle")
		g.Add(core.Comp(pipes.NewCountingProbe("x")))
		g.Add(core.Comp(pipes.NewCountingProbe("y")))
		g.Add(core.Comp(pipes.NewCountingProbe("z")))
		g.Pipe("x", "y", "z")
		g.Pipe("z", "x")
		_, err := g.Plan()
		if !errors.Is(err, core.ErrGraphCycle) {
			t.Fatalf("err = %v, want ErrGraphCycle", err)
		}
	})
	t.Run("dangling-split-port", func(t *testing.T) {
		g, _, _ := mk()
		g.Pipe("src", "p1", "tee")
		g.Pipe("tee:0", "mrg:0")
		// tee:1 and mrg:1 stay unconnected.
		g.Pipe("mrg", "p2", "sink")
		_, err := g.Plan()
		if !errors.Is(err, core.ErrDanglingPort) {
			t.Fatalf("err = %v, want ErrDanglingPort", err)
		}
	})
	t.Run("two-pumps-per-segment", func(t *testing.T) {
		g := graph.New("tp")
		g.Add(core.Comp(pipes.NewCounterSource("src", 5)))
		g.Add(core.Pmp(pipes.NewFreePump("p1")))
		g.Add(core.Pmp(pipes.NewFreePump("p2")))
		g.Add(core.Comp(pipes.NewCollectSink("sink")))
		g.Pipe("src", "p1", "p2", "sink")
		_, err := g.Deploy(graph.OnScheduler(uthread.New()))
		if !errors.Is(err, core.ErrTwoPumps) {
			t.Fatalf("err = %v, want ErrTwoPumps", err)
		}
	})
	t.Run("empty-branch", func(t *testing.T) {
		g, _, _ := mk()
		g.Pipe("src", "p1", "tee")
		g.Pipe("tee:0", "mrg:0")
		g.Pipe("tee:1", "mrg:1")
		g.Pipe("mrg", "p2", "sink")
		_, err := g.Plan()
		if !errors.Is(err, core.ErrBadGraph) {
			t.Fatalf("err = %v, want ErrBadGraph (empty segment)", err)
		}
	})
	t.Run("placement-conflict", func(t *testing.T) {
		g := graph.New("pc")
		g.Add(core.Comp(pipes.NewCounterSource("src", 5)), graph.Place(0))
		g.Add(core.Pmp(pipes.NewFreePump("p1")))
		g.Add(core.Comp(pipes.NewCollectSink("sink")), graph.Place(1))
		g.Pipe("src", "p1", "sink")
		_, err := g.Plan()
		if !errors.Is(err, core.ErrPlacementConflict) {
			t.Fatalf("err = %v, want ErrPlacementConflict", err)
		}
	})
	t.Run("unknown-node", func(t *testing.T) {
		g := graph.New("u")
		g.Add(core.Comp(pipes.NewCounterSource("src", 5)))
		g.Pipe("src", "nope")
		_, err := g.Plan()
		if !errors.Is(err, core.ErrBadGraph) {
			t.Fatalf("err = %v, want ErrBadGraph", err)
		}
	})
}

// TestGraphTypespecAcrossBranches: the trunk's resolved Typespec seeds the
// branch segments, so a branch head sees the source's item type instead of
// a blank spec — and incompatible branches fail the merge.
func TestGraphTypespecAcrossBranches(t *testing.T) {
	const items = 10
	g, _ := diamond("d", items, -1)
	sched := uthread.New()
	d, err := g.Deploy(graph.OnScheduler(sched))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	ba, ok := d.Segment("fa>>pa")
	if !ok {
		names := []string{}
		for _, p := range d.Pipelines() {
			names = append(names, p.Name())
		}
		t.Fatalf("branch segment not found; pipelines: %v", names)
	}
	// Spec at the branch's first stage must carry the counter item type.
	if spec := ba.SpecAt(0); spec.ItemType != "test/counter" {
		t.Fatalf("branch head spec = %v, want item type test/counter", spec)
	}
	d.Stop()
	_ = sched.Run()
}

// TestGraphCutEdge: an explicit Cut boundary splits a linear chain into two
// segments joined by a buffer, so the tail runs on the shard it is hinted
// onto and pumps every item there.
func TestGraphCutEdge(t *testing.T) {
	const items = 25
	g := graph.New("cut")
	sink := pipes.NewCollectSink("sink")
	g.Add(core.Comp(pipes.NewCounterSource("src", items)))
	g.Add(core.Pmp(pipes.NewClockedPump("pump", 200)))
	g.Add(core.Comp(pipes.NewCountingProbe("probe")))
	g.Add(core.Pmp(pipes.NewFreePump("pump2")), graph.Place(1))
	g.Add(core.Comp(sink), graph.Place(1))
	g.Pipe("src", "pump", "probe")
	g.Cut("probe", "pump2")
	g.Pipe("pump2", "sink")

	grp := shard.NewGroup(shard.WithShardCount(2))
	d, err := g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if at := d.SegmentPlacements()["pump2>>sink"]; at != 1 {
		t.Fatalf("tail placed on shard %d, want 1", at)
	}
	d.Start()
	if err := grp.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if sink.Count() != items {
		t.Fatalf("sink received %d, want %d", sink.Count(), items)
	}
	if sh := d.Stats().Shards; sh[0].Items != items || sh[1].Items != items {
		t.Fatalf("pump items per shard %d and %d, want %d on each", sh[0].Items, sh[1].Items, items)
	}
}

// TestGraphCrossShardFanout runs a copy-tee fan-out with both branches on a
// different shard than the trunk, each reading its tee port's buffer
// directly, checking per-branch FIFO subsequences (run under -race in CI).
func TestGraphCrossShardFanout(t *testing.T) {
	const items = 50
	g := graph.New("fan")
	sinkA := pipes.NewCollectSink("sa")
	sinkB := pipes.NewCollectSink("sb")
	tee := pipes.NewCopyTee("tee", 2, 8, typespec.Block, typespec.Block)
	g.Add(core.Comp(pipes.NewCounterSource("src", items)))
	g.Add(core.Pmp(pipes.NewFreePump("pump")))
	g.Split(tee)
	g.Add(core.Pmp(pipes.NewFreePump("pa")), graph.Place(1))
	g.Add(core.Comp(sinkA), graph.Place(1))
	g.Add(core.Pmp(pipes.NewFreePump("pb")), graph.Place(2))
	g.Add(core.Comp(sinkB), graph.Place(2))
	g.Pipe("src", "pump", "tee")
	g.Pipe("tee:0", "pa", "sa")
	g.Pipe("tee:1", "pb", "sb")

	grp := shard.NewGroup(shard.WithShardCount(3))
	d, err := g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	at := d.SegmentPlacements()
	if at["pa>>sa"] != 1 || at["pb>>sb"] != 2 || len(d.Links()) != 0 {
		t.Fatalf("placements %v with %d links; want pa>>sa on 1, pb>>sb on 2 and no link", at, len(d.Links()))
	}
	d.Start()
	if err := grp.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	for name, s := range map[string]*pipes.CollectSink{"a": sinkA, "b": sinkB} {
		if s.Count() != items {
			t.Fatalf("sink %s received %d, want %d", name, s.Count(), items)
		}
		for i, it := range s.Items() {
			if it.Seq != int64(i+1) {
				t.Fatalf("sink %s item %d has seq %d (reordered)", name, i, it.Seq)
			}
		}
	}
}

// TestFinishedOnLocalTargets: Finished answers on a scheduler and a group as
// it does on nodes — false before the stream starts, true once Wait has
// seen it end.
func TestFinishedOnLocalTargets(t *testing.T) {
	for _, target := range []string{"scheduler", "group"} {
		t.Run(target, func(t *testing.T) {
			g := graph.New("fin-" + target)
			g.Add(core.Comp(pipes.NewCounterSource("src", 20)))
			g.Add(core.Pmp(pipes.NewFreePump("pump")))
			g.Add(core.Comp(pipes.NewCollectSink("sink")), graph.Place(1))
			g.Pipe("src", "pump", "sink")
			var run func() error
			var d *graph.Deployment
			var err error
			if target == "scheduler" {
				sched := uthread.New()
				d, err = g.Deploy(graph.OnScheduler(sched))
				run = sched.Run
			} else {
				grp := shard.NewGroup(shard.WithShardCount(2))
				d, err = g.Deploy(graph.OnGroup(grp))
				run = grp.Run
			}
			if err != nil {
				t.Fatalf("deploy: %v", err)
			}
			if d.Finished() {
				t.Fatal("Finished before Start")
			}
			d.Start()
			if err := run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := d.Wait(); err != nil {
				t.Fatalf("wait: %v", err)
			}
			if !d.Finished() {
				t.Fatal("not Finished after Wait")
			}
		})
	}
}
