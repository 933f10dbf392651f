package graph_test

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/elastic"
	"infopipes/internal/graph"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
)

// This file pins the scope of a reconfiguration on the shard host: a
// transaction detaches and recomposes only the pipelines it affects, and
// every other pipeline — a coroutine-threaded one included — runs on.

// composed records a deployment's pipelines by name.
func composed(d *graph.Deployment) map[string]*core.Pipeline {
	out := make(map[string]*core.Pipeline)
	for _, p := range d.Pipelines() {
		out[p.Name()] = p
	}
	return out
}

// replaced lists, sorted, the pipelines of before that a transaction
// replaced or retired: their name is gone from after or names another
// pipeline.
func replaced(before, after map[string]*core.Pipeline) []string {
	var out []string
	for name, p := range before {
		if after[name] != p {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// TestQuiesceScope counts the pipelines a transaction replaces, mid-stream
// on a real-clock group: (a) moving the tail of a 3-segment cut chain,
// (b) attaching a branch to a split inside a branch, (c) one Subscribe on a
// running fan-out tree.
func TestQuiesceScope(t *testing.T) {
	const items = 2000
	t.Run("a/tail-move", func(t *testing.T) {
		g := graph.New("a")
		sink := pipes.NewCollectSink("sink")
		g.Add(core.Comp(pipes.NewCounterSource("src", items)), graph.Place(0))
		g.Add(core.Pmp(pipes.NewClockedPump("pump", 4000)), graph.Place(0))
		g.Add(core.Pmp(pipes.NewFreePump("p1")), graph.Place(1))
		g.Add(core.Comp(pipes.NewCountingProbe("f1")), graph.Place(1))
		g.Add(core.Pmp(pipes.NewFreePump("p2")), graph.Place(2))
		g.Add(core.Comp(sink), graph.Place(2))
		g.Pipe("src", "pump").Cut("pump", "p1").Pipe("p1", "f1").Cut("f1", "p2").Pipe("p2", "sink")
		grp := shard.NewGroup(shard.WithShardCount(3), shard.WithRealClock())
		d, err := g.Deploy(graph.OnGroup(grp))
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		grp.Start()
		d.Start()
		editWait(d, sink, items/8)
		before := composed(d)
		if err := d.Rebalance(map[string]int{"p2>>sink": 0}); err != nil {
			t.Fatalf("move: %v", err)
		}
		got := replaced(before, composed(d))
		if len(before) != 3 || len(got) > 2 || slices.Contains(got, "a/src>>pump") {
			t.Fatalf("the tail move replaced %v of %d pipelines; want at most 2, the head kept", got, len(before))
		}
		if err := d.Wait(); err != nil {
			t.Fatalf("wait: %v", err)
		}
		if sink.Count() != items {
			t.Fatalf("sink holds %d items, want %d", sink.Count(), items)
		}
	})

	t.Run("b/attach-inner-split", func(t *testing.T) {
		g := graph.New("b")
		sinks := map[string]*pipes.CollectSink{}
		g.Add(core.Comp(pipes.NewCounterSource("src", items)))
		g.Add(core.Pmp(pipes.NewClockedPump("pump", 4000)))
		g.Split(pipes.NewCopyTee("cpy", 2, 8, typespec.Block, typespec.Block))
		g.Split(pipes.NewCopyTee("inner", 2, 8, typespec.Block, typespec.Block))
		g.Add(core.Pmp(pipes.NewFreePump("p1")))
		g.Pipe("src", "pump", "cpy")
		g.Pipe("cpy:1", "p1", "inner")
		for _, b := range []struct {
			port, name string
			place      int
		}{{"cpy:0", "s0", 0}, {"inner:0", "sa", 0}, {"inner:1", "sb", 1}} {
			sinks[b.name] = pipes.NewCollectSink(b.name)
			g.Add(core.Pmp(pipes.NewFreePump(b.name+"p")), graph.Place(b.place))
			g.Add(core.Comp(sinks[b.name]), graph.Place(b.place))
			g.Pipe(b.port, b.name+"p", b.name)
		}
		grp := shard.NewGroup(shard.WithShardCount(2), shard.WithRealClock())
		d, err := g.Deploy(graph.OnGroup(grp))
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		grp.Start()
		d.Start()
		editWait(d, sinks["sb"], items/8)
		before := composed(d)
		joined := pipes.NewCollectSink("joined")
		if err := d.Edit(graph.AttachBranch{Split: "inner", Place: -1,
			Stages: []core.Stage{core.Pmp(pipes.NewFreePump("pj")), core.Comp(joined)}}); err != nil {
			t.Fatalf("attach: %v", err)
		}
		after := composed(d)
		if got := replaced(before, after); !slices.Equal(got, []string{"b/p1"}) {
			t.Fatalf("the attach replaced %v of %d pipelines; want only the split's segment [b/p1]", got, len(before))
		}
		if after["b/pj>>joined"] == nil {
			t.Fatalf("the attached branch was not composed: %v", slices.Sorted(maps.Keys(after)))
		}
		if err := d.Wait(); err != nil {
			t.Fatalf("wait: %v", err)
		}
		for name, sink := range sinks {
			if sink.Count() != items {
				t.Fatalf("%s holds %d items, want %d", name, sink.Count(), items)
			}
		}
		if joined.Count() == 0 || joined.Count() == items {
			t.Fatalf("the attached branch holds %d items, want a suffix landing mid-stream", joined.Count())
		}
	})

	t.Run("c/tree-subscribe", func(t *testing.T) {
		grp := shard.NewGroup(shard.WithShardCount(2), shard.WithRealClock())
		tree, err := elastic.NewTree("c", grp, 3,
			core.Comp(pipes.NewCounterSource("src", items)), core.Pmp(pipes.NewClockedPump("pump", 4000)))
		if err != nil {
			t.Fatalf("tree: %v", err)
		}
		var leaves []*pipes.CollectSink
		for r := range tree.Relays() {
			sink := pipes.NewCollectSink(fmt.Sprintf("l%d", r))
			leaves = append(leaves, sink)
			if _, err := tree.Subscribe(r, r%2, core.Pmp(pipes.NewFreePump(sink.Name()+"p")), core.Comp(sink)); err != nil {
				t.Fatalf("subscribe: %v", err)
			}
		}
		if err := tree.Start(); err != nil {
			t.Fatalf("start: %v", err)
		}
		grp.Start()
		d := tree.Trunk()
		editWait(d, leaves[0], items/8)
		before := composed(d)
		late := pipes.NewCollectSink("late")
		if _, err := tree.Subscribe(1, 1, core.Pmp(pipes.NewFreePump("latep")), core.Comp(late)); err != nil {
			t.Fatalf("subscribe mid-stream: %v", err)
		}
		after := composed(d)
		for _, name := range []string{"c/src>>pump", "c/c.r0.tee/pump", "c/c.r2.tee/pump"} {
			if before[name] == nil || after[name] != before[name] {
				t.Fatalf("pipeline %s was replaced by a subscription at relay 1 (or never composed)", name)
			}
		}
		if got := replaced(before, after); !slices.Equal(got, []string{"c/c.r1.tee/pump"}) {
			t.Fatalf("the subscription replaced %v; want only relay 1's segment", got)
		}
		if err := tree.Wait(); err != nil {
			t.Fatalf("wait: %v", err)
		}
		if err := grp.Wait(); err != nil {
			t.Fatalf("group wait: %v", err)
		}
		if late.Count() == 0 {
			t.Fatal("the late leaf received nothing")
		}
	})
}

// TestNotMigratableScope pins ErrNotMigratable both ways: a coroutine
// placement outside the moved segment no longer refuses the move — the
// all-direct tail of src >> frag(consumer-style) >> pump >> probe | cut |
// pump2 >> sink moves, and the sink trace is byte-identical to an unmoved
// run's — while moving the head, which holds the coroutine, still refuses,
// and the flow runs on to a complete trace.
func TestNotMigratableScope(t *testing.T) {
	const items = 1500
	run := func(move map[string]int) (string, error) {
		g := graph.New("coro")
		sink := pipes.NewCollectSink("sink")
		g.Add(core.Comp(pipes.NewCounterSource("src", items)), graph.Place(0))
		g.Add(core.Comp(pipes.NewFragConsumer("frag", nil)), graph.Place(0))
		g.Add(core.Pmp(pipes.NewClockedPump("pump", 4000)), graph.Place(0))
		g.Add(core.Comp(pipes.NewCountingProbe("probe")), graph.Place(0))
		g.Add(core.Pmp(pipes.NewFreePump("pump2")), graph.Place(1))
		g.Add(core.Comp(sink), graph.Place(1))
		g.Pipe("src", "frag", "pump", "probe").Cut("probe", "pump2").Pipe("pump2", "sink")
		grp := shard.NewGroup(shard.WithShardCount(3), shard.WithRealClock())
		d, err := g.Deploy(graph.OnGroup(grp))
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		grp.Start()
		d.Start()
		var merr error
		if move != nil {
			editWait(d, sink, items/8)
			merr = d.Rebalance(move)
			if merr == nil && d.SegmentPlacements()["pump2>>sink"] != 2 {
				t.Fatalf("placements after the move: %v", d.SegmentPlacements())
			}
		}
		if err := d.Wait(); err != nil {
			t.Fatalf("wait: %v", err)
		}
		return txnTrace(sink), merr
	}
	ref, _ := run(nil)
	got, err := run(map[string]int{"pump2>>sink": 2})
	if err != nil {
		t.Fatalf("moving the all-direct tail: %v", err)
	}
	if got != ref {
		t.Fatalf("the moved run's trace differs from the unmoved run's\n%s", divergence(got, ref))
	}
	got, err = run(map[string]int{"src>>probe": 2})
	if !errors.Is(err, graph.ErrNotMigratable) {
		t.Fatalf("moving the coroutine-threaded head = %v, want ErrNotMigratable", err)
	}
	if got != ref {
		t.Fatalf("the refused run's trace is not complete\n%s", divergence(got, ref))
	}
}
