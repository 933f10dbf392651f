package graph_test

import (
	"fmt"
	"strings"
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
)

// This file tests ScaleStage — live replica scale-out.  The determinism
// claim under test: scaling a hot stage 1→N mid-stream and folding it back
// is invisible downstream of the merge — the sink trace is byte-identical
// to a run that never scaled, across shard counts and replica placements.

// scaleTrace flattens a sink's items into a comparable trace string.
func scaleTrace(items []*item.Item) string {
	var b strings.Builder
	for _, it := range items {
		fmt.Fprintf(&b, "%d:%v:%d|", it.Seq, it.Payload, it.Origin)
	}
	return b.String()
}

// buildScaleChain declares src >> pump >> slow >> work >> sink, where work
// doubles the payload.  Returns the graph and sink.
func buildScaleChain(items int64) (*graph.Graph, *pipes.CollectSink) {
	g := graph.New("scalechain")
	g.Add(core.Comp(pipes.NewCounterSource("src", items)))
	g.Add(core.Pmp(pipes.NewClockedPump("pump", 2000)))
	g.Add(editThrottle("slow"))
	g.Add(core.Comp(pipes.NewFuncFilter("work", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		it.Payload = it.Seq * 2
		return it, nil
	})))
	sink := pipes.NewCollectSink("sink")
	g.Add(core.Comp(sink))
	g.Pipe("src", "pump", "slow", "work", "sink")
	return g, sink
}

// workReplica builds replica i of the work stage (same transform, fresh
// name) for ScaleStage.Build.
func workReplica(i int) (core.Stage, error) {
	return core.Comp(pipes.NewFuncFilter(fmt.Sprintf("work#%d", i), func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		it.Payload = it.Seq * 2
		return it, nil
	})), nil
}

// scaleReference runs buildScaleChain(items) unscaled on one shard and
// returns its sink trace.
func scaleReference(t *testing.T, items int64) string {
	t.Helper()
	g, sink := buildScaleChain(items)
	grp := shard.NewGroup(shard.WithShardCount(1))
	d, err := g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("reference deploy: %v", err)
	}
	grp.Start()
	d.Start()
	if err := d.Wait(); err != nil {
		t.Fatalf("reference wait: %v", err)
	}
	if err := grp.Wait(); err != nil {
		t.Fatalf("reference group wait: %v", err)
	}
	return scaleTrace(sink.Items())
}

// TestScaleStageMidStreamByteIdentical scales the work stage 1→4 while the
// stream runs, folds back to 1 active replica mid-stream, and compares the
// sink trace byte-for-byte against an unscaled reference run — on 1, 2 and
// 4 scheduler shards, with replicas spread across shards where they exist.
func TestScaleStageMidStreamByteIdentical(t *testing.T) {
	const items = 1200
	reference := scaleReference(t, items)

	for _, shards := range []int{1, 2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			scaled := false
			for attempt := 0; attempt < 6 && !scaled; attempt++ {
				g, sink := buildScaleChain(items)
				grp := shard.NewGroup(shard.WithShardCount(shards))
				d, err := g.Deploy(graph.OnGroup(grp))
				if err != nil {
					t.Fatalf("deploy: %v", err)
				}
				grp.Start()
				d.Start()
				editWait(d, sink, items/8)

				// Spread replicas round-robin over the shards (all on shard
				// 0 when there is only one).
				places := make([]int, 4)
				for i := range places {
					places[i] = i % shards
				}
				err = d.Edit(graph.ScaleStage{Node: "work", Replicas: 4, Places: places, Build: workReplica})
				if err == nil {
					scaled = true
					if a, n, rerr := d.Replicas("work"); rerr != nil || a != 4 || n != 4 {
						t.Fatalf("Replicas = %d/%d, %v; want 4/4", a, n, rerr)
					}
					// Fold back to one active replica mid-stream: no
					// quiesce, and no trace change either.
					editWait(d, sink, items/2)
					if got, serr := d.SetReplicas("work", 1); serr != nil || got != 1 {
						t.Fatalf("SetReplicas = %d, %v", got, serr)
					}
				} else if err != graph.ErrDeploymentDone {
					t.Fatalf("scale edit: %v", err)
				}
				if werr := d.Wait(); werr != nil {
					t.Fatalf("wait: %v", werr)
				}
				if gerr := grp.Wait(); gerr != nil {
					t.Fatalf("group wait: %v", gerr)
				}
				if got := scaleTrace(sink.Items()); got != reference {
					t.Fatalf("scaled trace diverged from reference (%d items vs %d)",
						sink.Count(), items)
				}
				if scaled {
					// Replica identity (stage, replica-index) is visible in
					// the stats: each replica branch is its own segment.
					names := ""
					for _, seg := range d.Stats().Segments {
						names += seg.Name + "\n"
					}
					for i := 1; i < 4; i++ {
						if !strings.Contains(names, fmt.Sprintf("work#%d", i)) {
							t.Fatalf("replica %d not visible in stats:\n%s", i, names)
						}
					}
				}
			}
			if !scaled {
				t.Fatal("scale edit never landed mid-stream in 6 runs")
			}
		})
	}
}

// TestScaleStageRefusesPortSurgery pins that a scaled stage's split takes
// no AttachBranch or DetachBranch: its seq merge cannot grow with it, so an
// attached port would carry trunk items away from the merged stream.  The
// edits fail naming SetReplicas, the replica count stays, and the sink trace
// is the unscaled one.
func TestScaleStageRefusesPortSurgery(t *testing.T) {
	const items = 1200
	reference := scaleReference(t, items)
	for attempt := 0; attempt < 6; attempt++ {
		g, sink := buildScaleChain(items)
		grp := shard.NewGroup(shard.WithShardCount(2))
		d, err := g.Deploy(graph.OnGroup(grp))
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		grp.Start()
		d.Start()
		editWait(d, sink, items/8)
		err = d.Edit(graph.ScaleStage{Node: "work", Replicas: 2, Build: workReplica})
		scaled := err == nil
		if scaled {
			side := pipes.NewCollectSink("side")
			err = d.Edit(graph.AttachBranch{Split: "work.split", Place: -1,
				Stages: []core.Stage{core.Pmp(pipes.NewFreePump("side/p")), core.Comp(side)}})
			if err == nil || !strings.Contains(err.Error(), "SetReplicas") {
				t.Fatalf("AttachBranch on a scaled stage's split: err = %v, want one naming SetReplicas", err)
			}
			err = d.Edit(graph.DetachBranch{Split: "work.split", Port: 1})
			if err == nil || !strings.Contains(err.Error(), "SetReplicas") {
				t.Fatalf("DetachBranch on a scaled stage's split: err = %v, want one naming SetReplicas", err)
			}
			if a, n, rerr := d.Replicas("work"); rerr != nil || a != 2 || n != 2 {
				t.Fatalf("Replicas = %d/%d, %v; want 2/2", a, n, rerr)
			}
		} else if err != graph.ErrDeploymentDone {
			t.Fatalf("scale edit: %v", err)
		}
		if werr := d.Wait(); werr != nil {
			t.Fatalf("wait: %v", werr)
		}
		if gerr := grp.Wait(); gerr != nil {
			t.Fatalf("group wait: %v", gerr)
		}
		if got := scaleTrace(sink.Items()); got != reference {
			t.Fatalf("sink trace diverged from the unscaled reference (%d items vs %d)", sink.Count(), items)
		}
		if scaled {
			return
		}
	}
	t.Fatal("scale edit never landed mid-stream in 6 runs")
}

// TestScaleStageValidationAndRollback exercises the Phase-1 refusals: each
// invalid op must leave the declaration untouched, and the stream completes
// as if nothing happened.
func TestScaleStageValidationAndRollback(t *testing.T) {
	const items = 400
	g, sink := buildScaleChain(items)
	grp := shard.NewGroup(shard.WithShardCount(2))
	d, err := g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	grp.Start()
	d.Start()

	cases := []struct {
		name string
		op   graph.EditOp
		want string
	}{
		{"too few replicas", graph.ScaleStage{Node: "work", Replicas: 1, Build: workReplica}, "at least 2"},
		{"places mismatch", graph.ScaleStage{Node: "work", Replicas: 3, Places: []int{0}, Build: workReplica}, "placement hints"},
		{"place out of range", graph.ScaleStage{Node: "work", Replicas: 2, Places: []int{0, 7}, Build: workReplica}, "shard 7"},
		{"not a stage", graph.ScaleStage{Node: "nosuch", Replicas: 2, Build: workReplica}, "not a plain stage"},
		{"source not interior", graph.ScaleStage{Node: "src", Replicas: 2, Build: workReplica}, "not interior"},
		{"pump not component", graph.ScaleStage{Node: "pump", Replicas: 2, Build: workReplica}, "only plain components"},
		{"live-declared needs Build", graph.ScaleStage{Node: "work", Replicas: 2}, "supply Build"},
	}
	for _, c := range cases {
		err := d.Edit(c.op)
		if err == graph.ErrDeploymentDone {
			t.Skip("stream drained before validation cases ran")
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	if _, err := d.SetReplicas("work", 2); err == nil {
		t.Fatal("SetReplicas on an unscaled stage did not fail")
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := grp.Wait(); err != nil {
		t.Fatalf("group wait: %v", err)
	}
	if sink.Count() != items {
		t.Fatalf("sink holds %d items after rejected edits, want %d", sink.Count(), items)
	}
}

// TestScaleStageTwiceRefused pins the single-scale rule: a stage already
// behind an elastic split does not scale again (the knob is SetReplicas).
func TestScaleStageTwiceRefused(t *testing.T) {
	const items = 1500
	for attempt := 0; attempt < 6; attempt++ {
		g, sink := buildScaleChain(items)
		grp := shard.NewGroup(shard.WithShardCount(1))
		d, err := g.Deploy(graph.OnGroup(grp))
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		grp.Start()
		d.Start()
		editWait(d, sink, items/8)
		if err := d.Edit(graph.ScaleStage{Node: "work", Replicas: 2, Build: workReplica}); err != nil {
			if err == graph.ErrDeploymentDone {
				continue // drained before the edit landed; retry
			}
			t.Fatalf("first scale: %v", err)
		}
		err = d.Edit(graph.ScaleStage{Node: "work", Replicas: 4, Build: workReplica})
		if err == nil || err == graph.ErrDeploymentDone {
			if err == nil {
				t.Fatal("second scale of the same stage was accepted")
			}
			continue
		}
		if !strings.Contains(err.Error(), "scaled twice") && !strings.Contains(err.Error(), "only plain components") && !strings.Contains(err.Error(), "not interior") {
			t.Fatalf("second scale: unexpected error %v", err)
		}
		if werr := d.Wait(); werr != nil {
			t.Fatalf("wait: %v", werr)
		}
		if sink.Count() != items {
			t.Fatalf("sink holds %d items, want %d", sink.Count(), items)
		}
		return
	}
	t.Fatal("edits never landed mid-stream in 6 runs")
}
