// Rebalance: operating a live deployment — watch it, then move it.
//
// A branching flow (clocked source -> route split -> two worker chains ->
// merge -> sink) deploys onto a 4-shard group with EVERYTHING crammed onto
// shard 0.  While the stream runs, the program reads Deployment.Stats (the
// per-segment/per-link/per-shard telemetry collected alloc-free on the hot
// path), then calls Deployment.Rebalance to scatter the worker branches
// across the group — mid-stream, with items in flight, zero items lost.
//
// Everything runs on the deterministic shared virtual clock, and the final
// trace is compared against a single-scheduler deployment of the same
// graph: byte-identical, so the mid-stream migration is invisible to the
// flow — thread and placement transparency extended to RUNTIME placement,
// which is the paper's policy/logic separation taken one step further.
package main

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"infopipes"
)

const (
	items = 40
	rate  = 200 // items per virtual second
)

func declare() (*infopipes.Graph, *infopipes.CollectSink) {
	sink := infopipes.NewCollectSink("sink")
	tee := infopipes.NewRouteTee("tee", 2, 8, infopipes.Block, infopipes.Block,
		func(it *infopipes.Item) int { return int((it.Seq - 1) % 2) })
	mrg := infopipes.NewMergeTee("mrg", 2, 8, infopipes.Block, infopipes.Block)
	tag := func(name, mark string) infopipes.Stage {
		return infopipes.Comp(infopipes.NewFuncFilter(name,
			func(_ *infopipes.Ctx, it *infopipes.Item) (*infopipes.Item, error) {
				return it.WithAttr("via", mark), nil
			}))
	}
	g := infopipes.NewGraph("rebalance")
	g.Add(infopipes.Comp(infopipes.NewCounterSource("src", items)), infopipes.GraphPlace(0))
	g.Add(infopipes.Pmp(infopipes.NewClockedPump("pump", rate)), infopipes.GraphPlace(0))
	g.Split(tee)
	g.Add(tag("fa", "a"), infopipes.GraphPlace(0))
	g.Add(infopipes.Pmp(infopipes.NewFreePump("pa")), infopipes.GraphPlace(0))
	g.Add(tag("fb", "b"), infopipes.GraphPlace(0))
	g.Add(infopipes.Pmp(infopipes.NewFreePump("pb")), infopipes.GraphPlace(0))
	g.Merge(mrg)
	g.Add(infopipes.Pmp(infopipes.NewFreePump("po")), infopipes.GraphPlace(0))
	g.Add(infopipes.Comp(sink), infopipes.GraphPlace(0))
	g.Pipe("src", "pump", "tee")
	g.Pipe("tee:0", "fa", "pa", "mrg:0")
	g.Pipe("tee:1", "fb", "pb", "mrg:1")
	g.Pipe("mrg", "po", "sink")
	return g, sink
}

func trace(sink *infopipes.CollectSink) string {
	var b strings.Builder
	for _, it := range sink.Items() {
		fmt.Fprintf(&b, "%d%v ", it.Seq, it.Attrs["via"])
	}
	return strings.TrimSpace(b.String())
}

func onScheduler() (string, error) {
	g, sink := declare()
	sched := infopipes.NewScheduler()
	d, err := g.Deploy(infopipes.OnScheduler(sched))
	if err != nil {
		return "", err
	}
	d.Start()
	if err := sched.Run(); err != nil {
		return "", err
	}
	return trace(sink), d.Wait()
}

func onGroupWithRebalance() (string, error) {
	g, sink := declare()
	grp := infopipes.NewSchedulerGroup(infopipes.ShardCount(4))
	d, err := g.Deploy(infopipes.OnGroup(grp))
	if err != nil {
		return "", err
	}
	// The move is an appointment at the virtual instant the source is a
	// quarter through: the whole group stands still while it runs, so it
	// reads the telemetry an operator would act on, and the rebalance lands
	// mid-stream, on every run and on any host.
	moved := make(chan error, 1)
	grp.At(infopipes.Epoch.Add(items/4*time.Second/rate), func() {
		st := d.Stats()
		fmt.Printf("mid-stream telemetry (%d/%d items at the sink):\n", sink.Count(), items)
		for i, sh := range st.Shards {
			fmt.Printf("  shard %d: %d live pipelines, %d items moved\n", i, sh.Pipelines, sh.Items)
		}
		// ...then scatter the hot branches.
		err := d.Rebalance(map[string]int{
			"fa>>pa":   1,
			"fb>>pb":   2,
			"po>>sink": 3,
		})
		if err == nil {
			fmt.Printf("rebalanced at item %d: placements now %v\n", sink.Count(), d.SegmentPlacements())
		}
		moved <- err
	})
	// Start the group and the flow under one hold: an idle group with no
	// deadline between the two would run the appointment at once.
	grp.External(func() {
		grp.Start()
		d.Start()
	})
	if err := d.Wait(); err != nil {
		return "", err
	}
	if err := grp.Wait(); err != nil {
		return "", err
	}
	select {
	case err := <-moved:
		if err != nil {
			return "", fmt.Errorf("mid-stream rebalance: %w", err)
		}
	default:
		return "", errors.New("the stream drained before the rebalance's appointment ran; nothing migrated")
	}
	st := d.Stats()
	// The moved branches read and fill the tees' buffers from their new
	// shards: no link was inserted, and each shard's items show the work.
	fmt.Printf("after drain: %d links, pump items per shard", len(st.Links))
	for i, sh := range st.Shards {
		fmt.Printf("  [%d: %d]", i, sh.Items)
	}
	fmt.Println()
	return trace(sink), nil
}

func main() {
	ref, err := onScheduler()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rebalance: scheduler run:", err)
		os.Exit(1)
	}
	got, err := onGroupWithRebalance()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rebalance: group run:", err)
		os.Exit(1)
	}
	fmt.Printf("scheduler trace: %s\n", ref)
	fmt.Printf("rebalanced trace: %s\n", got)
	if got == ref {
		fmt.Println("traces byte-identical: the mid-stream migration is invisible to the flow")
	} else {
		fmt.Println("TRACES DIVERGED")
		os.Exit(1)
	}
}
