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

	"infopipes"
)

const items = 40

// declare builds the graph.  With gate non-nil, the trunk stalls (in real
// time — the whole virtual-clock group freezes with it) when item
// items/4 passes, until the gate's release channel closes: a deterministic
// mid-stream rendezvous for the rebalance.
type gateCtl struct {
	reached chan struct{}
	release chan struct{}
}

func declare(gate *gateCtl) (*infopipes.Graph, *infopipes.CollectSink) {
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
	g.Add(infopipes.Pmp(infopipes.NewClockedPump("pump", 200)), infopipes.GraphPlace(0))
	if gate != nil {
		g.Add(infopipes.Comp(infopipes.NewFuncFilter("gate",
			func(_ *infopipes.Ctx, it *infopipes.Item) (*infopipes.Item, error) {
				if it.Seq == items/4 {
					close(gate.reached)
					<-gate.release
				}
				return it, nil
			})), infopipes.GraphPlace(0))
	}
	g.Split(tee)
	g.Add(tag("fa", "a"), infopipes.GraphPlace(0))
	g.Add(infopipes.Pmp(infopipes.NewFreePump("pa")), infopipes.GraphPlace(0))
	g.Add(tag("fb", "b"), infopipes.GraphPlace(0))
	g.Add(infopipes.Pmp(infopipes.NewFreePump("pb")), infopipes.GraphPlace(0))
	g.Merge(mrg)
	g.Add(infopipes.Pmp(infopipes.NewFreePump("po")), infopipes.GraphPlace(0))
	g.Add(infopipes.Comp(sink), infopipes.GraphPlace(0))
	if gate != nil {
		g.Pipe("src", "pump", "gate", "tee")
	} else {
		g.Pipe("src", "pump", "tee")
	}
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
	g, sink := declare(nil)
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
	gate := &gateCtl{reached: make(chan struct{}), release: make(chan struct{})}
	g, sink := declare(gate)
	grp := infopipes.NewSchedulerGroup(infopipes.ShardCount(4))
	d, err := g.Deploy(infopipes.OnGroup(grp))
	if err != nil {
		return "", err
	}
	grp.Start()
	d.Start()

	// The gate freezes the whole group when item items/4 passes the trunk:
	// a deterministic mid-stream point to read the telemetry an operator
	// would act on...
	<-gate.reached
	st := d.Stats()
	fmt.Printf("mid-stream telemetry (%d/%d items at the sink):\n", sink.Count(), items)
	for i, sh := range st.Shards {
		fmt.Printf("  shard %d: %d live pipelines, %d items moved\n", i, sh.Pipelines, sh.Items)
	}
	// ...then resume and scatter the hot branches, mid-stream.  On a
	// loaded host the remaining items can drain before the rebalance
	// lands; that run simply demonstrates nothing moved.
	close(gate.release)
	err = d.Rebalance(map[string]int{
		"fa>>pa":   1,
		"fb>>pb":   2,
		"po>>sink": 3,
	})
	switch {
	case err == nil:
		fmt.Printf("rebalanced at item %d: placements now %v\n", sink.Count(), d.SegmentPlacements())
	case errors.Is(err, infopipes.ErrDeploymentDone):
		fmt.Println("stream drained before the rebalance landed (loaded host); nothing migrated")
	default:
		return "", err
	}

	if err := d.Wait(); err != nil {
		return "", err
	}
	if err := grp.Wait(); err != nil {
		return "", err
	}
	st = d.Stats()
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
