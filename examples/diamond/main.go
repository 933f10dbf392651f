// Diamond: the Graph composition API — declare the flow once, bind the
// placement as policy.
//
// One branching pipeline (source -> route split -> two filter chains ->
// merge -> sink) is written as a single spec-backed graph and deployed,
// unchanged, onto two different targets: a single scheduler and a 2-shard
// SchedulerGroup with one branch hinted to the second shard.  The hint adds
// no pipeline and no link: the branch reads the split's port buffer and
// fills the merge's from shard 1, and a buffer wakes each waiting thread on
// its own shard.  Both targets share the deterministic virtual-clock
// default, so the two deployments produce byte-identical item traces —
// placement is invisible to the flow.
package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"infopipes"
)

const items = 24

// registry is the standard catalog plus a collect factory that hands the
// sink back out (spec-backed graphs build their own instances).
func registry(sinks map[string]*infopipes.CollectSink) infopipes.PipelineRegistry {
	reg := infopipes.StandardRegistry()
	reg.Register("collect", func(e infopipes.PipelineStageExpr) (infopipes.Stage, error) {
		s := infopipes.NewCollectSink(e.Name)
		sinks[e.Name] = s
		return infopipes.Comp(s), nil
	})
	return reg
}

// expr is the flow, written once in the microlanguage.  The "@1" hints bind
// branch B to shard 1 under a group target; a single scheduler ignores them.
const expr = "counter(" + itemsStr + ") >> pump(rate=100) >> " +
	"route(sel=mod){ probe:fa >> pump:pa | probe:fb@1 >> pump:pb@1 } >> merge >> " +
	"pump:po >> collect"

const itemsStr = "24"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "diamond:", err)
		os.Exit(1)
	}
}

func trace(sink *infopipes.CollectSink) string {
	var b strings.Builder
	for _, it := range sink.Items() {
		fmt.Fprintf(&b, "%d ", it.Payload)
	}
	return strings.TrimSpace(b.String())
}

func deployOnScheduler() (string, error) {
	sinks := map[string]*infopipes.CollectSink{}
	g, err := infopipes.BuildTextGraph(registry(sinks), "diamond", expr)
	if err != nil {
		return "", err
	}
	sched := infopipes.NewScheduler()
	d, err := g.Deploy(infopipes.OnScheduler(sched))
	if err != nil {
		return "", err
	}
	d.Start()
	if err := sched.Run(); err != nil {
		return "", err
	}
	if err := d.Wait(); err != nil {
		return "", err
	}
	fmt.Printf("  %d pipelines\n", len(d.Pipelines()))
	return trace(sinks["collect"]), nil
}

func deployOnGroup() (string, error) {
	sinks := map[string]*infopipes.CollectSink{}
	g, err := infopipes.BuildTextGraph(registry(sinks), "diamond", expr)
	if err != nil {
		return "", err
	}
	group := infopipes.NewSchedulerGroup(infopipes.ShardCount(2))
	d, err := g.Deploy(infopipes.OnGroup(group))
	if err != nil {
		return "", err
	}
	d.Start()
	if err := group.Run(); err != nil {
		return "", err
	}
	if err := d.Wait(); err != nil {
		return "", err
	}
	fmt.Printf("  %d pipelines\n", len(d.Pipelines()))
	return trace(sinks["collect"]), nil
}

func run() error {
	if itemsStr != strconv.Itoa(items) {
		return fmt.Errorf("itemsStr drifted")
	}
	fmt.Println("flow (declared once):")
	fmt.Println(" ", expr)

	fmt.Println("\ndeploy on one scheduler:")
	t1, err := deployOnScheduler()
	if err != nil {
		return err
	}
	fmt.Println("  trace:", t1)

	fmt.Println("\ndeploy on a 2-shard group (branch B on shard 1):")
	t2, err := deployOnGroup()
	if err != nil {
		return err
	}
	fmt.Println("  trace:", t2)

	if t1 == t2 {
		fmt.Println("\ntraces are byte-identical: placement is policy, not semantics")
	} else {
		return fmt.Errorf("traces differ!\n  %s\nvs\n  %s", t1, t2)
	}
	return nil
}
