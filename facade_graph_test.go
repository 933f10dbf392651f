package infopipes_test

import (
	"testing"

	"infopipes"
)

// TestFacadeGraph drives the Graph API end to end through the public
// facade: a live-component diamond on one scheduler, and the same topology
// as text on a 2-shard group.
func TestFacadeGraph(t *testing.T) {
	const items = 20
	sink := infopipes.NewCollectSink("sink")
	tee := infopipes.NewCopyTee("tee", 2, 8, infopipes.Block, infopipes.Block)
	mrg := infopipes.NewMergeTee("mrg", 2, 8, infopipes.Block, infopipes.Block)

	g := infopipes.NewGraph("d")
	g.Add(infopipes.Comp(infopipes.NewCounterSource("src", items)))
	g.Add(infopipes.Pmp(infopipes.NewClockedPump("pump", 100)))
	g.Split(tee)
	g.Add(infopipes.Pmp(infopipes.NewFreePump("pa")))
	g.Add(infopipes.Pmp(infopipes.NewFreePump("pb")))
	g.Merge(mrg)
	g.Add(infopipes.Pmp(infopipes.NewFreePump("po")))
	g.Add(infopipes.Comp(sink))
	g.Pipe("src", "pump", "tee")
	g.Pipe("tee:0", "pa", "mrg:0")
	g.Pipe("tee:1", "pb", "mrg:1")
	g.Pipe("mrg", "po", "sink")

	sched := infopipes.NewScheduler()
	d, err := g.Deploy(infopipes.OnScheduler(sched))
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
	// A copy split multicasts: both copies of every item reach the sink.
	if sink.Count() != 2*items {
		t.Fatalf("sink received %d items, want %d", sink.Count(), 2*items)
	}

	// The same diamond as text, deployed on a group.
	tg, err := infopipes.BuildTextGraph(infopipes.StandardRegistry(), "td",
		"counter(20) >> pump(rate=100) >> split{ pump:pa | pump:pb@1 } >> merge >> pump:po >> null")
	if err != nil {
		t.Fatalf("text graph: %v", err)
	}
	group := infopipes.NewSchedulerGroup(infopipes.ShardCount(2))
	td, err := tg.Deploy(infopipes.OnGroup(group))
	if err != nil {
		t.Fatalf("deploy text graph: %v", err)
	}
	if at := td.SegmentPlacements()["pb"]; at != 1 || len(td.Links()) != 0 {
		t.Fatalf("branch pb on shard %d with %d links; want shard 1 and no link", at, len(td.Links()))
	}
	td.Start()
	if err := group.Run(); err != nil {
		t.Fatalf("group run: %v", err)
	}
	if err := td.Wait(); err != nil {
		t.Fatalf("group wait: %v", err)
	}
}
