package ipcl_test

import (
	"strings"
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/ipcl"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
	"infopipes/internal/uthread"
)

// TestBuildGraphLinear: the graph form of a plain linear expression behaves
// like ipcl.Compose.
func TestBuildGraphLinear(t *testing.T) {
	g, err := ipcl.BuildGraph(ipcl.StdRegistry(), "lin",
		"counter(20) >> probe >> pump(rate=100) >> collect")
	if err != nil {
		t.Fatal(err)
	}
	sched := uthread.New()
	d, err := g.Deploy(graph.OnScheduler(sched))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	p, ok := d.Segment("counter>>collect")
	if !ok {
		t.Fatalf("segment missing; have %v", d.Pipelines())
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
}

// TestBuildGraphSplitMerge compiles the satellite example — branch, merge,
// rejoin — and runs it on a 2-shard group with placement hints from the
// "@" syntax.
func TestBuildGraphSplitMerge(t *testing.T) {
	const expr = "counter(30) >> pump(rate=100) >> " +
		"route(sel=mod){ probe:a >> pump:pa | probe:b@1 >> pump:pb@1 } >> merge >> " +
		"pump:po >> collect"
	reg, sinks := registryWithSink()
	g, err := ipcl.BuildGraph(reg, "dia", expr)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Segments) != 4 {
		t.Fatalf("segments = %d, want 4", len(plan.Segments))
	}

	grp := shard.NewGroup(shard.WithShardCount(2))
	d, err := g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatal(err)
	}
	if at := d.SegmentPlacements()["b>>pb"]; at != 1 || len(d.Links()) != 0 {
		t.Fatalf("hinted branch b>>pb on shard %d with %d links; want shard 1 and no link", at, len(d.Links()))
	}
	d.Start()
	if err := grp.Run(); err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Segment("po>>collect"); !ok {
		t.Fatal("downstream segment missing")
	}
	sink := (*sinks)["collect"]
	if sink == nil {
		t.Fatal("collect sink never built")
	}
	if sink.Count() != 30 {
		t.Fatalf("sink received %d items, want 30", sink.Count())
	}
	// Routed halves: the mod selector alternates by sequence.
	for i, it := range sink.Items() {
		if it.Seq != int64(i+1) {
			t.Fatalf("item %d has seq %d — merge broke arrival order under the virtual clock", i, it.Seq)
		}
	}
}

// registryWithSink extends the standard registry with a collect factory
// that records the sinks it builds (spec-backed graphs construct their own
// instances, so tests need a side channel).
func registryWithSink() (ipcl.Registry, *map[string]*pipes.CollectSink) {
	sinks := map[string]*pipes.CollectSink{}
	reg := ipcl.StdRegistry()
	reg.Register("collect", func(e ipcl.StageExpr) (core.Stage, error) {
		s := pipes.NewCollectSink(e.Name)
		sinks[e.Name] = s
		return core.Comp(s), nil
	})
	return reg, &sinks
}

// TestBuildGraphErrors covers parse-level diagnostics.
func TestBuildGraphErrors(t *testing.T) {
	cases := map[string]string{
		"counter(5) >> split{ probe }":                    "branches",
		"counter(5) >> split{ probe | probe } >> collect": "followed by merge",
		"counter(5) >> probe{ a | b }":                    "cannot open a branch block",
		"split{ a | b } >> merge >> collect":              "needs an upstream",
		"counter(5) >> merge":                             "composition keyword",
		"counter(5) >> pump@x":                            "placement",
		"counter(5) >> split{ probe | probe":              "'|' or '}'",
	}
	for expr, want := range cases {
		_, err := ipcl.BuildGraph(ipcl.StdRegistry(), "e", expr)
		if err == nil {
			t.Errorf("%q: no error, want %q", expr, want)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%q: err = %v, want substring %q", expr, err, want)
		}
	}
}
