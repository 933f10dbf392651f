package graph_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/pipes"
	"infopipes/internal/qos"
	"infopipes/internal/shard"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// verbTarget is one live deployment of the verb table's chain, with what
// its target needs to finish.
type verbTarget struct {
	name  string
	d     *graph.Deployment
	tc    *testCatalog
	third *clusterNode // a node the AddNode row joins (nodes only)
	end   func()
}

// startVerbTargets deploys the cluster tests' chain — src>>pump | cut |
// mid>>mp | cut | out>>sink, mid on slot 1 — on a real-clock scheduler, a
// real-clock 2-shard group and two in-process nodes with cluster lanes,
// each under its own tenant and slow enough to outlive every row.
func startVerbTargets(t *testing.T) []*verbTarget {
	t.Helper()
	const items, rate = 1 << 30, "400"
	var out []*verbTarget
	local := func(name string, deploy func(*graph.Graph) (*graph.Deployment, func(), error)) {
		tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
		g := chainGraph("vt"+name, items, rate, "probe", 1).UseCatalog(tc.catalog())
		d, end, err := deploy(g)
		if err != nil {
			t.Fatalf("%s: deploy: %v", name, err)
		}
		out = append(out, &verbTarget{name: name, d: d, tc: tc, end: end})
	}
	local("scheduler", func(g *graph.Graph) (*graph.Deployment, func(), error) {
		s := uthread.New(uthread.WithClock(vclock.Real{}))
		d, err := g.Deploy(graph.OnScheduler(s).WithTenant(qos.NewTenant("vts")))
		if err != nil {
			return nil, nil, err
		}
		s.RunBackground()
		return d, s.Stop, nil
	})
	local("group", func(g *graph.Graph) (*graph.Deployment, func(), error) {
		grp := shard.NewGroup(shard.WithShardCount(2), shard.WithRealClock())
		d, err := g.Deploy(graph.OnGroup(grp).WithTenant(qos.NewTenant("vtg")))
		if err != nil {
			return nil, nil, err
		}
		grp.Start()
		return d, func() { _ = grp.Wait() }, nil
	})
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	a, b := startNode(t, "alpha", tc.catalog()), startNode(t, "beta", tc.catalog())
	d, err := chainGraph("vtnodes", items, rate, "probe", 1).Deploy(
		graph.OnNodes(a.client, b.client).WithClusterLanes().WithTenant(qos.NewTenant("vtn")))
	if err != nil {
		t.Fatalf("nodes: deploy: %v", err)
	}
	out = append(out, &verbTarget{name: "nodes", d: d, tc: tc,
		third: startNode(t, "gamma", tc.catalog()), end: func() {}})

	for _, vt := range out {
		vt.d.Start()
	}
	for _, vt := range out {
		for deadline := time.Now().Add(10 * time.Second); ; {
			if s := vt.tc.sink("sink"); s != nil && s.Count() >= 5 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: the stream never reached the sink", vt.name)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return out
}

// TestVerbTargetTable pins, for every exported verb that changes a running
// deployment or asks about one, what each target answers: the sentinel the
// docs promise, or success.  The rows run in order on one live deployment
// per target; the stream never stops before the last row.
func TestVerbTargetTable(t *testing.T) {
	const nodes = 2    // the targets' order: scheduler, group, nodes
	type want [3]error // by target: scheduler, group, nodes
	errFailed := errors.New("verb table: latched by Fail")
	targets := startVerbTargets(t)

	rows := []struct {
		verb string
		do   func(vt *verbTarget) error
		want want
	}{
		{"SegmentPlacements", func(vt *verbTarget) error {
			if got := len(vt.d.SegmentPlacements()); got != 3 {
				return fmt.Errorf("%d placements, want 3", got)
			}
			return nil
		}, want{}},
		{"Stats", func(vt *verbTarget) error {
			if got := len(vt.d.Stats().Segments); got < 3 {
				return fmt.Errorf("%d stats rows, want at least 3", got)
			}
			return nil
		}, want{}},
		{"Replaceable", func(vt *verbTarget) error { return vt.d.Replaceable("mid>>mp") },
			want{graph.ErrNotRebalancable, nil, nil}},
		{"Rebalance", func(vt *verbTarget) error { return vt.d.Rebalance(map[string]int{"mid>>mp": 0}) },
			want{graph.ErrNotRebalancable, nil, nil}},
		{"FailOver", func(vt *verbTarget) error {
			return vt.d.FailOver(0, map[string]int{"src>>pump": 1, "mid>>mp": 1, "out>>sink": 1})
		}, want{graph.ErrNotRebalancable, graph.ErrNotRebalancable, graph.ErrNotReplaceable}},
		{"Balance", func(vt *verbTarget) error {
			moved, err := vt.d.Balance(graph.NewBalancer(graph.BalancePolicy{MinItems: 1 << 40}))
			if err == nil && moved {
				return errors.New("moved below MinItems")
			}
			return err
		}, want{}},
		{"Edit RebindTenant", func(vt *verbTarget) error { return vt.d.Edit(graph.RebindTenant{Weight: 2}) }, want{}},
		{"Edit InsertStage", func(vt *verbTarget) error {
			return vt.d.Edit(graph.InsertStage{From: "mid", To: "mp", Stage: core.Comp(pipes.NewCountingProbe("ins"))})
		}, want{nil, nil, graph.ErrNotEditable}},
		{"Edit ScaleStage", func(vt *verbTarget) error {
			return vt.d.Edit(graph.ScaleStage{Node: "ins", Replicas: 2, Build: func(i int) (core.Stage, error) {
				return core.Comp(pipes.NewCountingProbe(fmt.Sprintf("ins#%d", i))), nil
			}})
		}, want{nil, nil, graph.ErrNotEditable}},
		{"SetReplicas", func(vt *verbTarget) error {
			active, err := vt.d.SetReplicas("ins", 1)
			if err == nil && active != 1 {
				return fmt.Errorf("active = %d, want 1", active)
			}
			return err
		}, want{nil, nil, graph.ErrNotEditable}},
		{"Replicas", func(vt *verbTarget) error {
			active, declared, err := vt.d.Replicas("ins")
			if err == nil && (active != 1 || declared != 2) {
				return fmt.Errorf("replicas = %d/%d, want 1/2", active, declared)
			}
			return err
		}, want{nil, nil, graph.ErrNotEditable}},
		{"AddNode", func(vt *verbTarget) error {
			c := targets[nodes].third.client
			idx, err := vt.d.AddNode(c)
			if err == nil && idx != 2 {
				return fmt.Errorf("joined as node %d, want 2", idx)
			}
			return err
		}, want{graph.ErrNotElastic, graph.ErrNotElastic, nil}},
		{"NodeCount", func(vt *verbTarget) error {
			if n, w := vt.d.NodeCount(), map[string]int{"nodes": 3}[vt.name]; n != w {
				return fmt.Errorf("NodeCount = %d, want %d", n, w)
			}
			return nil
		}, want{}},
		{"NodeHosts", func(vt *verbTarget) error {
			if n := vt.d.NodeHosts(2); n != 0 {
				return fmt.Errorf("NodeHosts(2) = %d, want 0", n)
			}
			return nil
		}, want{}},
		{"MarkNodeGone", func(vt *verbTarget) error { return vt.d.MarkNodeGone(2) },
			want{graph.ErrNotElastic, graph.ErrNotElastic, nil}},
		{"Finished", func(vt *verbTarget) error {
			if vt.d.Finished() {
				return errors.New("finished mid-stream")
			}
			return nil
		}, want{}},
		{"Segment", func(vt *verbTarget) error {
			if _, ok := vt.d.Segment("src>>pump"); ok != (vt.name != "nodes") {
				return fmt.Errorf("Segment found = %v", ok)
			}
			return nil
		}, want{}},
		{"Links and Pipelines", func(vt *verbTarget) error {
			if local := vt.name != "nodes"; (len(vt.d.Links()) > 0) != local || (len(vt.d.Pipelines()) > 0) != local {
				return fmt.Errorf("%d links, %d pipelines", len(vt.d.Links()), len(vt.d.Pipelines()))
			}
			return nil
		}, want{}},
		{"External", func(vt *verbTarget) error {
			ran := false
			vt.d.External(func() { ran = true })
			if !ran {
				return errors.New("fn did not run")
			}
			return nil
		}, want{}},
		{"Err", func(vt *verbTarget) error { return vt.d.Err() }, want{}},
		{"Supervise and Fail", func(vt *verbTarget) error {
			vt.d.Supervise()
			vt.d.Fail(errFailed)
			return vt.d.Err()
		}, want{nil, nil, errFailed}},
	}
	for _, row := range rows {
		for i, vt := range targets {
			err := row.do(vt)
			if w := row.want[i]; w == nil && err != nil || w != nil && !errors.Is(err, w) {
				t.Errorf("%s on %s: err = %v, want %v", row.verb, vt.name, err, w)
			}
		}
	}

	for i, vt := range targets {
		if i != nodes {
			vt.d.Stop()
		}
		err := vt.d.Wait()
		if i == nodes && !errors.Is(err, errFailed) || i != nodes && err != nil {
			t.Errorf("%s: wait = %v", vt.name, err)
		}
		vt.end()
	}
}
