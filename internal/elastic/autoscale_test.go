package elastic_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infopipes/internal/control"
	"infopipes/internal/core"
	"infopipes/internal/elastic"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/leakcheck"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
	"infopipes/internal/vclock"
)

// hotChain declares src >> pump >> work >> sink where work doubles the
// payload — the same shape the ScaleStage tests use, so the autoscaler's
// auto-inserted split rides proven machinery.
func hotChain(items int64) (*graph.Graph, *pipes.CollectSink) {
	g := graph.New("hotchain")
	g.Add(core.Comp(pipes.NewCounterSource("src", items)))
	g.Add(core.Pmp(pipes.NewClockedPump("pump", 2000)))
	g.Add(core.Comp(pipes.NewFuncFilter("work", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		it.Payload = it.Seq * 2
		return it, nil
	})))
	sink := pipes.NewCollectSink("sink")
	g.Add(core.Comp(sink))
	g.Pipe("src", "pump", "work", "sink")
	return g, sink
}

func hotReplica(i int) (core.Stage, error) {
	return core.Comp(pipes.NewFuncFilter(fmt.Sprintf("work#%d", i), func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		it.Payload = it.Seq * 2
		return it, nil
	})), nil
}

// payloadTrace flattens a sink's items for byte-identity checks.
func payloadTrace(items []*item.Item) string {
	var b strings.Builder
	for _, it := range items {
		fmt.Fprintf(&b, "%d:%v|", it.Seq, it.Payload)
	}
	return b.String()
}

// TestAutoscalerScaleUpFoldBack drives the observe/decide/act loop by hand:
// a hot tick inserts the split and widens the stage to its ceiling, a cold
// tick folds it back to the floor — and the sink trace stays byte-identical
// to a run that never scaled.
func TestAutoscalerScaleUpFoldBack(t *testing.T) {
	leakcheck.Check(t)
	const items = 2000

	reference := func() string {
		g, sink := hotChain(items)
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
		return payloadTrace(sink.Items())
	}()

	g, sink := hotChain(items)
	grp := shard.NewGroup(shard.WithShardCount(1))
	d, err := g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	var scaleLog []string
	a := elastic.NewAutoscaler(d, &sync.Mutex{})
	a.OnScale = func(stage string, active int) {
		scaleLog = append(scaleLog, fmt.Sprintf("%s=%d", stage, active))
	}
	// TargetPerTick 1: any progress at all makes the stage hot, so the
	// first post-prime tick scales to Max.
	if err := a.Add(elastic.Policy{Stage: "work", Max: 4, TargetPerTick: 1, Build: hotReplica}); err != nil {
		t.Fatalf("add policy: %v", err)
	}
	if out, err := a.Tick(); err != nil || out != nil {
		t.Fatalf("priming tick: out=%v err=%v", out, err)
	}
	// The controller acts at the virtual instant the 2 kHz source is an
	// eighth through: time stands still for the whole appointment, so the
	// hot tick sees progress and the ticks after it see none.
	res := make(chan error, 1)
	grp.At(vclock.Epoch.Add(items/8*time.Second/2000), func() {
		res <- func() error {
			out, err := a.Tick()
			if err != nil {
				return fmt.Errorf("hot tick: %v", err)
			}
			active, declared, err := d.Replicas("work")
			if err != nil || out["work"] != 4 || active != 4 || declared != 4 {
				return fmt.Errorf("hot tick: out=%v replicas=%d/%d err=%v, want 4/4", out, active, declared, err)
			}
			// Two immediate ticks see zero delta: the stage is cold, fold
			// back to the floor.  The split stays — only the active width
			// shrinks.
			if _, err := a.Tick(); err != nil {
				return fmt.Errorf("cold tick: %v", err)
			}
			out, err = a.Tick()
			if err != nil {
				return fmt.Errorf("cold tick: %v", err)
			}
			if out["work"] != 1 {
				return fmt.Errorf("cold tick: out=%v, want work=1", out)
			}
			if active, declared, err := d.Replicas("work"); err != nil || active != 1 || declared != 4 {
				return fmt.Errorf("after fold: replicas=%d/%d err=%v, want 1/4", active, declared, err)
			}
			return nil
		}()
	})
	grp.External(func() {
		grp.Start()
		d.Start()
	})
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := grp.Wait(); err != nil {
		t.Fatalf("group wait: %v", err)
	}
	select {
	case err := <-res:
		if err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatal("the stream drained and the controller's appointment never ran")
	}
	if got := payloadTrace(sink.Items()); got != reference {
		t.Fatalf("scaled trace diverged from reference (%d items vs %d)", sink.Count(), items)
	}
	if len(scaleLog) == 0 || scaleLog[len(scaleLog)-1] != "work=1" {
		t.Fatalf("scale log = %v, want to end with work=1", scaleLog)
	}
}

// TestAutoscalerPolicyValidation pins the Add refusals.
func TestAutoscalerPolicyValidation(t *testing.T) {
	a := elastic.NewAutoscaler(nil, &sync.Mutex{})
	cases := []struct {
		p    elastic.Policy
		want string
	}{
		{elastic.Policy{Max: 4, TargetPerTick: 10}, "needs a stage"},
		{elastic.Policy{Stage: "w", Max: 1, TargetPerTick: 10}, "at least 2"},
		{elastic.Policy{Stage: "w", Max: 4}, "must be positive"},
	}
	for _, c := range cases {
		err := a.Add(c.p)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Add(%+v) = %v, want %q", c.p, err, c.want)
		}
	}
}

// TestAutoscalerFoldDownOnNodeDown pins the BindDirectory chain: a node
// going down fires the previously installed hook AND folds every scaled
// stage to its floor — asynchronously, under the shared gate.
func TestAutoscalerFoldDownOnNodeDown(t *testing.T) {
	leakcheck.Check(t)
	const items = 4000
	for attempt := 0; attempt < 6; attempt++ {
		g, sink := hotChain(items)
		grp := shard.NewGroup(shard.WithShardCount(1))
		d, err := g.Deploy(graph.OnGroup(grp))
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		a := elastic.NewAutoscaler(d, &sync.Mutex{})
		if err := a.Add(elastic.Policy{Stage: "work", Max: 3, TargetPerTick: 1, Build: hotReplica}); err != nil {
			t.Fatalf("add policy: %v", err)
		}
		var prevCalled atomic.Bool
		dir := &control.Directory{}
		dir.OnDown = func(string, error) { prevCalled.Store(true) }
		a.BindDirectory(dir)

		grp.Start()
		d.Start()
		if _, err := a.Tick(); err != nil {
			t.Fatalf("priming tick: %v", err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for sink.Count() < items/8 {
			if time.Now().After(deadline) {
				t.Fatal("stream never progressed")
			}
			time.Sleep(time.Millisecond)
		}
		if _, err := a.Tick(); err != nil {
			t.Fatalf("hot tick: %v", err)
		}
		if active, _, err := d.Replicas("work"); err != nil || active != 3 {
			if err := d.Wait(); err != nil {
				t.Fatalf("wait: %v", err)
			}
			if err := grp.Wait(); err != nil {
				t.Fatalf("group wait: %v", err)
			}
			continue // drained before scaling; retry
		}

		dir.OnDown("gone-node", fmt.Errorf("probe timeout"))
		if !prevCalled.Load() {
			t.Fatal("chained OnDown skipped the previously installed hook")
		}
		deadline = time.Now().Add(10 * time.Second)
		for {
			active, _, err := d.Replicas("work")
			if err == nil && active == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("fold-down never landed: active=%d err=%v", active, err)
			}
			time.Sleep(time.Millisecond)
		}
		if err := d.Wait(); err != nil {
			t.Fatalf("wait: %v", err)
		}
		if err := grp.Wait(); err != nil {
			t.Fatalf("group wait: %v", err)
		}
		if sink.Count() != items {
			t.Fatalf("sink holds %d items, want %d", sink.Count(), items)
		}
		return
	}
	t.Fatal("scale-up never landed mid-stream in 6 runs")
}
