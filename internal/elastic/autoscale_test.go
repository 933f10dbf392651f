package elastic_test

import (
	"fmt"
	"strings"
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

// hotCluster puts the deployment under a started control loop on a virtual
// clock that ticks only when told, with one policy for the "work" stage.
func hotCluster(t *testing.T, dir *control.Directory, d *graph.Deployment, max int) *elastic.Cluster {
	t.Helper()
	cl := elastic.NewCluster(dir, vclock.NewVirtual(), 0)
	// TargetPerTick 1: any progress at all makes the stage hot, so the
	// first post-prime tick scales to Max.
	if err := cl.Autoscale(d, elastic.Policy{Stage: "work", Max: max, TargetPerTick: 1, Build: hotReplica}); err != nil {
		t.Fatalf("autoscale policy: %v", err)
	}
	cl.Start()
	t.Cleanup(cl.Stop)
	return cl
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
	cl := hotCluster(t, control.NewDirectory(), d, 4)
	if evs, err := cl.Tick(); err != nil || len(evs) != 0 {
		t.Fatalf("priming tick: log %+v err=%v", evs, err)
	}
	// The controller acts at the virtual instant the 2 kHz source is an
	// eighth through: time stands still for the whole appointment, so the
	// hot tick sees progress and the ticks after it see none.
	res := make(chan error, 1)
	grp.At(vclock.Epoch.Add(items/8*time.Second/2000), func() {
		res <- func() error {
			evs, err := cl.Tick()
			if err != nil {
				return fmt.Errorf("hot tick: %v", err)
			}
			active, declared, err := d.Replicas("work")
			if err != nil || scaleLog(evs) != "work=4" || active != 4 || declared != 4 {
				return fmt.Errorf("hot tick: log %q replicas=%d/%d err=%v, want work=4 and 4/4", scaleLog(evs), active, declared, err)
			}
			// The next tick sees zero delta: the stage is cold, fold back
			// to the floor.  The split stays — only the active width
			// shrinks.  The one after has nothing left to change.
			for i, want := range []string{"work=1", ""} {
				evs, err := cl.Tick()
				if err != nil || scaleLog(evs) != want {
					return fmt.Errorf("cold tick %d: log %q err=%v, want %q", i, scaleLog(evs), err, want)
				}
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
}

// scaleLog renders the SCALE entries of a tick's log as "stage=n ...".
func scaleLog(evs []elastic.Event) string {
	var out []string
	for _, ev := range evs {
		if ev.Kind == elastic.Scale {
			out = append(out, ev.Detail[strings.LastIndexByte(ev.Detail, ' ')+1:])
		}
	}
	return strings.Join(out, " ")
}

// TestAutoscalerPolicyValidation pins the Autoscale refusals.
func TestAutoscalerPolicyValidation(t *testing.T) {
	cl := elastic.NewCluster(control.NewDirectory(), vclock.NewVirtual(), 0)
	cases := []struct {
		p    elastic.Policy
		want string
	}{
		{elastic.Policy{Max: 4, TargetPerTick: 10}, "needs a stage"},
		{elastic.Policy{Stage: "w", Max: 1, TargetPerTick: 10}, "at least 2"},
		{elastic.Policy{Stage: "w", Max: 4}, "must be positive"},
	}
	for _, c := range cases {
		err := cl.Autoscale(nil, c.p)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Autoscale(%+v) = %v, want %q", c.p, err, c.want)
		}
	}
}

// TestAutoscalerFoldDownOnNodeDown: the tick whose heartbeat sees a node
// die folds every scaled stage to its floor in the same loop step, and the
// autoscale step after it only re-primes.  Both ticks run at one virtual
// instant of the group, a sixteenth into the stream.
func TestAutoscalerFoldDownOnNodeDown(t *testing.T) {
	leakcheck.Check(t)
	const items = 4000
	ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}
	spare := startClusterNode(t, "spare", ss.catalog())
	dir := control.NewDirectory()
	dir.MaxMisses = 1
	dir.ProbeRetries = 0
	t.Cleanup(dir.Close)
	registerAll(t, dir, spare)

	g, sink := hotChain(items)
	grp := shard.NewGroup(shard.WithShardCount(1))
	d, err := g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	cl := hotCluster(t, dir, d, 3)
	if _, err := cl.Tick(); err != nil {
		t.Fatalf("priming tick: %v", err)
	}
	res := make(chan error, 1)
	grp.At(vclock.Epoch.Add(items/16*time.Second/2000), func() {
		res <- func() error {
			evs, err := cl.Tick()
			if active, _, rerr := d.Replicas("work"); err != nil || rerr != nil || active != 3 {
				return fmt.Errorf("hot tick: log %q err=%v, replicas %d (%v), want 3", scaleLog(evs), err, active, rerr)
			}
			spare.close()
			evs, err = cl.Tick()
			if err != nil || len(evs) != 2 || evs[0].Kind != elastic.Down || evs[0].Node != "spare" || scaleLog(evs) != "work=1" {
				return fmt.Errorf("down tick: log %+v err=%v, want spare's DOWN and work=1", evs, err)
			}
			if active, _, err := d.Replicas("work"); err != nil || active != 1 {
				return fmt.Errorf("after the fold: replicas %d err=%v, want 1", active, err)
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
	if sink.Count() != items {
		t.Fatalf("sink holds %d items, want %d", sink.Count(), items)
	}
}
