package graph_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// This file tests the reconfiguration transaction itself (reconfigure.go):
// every op type crossed with a failure at every phase, the equivalence of
// the Rebalance and Edit entry points, and the deploy-time guard against a
// group that already exited.

const txnItems = 600

// txnRig is one live deployment with a target for every op type: an
// interior stage to scale or splice around ("work"), a probe to swap ("f"),
// a copy split with pure sink branches to grow and shrink ("cpy"), and a
// second split ("aux") whose two branches the plan-phase poison detaches.
//
//	src >> pump >> slow >> work >> f >> cpy ─┬─ p0 >> sink0
//	                                         ├─ p1 >> sink1        (shard 1)
//	                                         └─ p2 >> aux ─┬─ pa >> sa
//	                                                       └─ pb >> sb
type txnRig struct {
	g     *graph.Graph
	grp   *shard.Group
	d     *graph.Deployment
	sinks []*pipes.CollectSink // sink0, sink1, sa, sb

	// arm makes "slow" fail its next item — but only once a transaction
	// holds the deployment quiesced, so the failure lands inside the detach.
	arm     atomic.Bool
	entered chan struct{}
	once    sync.Once
}

func newTxnRig(t *testing.T) *txnRig {
	t.Helper()
	r := &txnRig{g: graph.New("txn"), entered: make(chan struct{})}
	g := r.g
	g.Add(core.Comp(pipes.NewCounterSource("src", txnItems)))
	g.Add(core.Pmp(pipes.NewClockedPump("pump", 1000)))
	g.Add(core.Comp(pipes.NewFuncFilter("slow", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		if r.arm.Load() {
			r.once.Do(func() { close(r.entered) })
			for !r.d.Quiescing() {
				runtime.Gosched()
			}
			return nil, errors.New("synthetic failure inside the quiesce")
		}
		if it.Seq%20 == 0 {
			time.Sleep(200 * time.Microsecond) // a real-time window for the txn to land mid-stream
		}
		return it, nil
	})))
	g.Add(core.Comp(txnWork("work")))
	g.Add(core.Comp(pipes.NewCountingProbe("f")))
	g.Split(pipes.NewCopyTee("cpy", 3, 8, typespec.Block, typespec.Block))
	g.Pipe("src", "pump", "slow", "work", "f", "cpy")
	g.Split(pipes.NewCopyTee("aux", 2, 8, typespec.Block, typespec.Block))
	g.Add(core.Pmp(pipes.NewFreePump("p2")))
	// want checks the type a branch receives: a kept branch never
	// recomposes, so only the affected set's downstream rule re-checks it.
	g.Add(core.Comp(txnIdent("want").WithInputSpec(typespec.New("test/counter"))))
	g.Pipe("cpy:2", "p2", "want", "aux")
	for _, b := range []struct {
		from, pump, sink string
		place            int
	}{{"cpy:0", "p0", "sink0", 0}, {"cpy:1", "p1", "sink1", 1}, {"aux:0", "pa", "sa", 0}, {"aux:1", "pb", "sb", 0}} {
		sink := pipes.NewCollectSink(b.sink)
		g.Add(core.Pmp(pipes.NewFreePump(b.pump)), graph.Place(b.place))
		g.Add(core.Comp(sink), graph.Place(b.place))
		g.Pipe(b.from, b.pump, b.sink)
		r.sinks = append(r.sinks, sink)
	}
	r.grp = shard.NewGroup(shard.WithShardCount(2))
	d, err := g.Deploy(graph.OnGroup(r.grp))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	r.d = d
	r.grp.Start()
	d.Start()
	editWait(d, r.sinks[0], txnItems/8)
	return r
}

func txnWork(name string) *pipes.FuncFilter {
	return pipes.NewFuncFilter(name, func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		it.Payload = it.Seq * 2
		return it, nil
	})
}

func txnIdent(name string) *pipes.FuncFilter {
	return pipes.NewFuncFilter(name, func(_ *core.Ctx, it *item.Item) (*item.Item, error) { return it, nil })
}

// noisyFilter emits a local event no stage of the rig handles.
type noisyFilter struct{ *pipes.FuncFilter }

func (noisyFilter) SendsLocalEvents() []events.Type   { return []events.Type{events.FrameRelease} }
func (noisyFilter) HandlesLocalEvents() []events.Type { return nil }

func txnTrace(sink *pipes.CollectSink) string {
	var b strings.Builder
	for _, it := range sink.Items() {
		fmt.Fprintf(&b, "%d/%v;", it.Seq, it.Payload)
	}
	return b.String()
}

// TestEditTxnRollbackAtEveryPhase rides each op type with a failure
// injected at each phase of the transaction.  A failure before the point of
// no return — op validation, PlanGraph, the capability check, a pipeline
// failing inside the quiesce — must leave the declaration layer (nodes,
// edges, index, outs/detachedOuts) and the placements exactly as they were,
// and, while the flow is intact, every sink's trace complete.  A failed
// recomposition is past that point, whether it fails in an edited segment
// or in an unedited one downstream whose input type the edit changed: the
// deployment winds down with the error latched, its links closed and the
// group able to drain.
func TestEditTxnRollbackAtEveryPhase(t *testing.T) {
	ops := []struct {
		name string
		op   func() graph.EditOp
	}{
		{"attach", func() graph.EditOp {
			return graph.AttachBranch{Split: "cpy", Place: -1, Stages: []core.Stage{
				core.Pmp(pipes.NewFreePump("pj")), core.Comp(pipes.NewCollectSink("joined"))}}
		}},
		{"detach", func() graph.EditOp { return graph.DetachBranch{Split: "cpy", Port: 1} }},
		{"insert", func() graph.EditOp {
			return graph.InsertStage{From: "work", To: "f", Stage: core.Comp(txnIdent("ins"))}
		}},
		{"swap", func() graph.EditOp {
			return graph.SwapStage{Node: "f", Stage: core.Comp(pipes.NewCountingProbe("f2"))}
		}},
		{"scale", func() graph.EditOp {
			return graph.ScaleStage{Node: "work", Replicas: 2, Build: func(i int) (core.Stage, error) {
				return core.Comp(txnWork(fmt.Sprintf("work#%d", i))), nil
			}}
		}},
		// The move takes the trunk, which holds the stage the quiesce phase
		// fails: a txn quiesces only the pipelines it affects.
		{"move", func() graph.EditOp { return graph.MoveOp(map[string]int{"src>>f": 1}) }},
		// A branch move leaves the trunk outside its affected set: beside
		// the quiesce phase's failing trunk it succeeds, and the trunk's
		// failure then ends the deployment.
		{"move-branch", func() graph.EditOp { return graph.MoveOp(map[string]int{"p0>>sink0": 1}) }},
	}
	phases := []struct {
		name   string
		poison func() []graph.EditOp
		want   string
	}{
		{"validate", func() []graph.EditOp {
			return []graph.EditOp{graph.SwapStage{Node: "nosuch", Stage: core.Comp(txnIdent("y"))}}
		}, "is not a plain stage"},
		{"plan", func() []graph.EditOp {
			return []graph.EditOp{graph.DetachBranch{Split: "aux", Port: 0}, graph.DetachBranch{Split: "aux", Port: 1}}
		}, "no attached out-port left"},
		{"capabilities", func() []graph.EditOp {
			return []graph.EditOp{graph.InsertStage{From: "pump", To: "slow",
				Stage: core.Comp(noisyFilter{txnIdent("noisy")})}}
		}, "no stage in the graph handles it"},
		{"quiesce", func() []graph.EditOp { return nil }, "edit aborted"},
		{"recompose", func() []graph.EditOp {
			return []graph.EditOp{graph.InsertStage{From: "pump", To: "slow",
				Stage: core.Comp(txnIdent("mistyped").WithInputSpec(typespec.New("test/other")))}}
		}, "edit:"},
		// The swap retypes the trunk's output, which the unedited branch
		// through want rejects: it must recompose and fail, not run on.
		{"reseed", func() []graph.EditOp {
			retype := func(typespec.Typespec) typespec.Typespec { return typespec.New("test/other") }
			return []graph.EditOp{graph.SwapStage{Node: "slow", Stage: core.Comp(txnIdent("retyped").WithTransform(retype))}}
		}, "edit:"},
	}
	for _, oc := range ops {
		for _, ph := range phases {
			t.Run(oc.name+"/"+ph.name, func(t *testing.T) {
				r := newTxnRig(t)
				declBefore, placedBefore := r.g.DeclString(), r.d.SegmentPlacements()
				if ph.name == "quiesce" {
					r.arm.Store(true)
					<-r.entered
				}
				err := r.d.Edit(append([]graph.EditOp{oc.op()}, ph.poison()...)...)
				if oc.name == "move-branch" && ph.name == "quiesce" {
					if err != nil {
						t.Fatalf("Edit = %v, want the branch move to succeed beside the failing trunk", err)
					}
					if werr := r.d.Wait(); werr == nil || !strings.Contains(werr.Error(), "synthetic failure inside the quiesce") {
						t.Fatalf("Wait = %v, want the trunk's failure", werr)
					}
					if gerr := r.grp.Wait(); gerr != nil {
						t.Fatalf("group wait: %v", gerr)
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), ph.want) {
					t.Fatalf("Edit = %v, want an error containing %q", err, ph.want)
				}
				rolledBack := ph.name != "recompose" && ph.name != "reseed"
				if rolledBack {
					if got := r.g.DeclString(); got != declBefore {
						t.Fatalf("declaration layer not restored:\n got: %s\nwant: %s", got, declBefore)
					}
					if got := r.d.SegmentPlacements(); !reflect.DeepEqual(got, placedBefore) {
						t.Fatalf("placements = %v, want %v", got, placedBefore)
					}
				}
				werr := r.d.Wait()
				if intact := rolledBack && ph.name != "quiesce"; intact != (werr == nil) {
					t.Fatalf("Wait = %v, flow intact = %v", werr, intact)
				}
				if werr != nil {
					for _, l := range r.d.Links() {
						if !l.Closed() {
							t.Fatalf("link %s left open by the dead deployment", l.Name())
						}
					}
				}
				if gerr := r.grp.Wait(); gerr != nil {
					t.Fatalf("group wait: %v", gerr)
				}
				var ref strings.Builder
				for seq := int64(1); seq <= txnItems; seq++ {
					fmt.Fprintf(&ref, "%d/%v;", seq, seq*2)
				}
				for _, sink := range r.sinks {
					got := txnTrace(sink)
					if werr == nil && got != ref.String() {
						t.Fatalf("%s: trace diverged after the refused txn (%d items)", sink.Name(), sink.Count())
					}
					if !strings.HasPrefix(ref.String(), got) {
						t.Fatalf("%s: trace is not a prefix of the reference (%d items)", sink.Name(), sink.Count())
					}
				}
			})
		}
	}
}

// moveDeltaRun deploys the seeded DAG on a 2-shard group and, mid-stream,
// applies one seeded set of segment moves — through Rebalance, or through
// an Edit batch carrying the same moves plus an identity InsertStage.
func moveDeltaRun(t *testing.T, seed int64, at int, viaEdit bool) string {
	t.Helper()
	gen := newDagGen(seed, 2)
	gen.build()
	grp := shard.NewGroup(shard.WithShardCount(2))
	d, err := gen.g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("seed %d: deploy: %v", seed, err)
	}
	grp.Start()
	d.Start()
	for gen.total() < at {
		select {
		case <-d.Done():
		default:
			runtime.Gosched()
			continue
		}
		break
	}
	var names []string
	for name := range d.SegmentPlacements() {
		names = append(names, name)
	}
	sort.Strings(names)
	hr := rand.New(rand.NewSource(seed ^ 0x5eed))
	hints := make(map[string]int)
	for _, name := range names {
		if hr.Intn(2) == 0 {
			hints[name] = hr.Intn(2)
		}
	}
	if viaEdit {
		e := gen.edges[0]
		err = d.Edit(graph.MoveOp(hints), graph.InsertStage{From: e[0], To: e[1], Stage: core.Comp(txnIdent("eins"))})
	} else {
		err = d.Rebalance(hints)
	}
	if err != nil && err != graph.ErrDeploymentDone {
		t.Fatalf("seed %d: viaEdit=%v: %v", seed, viaEdit, err)
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("seed %d: wait: %v", seed, err)
	}
	if err := grp.Wait(); err != nil {
		t.Fatalf("seed %d: group wait: %v", seed, err)
	}
	return gen.trace()
}

// TestMoveDeltaSameViaRebalanceAndEdit: Rebalance is the transaction whose
// only delta is segment moves, so the same moves riding an Edit batch (next
// to an identity insert) must give byte-identical sink traces on the seeded
// DAGs of the determinism harness — and both must match the scheduler
// baseline.
func TestMoveDeltaSameViaRebalanceAndEdit(t *testing.T) {
	compared := 0
	for seed := int64(1); seed <= 20; seed++ {
		gen := newDagGen(seed, 2)
		gen.build()
		if len(gen.edges) == 0 {
			continue
		}
		base, total := runOnScheduler(t, seed)
		viaRebalance := moveDeltaRun(t, seed, total/3, false)
		viaEdit := moveDeltaRun(t, seed, total/3, true)
		if viaRebalance != base {
			t.Fatalf("seed %d: Rebalance trace diverged from the scheduler baseline\n%s",
				seed, divergence(viaRebalance, base))
		}
		if viaEdit != viaRebalance {
			t.Fatalf("seed %d: the same moves via Edit (got) diverged from Rebalance (want)\n%s",
				seed, divergence(viaEdit, viaRebalance))
		}
		compared++
	}
	if compared < 10 {
		t.Fatalf("only %d seeds had an insertable edge; the harness is not exercising the comparison", compared)
	}
}

// TestDeployOnExitedGroupFailsFast: a group started while still empty sees
// no threads and no external sources and returns from Run at once.
// Deploying onto it must fail with the typed error instead of composing
// onto dead schedulers (where the first quiesce would wait forever).
func TestDeployOnExitedGroupFailsFast(t *testing.T) {
	grp := shard.NewGroup(shard.WithShardCount(2))
	grp.Start()
	if err := grp.Wait(); err != nil {
		t.Fatalf("empty group wait: %v", err)
	}
	g, _ := cutGraph("late", 10, 1000, 1)
	if _, err := g.Deploy(graph.OnGroup(grp)); !errors.Is(err, graph.ErrTargetExited) {
		t.Fatalf("deploy on an exited group = %v, want ErrTargetExited", err)
	}
}

// TestDeployOnFinishedSchedulerFailsFast: a scheduler run while still empty
// returns at once, and deploying onto it fails with the same typed error as
// an exited group, instead of composing pipelines that never run and a Wait
// that never returns.
func TestDeployOnFinishedSchedulerFailsFast(t *testing.T) {
	sched := uthread.New()
	if err := <-sched.RunBackground(); err != nil {
		t.Fatalf("empty scheduler run: %v", err)
	}
	g, _ := cutGraph("late", 10, 1000, 1)
	d, err := g.Deploy(graph.OnScheduler(sched))
	if errors.Is(err, graph.ErrTargetExited) {
		return
	}
	if err == nil {
		d.Start()
		waited := make(chan error, 1)
		go func() { waited <- d.Wait() }()
		select {
		case err = <-waited:
		case <-time.After(2 * time.Second):
			t.Fatal("deploy onto a finished scheduler succeeded, and its Wait still blocks after 2 s")
		}
	}
	t.Fatalf("deploy on a finished scheduler = %v, want ErrTargetExited", err)
}
