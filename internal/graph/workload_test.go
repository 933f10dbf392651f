package graph_test

import (
	"fmt"
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// workItems is the stream length of every TestWorkPerItem shape.
const workItems = 20000

// workRelay is an active-style identity stage: its main loop pulls and
// pushes, so it always runs as a coroutine of its section.
type workRelay struct{ core.Base }

func (*workRelay) Style() core.Style { return core.StyleActive }

func (*workRelay) Run(ctx *core.Ctx) error {
	for !ctx.Stopping() {
		it, err := ctx.PullUpstream()
		if err != nil {
			return err
		}
		if it == nil {
			continue
		}
		if err := ctx.PushDownstream(it); err != nil {
			return err
		}
	}
	return nil
}

// workShape declares one flow shape on g, with sink as its only sink.
type workShape struct {
	name  string
	build func(g *graph.Graph, sink core.Component)
	// switches and messages are the scheduler's counts over the whole run
	// of workItems source items: start, steady state and end of stream.
	switches, messages int64
	// delivered is the number of items the sink receives.
	delivered int
}

// chainShape adds src -> pump -> buf(caps[0]) -> pump -> ... -> sink.
func chainShape(caps ...int) func(*graph.Graph, core.Component) {
	return func(g *graph.Graph, sink core.Component) {
		g.Add(core.Comp(pipes.NewCounterSource("src", workItems)))
		g.Add(core.Pmp(pipes.NewFreePump("p0")))
		refs := []string{"src", "p0"}
		for i, c := range caps {
			buf, pump := fmt.Sprintf("b%d", i), fmt.Sprintf("p%d", i+1)
			g.Add(core.Buf(pipes.NewBuffer(buf, c)))
			g.Add(core.Pmp(pipes.NewFreePump(pump)))
			refs = append(refs, buf, pump)
		}
		g.Add(core.Comp(sink))
		g.Pipe(append(refs, sink.Name())...)
	}
}

// teeShape adds src -> pump -> tee -> n pumped branches -> merge -> pump
// -> sink; tees builds the split and the merge, every port of which is a
// 64-slot blocking buffer.
func teeShape(n int, tees func() (core.SplitPoint, core.MergePoint)) func(*graph.Graph, core.Component) {
	return func(g *graph.Graph, sink core.Component) {
		g.Add(core.Comp(pipes.NewCounterSource("src", workItems)))
		g.Add(core.Pmp(pipes.NewFreePump("p0")))
		sp, mp := tees()
		g.Split(sp)
		g.Merge(mp)
		for i := 0; i < n; i++ {
			b := string(rune('a' + i))
			g.Add(core.Comp(pipes.NewFuncFilter("w"+b, func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
				return it, nil
			})))
			g.Add(core.Pmp(pipes.NewFreePump("p" + b)))
			g.Pipe(fmt.Sprintf("tee:%d", i), "w"+b, "p"+b, fmt.Sprintf("mrg:%d", i))
		}
		g.Add(core.Pmp(pipes.NewFreePump("po")))
		g.Add(core.Comp(sink))
		g.Pipe("src", "p0", "tee")
		g.Pipe("mrg", "po", sink.Name())
	}
}

// arrivalMerge is the 2-way arrival-order merge behind the copy and route
// shapes.
func arrivalMerge() core.MergePoint {
	return pipes.NewMergeTee("mrg", 2, 64, typespec.Block, typespec.Block)
}

// TestWorkPerItem pins the scheduler work each flow shape costs per item,
// as exact counts on a virtual clock: context switches and messages over a
// 20 000-item run.  The counts are a pure function of the scheduling policy,
// so a change that moves one edits the golden here and states its work delta
// exactly; timings stay in the benchmark.
func TestWorkPerItem(t *testing.T) {
	shapes := []workShape{
		{
			// chain_local's stage list: four function filters, an active
			// relay, a pump, a 64-slot buffer, a second pump and the sink.
			name: "chain_local",
			build: func(g *graph.Graph, sink core.Component) {
				g.Add(core.Comp(pipes.NewCounterSource("src", workItems)))
				refs := []string{"src"}
				for i := 0; i < 4; i++ {
					f := fmt.Sprintf("f%d", i)
					g.Add(core.Comp(pipes.NewFuncFilter(f, func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
						return it, nil
					})))
					refs = append(refs, f)
				}
				g.Add(core.Comp(&workRelay{core.Base{CompName: "relay"}}))
				g.Add(core.Pmp(pipes.NewFreePump("p0")))
				g.Add(core.Buf(pipes.NewBuffer("buf", 64)))
				g.Add(core.Pmp(pipes.NewFreePump("p1")))
				g.Add(core.Comp(sink))
				g.Pipe(append(refs, "relay", "p0", "buf", "p1", sink.Name())...)
			},
			// One switch pair per 16-item batch (0.125/item) plus the start
			// and the end.  Per-item round-robin: 40 006 / 5.
			switches: 2504, messages: 5, delivered: workItems,
		},
		{
			// The 8-slot buffer ends its pumps' batches at 8 items.
			// Per-item round-robin: 60 009 / 7.
			name: "chain_3pump_buf64_buf8", build: chainShape(64, 8),
			switches: 7499, messages: 7, delivered: workItems,
		},
		{
			// The 4-slot buffer ends both batches at 4 items: a producer that
			// yields where the buffer fills never blocks on it, so no wake.
			// Per-item round-robin: 40 006 / 5.
			name: "chain_2pump_buf4", build: chainShape(4),
			switches: 10004, messages: 5, delivered: workItems,
		},
		{
			// Per-item round-robin: 80 013 / 20 019.
			name: "route_tee_merge",
			build: teeShape(2, func() (core.SplitPoint, core.MergePoint) {
				return pipes.NewRouteTee("tee", 2, 64, typespec.Block, typespec.Block,
					func(it *item.Item) int { return int(it.Seq % 2) }), arrivalMerge()
			}),
			switches: 5008, messages: 18, delivered: workItems,
		},
		{
			// The merge's pump has twice the others' work.  In the steady
			// state nobody blocks: the source pump's batch ends where a tee
			// port fills (8 items), each branch pump's where its port
			// empties, and the merge's pump runs 16 cycles, so four
			// switches carry 8 source items.  It gets there because a pump
			// that a wake preempts resumes before its equals (pushFront);
			// sent to the back of the queue it kept the merge full and every
			// item paid a wake: 7.97 switches / 2.99 messages per item.
			// Per-item round-robin: 159 630 / 59 699.
			name: "copy_tee_merge",
			build: teeShape(2, func() (core.SplitPoint, core.MergePoint) {
				return pipes.NewCopyTee("tee", 2, 64, typespec.Block, typespec.Block), arrivalMerge()
			}),
			switches: 10000, messages: 22, delivered: 2 * workItems,
		},
		{
			// The replica scale-out ring: a spread split over three
			// replica branches and a seq merge that rebuilds the trunk.
			name: "spread_seq_merge",
			build: teeShape(3, func() (core.SplitPoint, core.MergePoint) {
				tee := pipes.NewElasticTee("tee", 3, 64, typespec.Block, typespec.Block)
				return tee, pipes.NewOrderedMerge("mrg", 3, 64, typespec.Block, typespec.Block, tee)
			}),
			switches: 6260, messages: 25, delivered: workItems,
		},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			g := graph.New(sh.name)
			got := 0
			sh.build(g, pipes.NewFuncSink("sink", func(_ *core.Ctx, it *item.Item) error {
				got++
				it.Recycle()
				return nil
			}))
			sched := uthread.New()
			d, err := g.Deploy(graph.OnScheduler(sched))
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
			if got != sh.delivered {
				t.Fatalf("sink received %d items, want %d", got, sh.delivered)
			}
			st := sched.Stats()
			per := func(n int64) float64 { return float64(n) / workItems }
			t.Logf("%s: %d switches (%.4f/item), %d messages (%.4f/item)",
				sh.name, st.Switches, per(st.Switches), st.Messages, per(st.Messages))
			if st.Switches != sh.switches || st.Messages != sh.messages {
				t.Errorf("switches %d (%.4f/item), messages %d (%.4f/item); golden %d (%.4f/item), %d (%.4f/item)",
					st.Switches, per(st.Switches), st.Messages, per(st.Messages),
					sh.switches, per(sh.switches), sh.messages, per(sh.messages))
			}
		})
	}
}

// TestWorkPerItemTwoShards pins the work of two flow shapes on a 2-shard
// virtual-clock group as counts that do not depend on timing: the pipelines
// composed, the links inserted, and the pump items shard 0 runs per item
// delivered.  In fanout_shards's shape — a route split, branch B hinted onto
// shard 1, an arrival merge — branch B reads its tee port and fills its
// merge port from shard 1, so no link and no relay pipeline is composed:
// shard 0 pumps each item in the trunk and at the merge, and half of them in
// branch A.  In the cut chain the cut is a buffer that shard 1's pump reads
// directly, so it is no link either: shard 0 pumps each item once.
func TestWorkPerItemTwoShards(t *testing.T) {
	const items = 2000
	shapes := []struct {
		name          string
		build         func(g *graph.Graph, sink core.Component)
		hinted        string // the segment placed on shard 1
		pipelines     int
		shard0PerItem float64
	}{
		{
			name: "route_merge",
			build: func(g *graph.Graph, sink core.Component) {
				g.Add(core.Comp(pipes.NewCounterSource("src", items)))
				g.Add(core.Pmp(pipes.NewFreePump("pump")))
				g.Split(pipes.NewRouteTee("tee", 2, 64, typespec.Block, typespec.Block,
					func(it *item.Item) int { return int(it.Seq % 2) }))
				g.Add(core.Pmp(pipes.NewFreePump("pa")))
				g.Add(core.Pmp(pipes.NewFreePump("pb")), graph.Place(1))
				g.Merge(arrivalMerge())
				g.Add(core.Pmp(pipes.NewFreePump("po")))
				g.Add(core.Comp(sink))
				g.Pipe("src", "pump", "tee")
				g.Pipe("tee:0", "pa", "mrg:0")
				g.Pipe("tee:1", "pb", "mrg:1")
				g.Pipe("mrg", "po", "sink")
			},
			hinted: "pb", pipelines: 4, shard0PerItem: 2.5,
		},
		{
			name: "cut_chain",
			build: func(g *graph.Graph, sink core.Component) {
				g.Add(core.Comp(pipes.NewCounterSource("src", items)))
				g.Add(core.Pmp(pipes.NewFreePump("pump")))
				g.Add(core.Pmp(pipes.NewFreePump("pump2")), graph.Place(1))
				g.Add(core.Comp(sink), graph.Place(1))
				g.Pipe("src", "pump")
				g.Cut("pump", "pump2")
				g.Pipe("pump2", "sink")
			},
			hinted: "pump2>>sink", pipelines: 2, shard0PerItem: 1,
		},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			g := graph.New(sh.name)
			sink := pipes.NewCollectSink("sink")
			sh.build(g, sink)
			grp := shard.NewGroup(shard.WithShardCount(2))
			d, err := g.Deploy(graph.OnGroup(grp))
			if err != nil {
				t.Fatalf("deploy: %v", err)
			}
			d.Start()
			if err := grp.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := d.Wait(); err != nil {
				t.Fatalf("wait: %v", err)
			}
			if sink.Count() != items {
				t.Fatalf("sink received %d items, want %d", sink.Count(), items)
			}
			if got := d.SegmentPlacements()[sh.hinted]; got != 1 {
				t.Fatalf("segment %s runs on shard %d, want 1", sh.hinted, got)
			}
			st := d.Stats()
			perItem := float64(st.Shards[0].Items) / items
			t.Logf("%d pipelines, %d links, shard 0 pumps %d items (%.2f per item delivered)",
				len(d.Pipelines()), len(d.Links()), st.Shards[0].Items, perItem)
			if len(d.Pipelines()) != sh.pipelines || len(d.Links()) != 0 || perItem != sh.shard0PerItem {
				t.Errorf("%d pipelines, %d links, %.2f shard-0 pump items per item; golden %d, 0, %.2f",
					len(d.Pipelines()), len(d.Links()), perItem, sh.pipelines, sh.shard0PerItem)
			}
		})
	}
}
