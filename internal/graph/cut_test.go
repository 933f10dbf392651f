package graph_test

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
	"infopipes/internal/uthread"
)

// inOrder fails t unless sink holds exactly items 1..n in order.
func inOrder(t *testing.T, name string, sink *pipes.CollectSink, n int) {
	t.Helper()
	got := sink.Items()
	if len(got) != n {
		t.Fatalf("sink %s received %d items, want %d", name, len(got), n)
	}
	for i, it := range got {
		if it.Seq != int64(i+1) {
			t.Fatalf("sink %s position %d holds seq %d, want %d", name, i, it.Seq, i+1)
		}
	}
}

// TestCutReceiverMovesWhileSenderParked: a free sender fills a cut faster
// than a clocked receiver on the other shard drains it, so the sender is
// parked on the full cut when the receiver segment detaches; the receiver
// moves onto the sender's shard and back mid-stream.  Nothing but the
// parked threads holds either shard: the group still runs dry, and the
// trace is complete and in order.
func TestCutReceiverMovesWhileSenderParked(t *testing.T) {
	const items = 600
	g := graph.New("cutmove")
	sink := pipes.NewCollectSink("sink")
	moveAt := make(chan int, 2)
	g.Add(core.Comp(pipes.NewCounterSource("src", items)))
	g.Add(core.Pmp(pipes.NewFreePump("pump")))
	g.Add(core.Pmp(pipes.NewClockedPump("pump2", 2000)), graph.Place(1))
	g.Add(core.Comp(pipes.NewFuncSink("tap", func(ctx *core.Ctx, it *item.Item) error {
		if it.Seq == items/6 || it.Seq == items/2 {
			moveAt <- int(it.Seq)
		}
		return sink.Push(ctx, it)
	})), graph.Place(1))
	g.Pipe("src", "pump")
	g.Cut("pump", "pump2")
	g.Pipe("pump2", "tap")

	grp := shard.NewGroup(shard.WithShardCount(2), shard.WithRealClock())
	d, err := g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	ran := make(chan error, 1)
	go func() { ran <- grp.Run() }()
	d.Start()

	for _, to := range []int{0, 1} {
		select {
		case <-moveAt:
		case <-time.After(10 * time.Second):
			t.Fatalf("sink stuck at %d items", sink.Count())
		}
		delivered := int64(sink.Count())
		var sent int64
		for _, s := range d.Stats().Segments {
			if s.Name == "src>>pump" {
				sent = s.Items
			}
		}
		// A full cut holds 64 items, and the receiver has one in hand.
		if backlog := sent - delivered; backlog < 60 {
			t.Fatalf("before the move to shard %d the cut holds %d items; the sender is not parked on it", to, backlog)
		}
		if err := d.Rebalance(map[string]int{"pump2>>tap": to}); err != nil {
			t.Fatalf("move to shard %d: %v", to, err)
		}
		if at := d.SegmentPlacements()["pump2>>tap"]; at != to {
			t.Fatalf("receiver on shard %d, want %d", at, to)
		}
	}
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("group run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("group never ran dry: sink at %d of %d items", sink.Count(), items)
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	inOrder(t, "sink", sink, items)
}

// TestSameNodeCutBesideTeeNamedCut0: without cluster lanes a cut whose ends
// share a node is an in-process queue there, found by its lane name
// ("g/cut0"); a tee the graph itself names cut0 is a different instance.
func TestSameNodeCutBesideTeeNamedCut0(t *testing.T) {
	const items = 40
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	a := startNode(t, "alpha", tc.catalog())
	g := graph.New("nc")
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)))
	g.AddSpec("pump", "fpump")
	g.AddSpec("pump2", "fpump")
	g.SplitSpec("cut0", "copy", 2)
	g.AddSpec("pa", "fpump")
	g.AddSpec("sa", "collect")
	g.AddSpec("pb", "fpump")
	g.AddSpec("sb", "collect")
	g.Pipe("src", "pump")
	g.Cut("pump", "pump2")
	g.Pipe("pump2", "cut0")
	g.Pipe("cut0:0", "pa", "sa")
	g.Pipe("cut0:1", "pb", "sb")

	d, err := g.Deploy(graph.OnNodes(a.client))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	d.Start()
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, name := range []string{"sa", "sb"} {
		inOrder(t, name, tc.sinks[name], items)
	}
}

// TestCutWakesAtSenderPriority: a sender pump above PriorityHigh feeds a
// 2-shard cut, and the receiver parked on the empty cut is woken at the
// sender's priority.  A hog at a priority between PriorityHigh and the
// sender's keeps the receiving shard busy while the next item crosses: woken
// at the sender's priority the receiver preempts the hog and delivers the
// item; woken at PriorityHigh it would wait until the hog gives up, long
// before the sender's end of stream wakes anything.
func TestCutWakesAtSenderPriority(t *testing.T) {
	const items = 40
	const senderPrio, hogPrio = uthread.PriorityHigh + 20, uthread.PriorityHigh + 10
	var hogBusy, duringHog atomic.Bool
	g := graph.New("prio")
	g.Add(core.Comp(pipes.NewCounterSource("src", items)))
	g.Add(core.Pmp(pipes.NewClockedPumpPrio("pump", 100, senderPrio)))
	g.Add(core.Pmp(pipes.NewFreePump("pump2")), graph.Place(1))
	sink := pipes.NewCollectSink("sink")
	g.Add(core.Comp(pipes.NewFuncSink("tap", func(ctx *core.Ctx, it *item.Item) error {
		if hogBusy.Load() {
			duringHog.Store(true)
		}
		return sink.Push(ctx, it)
	})), graph.Place(1))
	g.Pipe("src", "pump")
	g.Cut("pump", "pump2")
	g.Pipe("pump2", "tap")

	grp := shard.NewGroup(shard.WithShardCount(2), shard.WithRealClock())
	d, err := g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	// The hog starts between two items (the sender sends every 10 ms), once
	// the receiver has parked on the empty cut, and spins until an item
	// reaches the sink or 200 ms pass, half the stream's length.
	sched := grp.Scheduler(1)
	hog := sched.Spawn("hog", hogPrio, func(th *uthread.Thread, _ uthread.Message) uthread.Disposition {
		hogBusy.Store(true)
		for deadline := time.Now().Add(200 * time.Millisecond); !duringHog.Load() && time.Now().Before(deadline); {
			th.Yield()
		}
		hogBusy.Store(false)
		return uthread.Terminate
	})
	sched.TimerAfter(25*time.Millisecond, hog)
	d.Start()
	if err := grp.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	inOrder(t, "sink", sink, items)
	if !duringHog.Load() {
		t.Fatalf("no item crossed the cut while the priority-%d hog ran: the receiver was not woken at the sender's priority %d", hogPrio, senderPrio)
	}
}
