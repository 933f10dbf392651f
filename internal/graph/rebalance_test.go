package graph_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
	"infopipes/internal/uthread"
)

// cutGraph declares source >> pump >> probe | cut | pump2 >> sink with the
// tail hinted to shard `tail`, returning graph and sink.
func cutGraph(name string, items int64, rate float64, tail int) (*graph.Graph, *pipes.CollectSink) {
	g := graph.New(name)
	sink := pipes.NewCollectSink("sink")
	g.Add(core.Comp(pipes.NewCounterSource("src", items)))
	g.Add(core.Pmp(pipes.NewClockedPump("pump", rate)))
	g.Add(core.Comp(pipes.NewCountingProbe("probe")))
	g.Add(core.Pmp(pipes.NewFreePump("pump2")), graph.Place(tail))
	g.Add(core.Comp(sink), graph.Place(tail))
	g.Pipe("src", "pump", "probe")
	g.Cut("probe", "pump2")
	g.Pipe("pump2", "sink")
	return g, sink
}

// waitCount polls the sink until it holds at least n items or the deadline
// passes.
func waitCount(t *testing.T, sink *pipes.CollectSink, n int, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for sink.Count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("sink stuck at %d items (want >= %d)", sink.Count(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRebalanceMovesSegmentMidRun is the acceptance core: a live cut graph
// on a real-clock 3-shard group has its tail segment moved twice mid-stream
// — with items in flight across the cut link — and the sink still receives
// every item exactly once, in order.
func TestRebalanceMovesSegmentMidRun(t *testing.T) {
	const items = 600
	g, sink := cutGraph("rb", items, 3000, 1)
	grp := shard.NewGroup(shard.WithShardCount(3), shard.WithRealClock())
	d, err := g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if got := d.SegmentPlacements()["pump2>>sink"]; got != 1 {
		t.Fatalf("tail placed on shard %d, want 1", got)
	}
	grp.Start()
	d.Start()

	waitCount(t, sink, items/4, 10*time.Second)
	if err := d.Rebalance(map[string]int{"pump2>>sink": 2}); err != nil {
		t.Fatalf("rebalance 1: %v", err)
	}
	if got := d.SegmentPlacements()["pump2>>sink"]; got != 2 {
		t.Fatalf("after rebalance tail on shard %d, want 2", got)
	}
	mid := sink.Count()
	if mid >= items {
		t.Skip("stream finished before the rebalance landed; nothing migrated")
	}
	waitCount(t, sink, mid+items/8, 10*time.Second)
	if err := d.Rebalance(map[string]int{"pump2>>sink": 0, "src>>probe": 1}); err != nil {
		t.Fatalf("rebalance 2: %v", err)
	}

	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	grp.Stop()
	if err := grp.Wait(); err != nil {
		t.Fatalf("group wait: %v", err)
	}
	if sink.Count() != items {
		t.Fatalf("sink received %d items, want %d (item loss or duplication)", sink.Count(), items)
	}
	for i, it := range sink.Items() {
		if it.Seq != int64(i+1) {
			t.Fatalf("item %d has seq %d: reordered or duplicated across migration", i, it.Seq)
		}
	}
}

// TestRebalanceDiamondZeroLoss migrates tee-boundary segments under load:
// a moved branch goes on reading and filling the same tee buffers from its
// new shard.
func TestRebalanceDiamondZeroLoss(t *testing.T) {
	const items = 400
	g, sink := diamond("rbd", items, -1)
	grp := shard.NewGroup(shard.WithShardCount(4), shard.WithRealClock())
	d, err := g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	grp.Start()
	d.Start()
	waitCount(t, sink, items/4, 10*time.Second)
	// Scatter the branches and the merge tail across the group.
	if err := d.Rebalance(map[string]int{
		"fa>>pa":   1,
		"fb>>pb":   2,
		"po>>sink": 3,
	}); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	grp.Stop()
	_ = grp.Wait()
	if sink.Count() != items {
		t.Fatalf("sink received %d items, want %d", sink.Count(), items)
	}
	seen := make(map[int64]bool, items)
	for _, it := range sink.Items() {
		if seen[it.Seq] {
			t.Fatalf("seq %d delivered twice", it.Seq)
		}
		seen[it.Seq] = true
	}
}

// TestRebalanceStopRace: a Stop racing a Rebalance must neither deadlock
// nor panic, and the deployment must wind down (run under -race).
func TestRebalanceStopRace(t *testing.T) {
	const items = 100_000 // effectively endless; Stop ends the run
	g, sink := cutGraph("rbstop", items, 0, 1)
	grp := shard.NewGroup(shard.WithShardCount(2), shard.WithRealClock())
	d, err := g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	grp.Start()
	d.Start()
	waitCount(t, sink, 50, 10*time.Second)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = d.Rebalance(map[string]int{"pump2>>sink": 0})
	}()
	go func() {
		defer wg.Done()
		d.Stop()
	}()
	wg.Wait()
	donec := make(chan error, 1)
	go func() { donec <- d.Wait() }()
	select {
	case err := <-donec:
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("deployment did not wind down after Stop raced Rebalance")
	}
	grp.Stop()
	_ = grp.Wait()
}

// TestRebalanceDouble: two concurrent Rebalance calls serialize; both
// succeed and the final placement reflects the second (run under -race).
func TestRebalanceDouble(t *testing.T) {
	const items = 800
	g, sink := cutGraph("rbdouble", items, 4000, 1)
	grp := shard.NewGroup(shard.WithShardCount(3), shard.WithRealClock())
	d, err := g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	grp.Start()
	d.Start()
	waitCount(t, sink, 50, 10*time.Second)

	// A telemetry poller runs concurrently with both rebalances: Stats and
	// SegmentPlacements must be safe while a rebalance mutates the wiring
	// (this raced before ld.shardOf/retired moved under d.mu).
	stopPoll := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-stopPoll:
				return
			default:
				_ = d.Stats()
				_ = d.SegmentPlacements()
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = d.Rebalance(map[string]int{"pump2>>sink": 2}) }()
	go func() { defer wg.Done(); errs[1] = d.Rebalance(map[string]int{"pump2>>sink": 0}) }()
	wg.Wait()
	close(stopPoll)
	<-pollDone
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rebalance %d: %v", i, err)
		}
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	grp.Stop()
	_ = grp.Wait()
	if sink.Count() != items {
		t.Fatalf("sink received %d items, want %d", sink.Count(), items)
	}
}

// TestRebalanceValidation covers the error taxonomy.
func TestRebalanceValidation(t *testing.T) {
	const items = 5
	// Single-scheduler target: not rebalancable.
	g, _ := cutGraph("rbv", items, 100, 0)
	sched := uthread.New()
	d, err := g.Deploy(graph.OnScheduler(sched))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if err := d.Rebalance(nil); !errors.Is(err, graph.ErrNotRebalancable) {
		t.Fatalf("scheduler-target rebalance err = %v, want ErrNotRebalancable", err)
	}
	d.Start()
	_ = sched.Run()

	// Unknown segment and out-of-range shard.
	g2, _ := cutGraph("rbv2", items, 100, 1)
	grp := shard.NewGroup(shard.WithShardCount(2))
	d2, err := g2.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if err := d2.Rebalance(map[string]int{"nope": 0}); err == nil {
		t.Fatal("unknown segment accepted")
	}
	if err := d2.Rebalance(map[string]int{"pump2>>sink": 7}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	d2.Start()
	if err := grp.Run(); err != nil {
		t.Fatalf("group run: %v", err)
	}
	if err := d2.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	// After the deployment finished, a rebalance reports ErrDeploymentDone.
	if err := d2.Rebalance(map[string]int{"pump2>>sink": 0}); !errors.Is(err, graph.ErrDeploymentDone) {
		t.Fatalf("post-finish rebalance err = %v, want ErrDeploymentDone", err)
	}
}

// TestBalancerDetectsSkew drives the automatic policy: a farm of four
// chains all hinted onto shard 0 of a 3-shard group must trip the
// balancer's skew threshold within a few epochs; after its move(s) the
// chains are no longer all on shard 0 and every item still arrives.
func TestBalancerDetectsSkew(t *testing.T) {
	const chains, perChain = 4, 50_000
	g := graph.New("bal")
	probes := make([]*pipes.CountingProbe, chains)
	for i := 0; i < chains; i++ {
		src := fmt.Sprintf("src%d", i)
		pump := fmt.Sprintf("p%d", i)
		probes[i] = pipes.NewCountingProbe(fmt.Sprintf("probe%d", i))
		g.Add(core.Comp(pipes.NewCounterSource(src, perChain)), graph.Place(0))
		g.Add(core.Pmp(pipes.NewFreePump(pump)), graph.Place(0))
		g.Add(core.Comp(probes[i]), graph.Place(0))
		g.Add(core.Comp(pipes.NullSink(fmt.Sprintf("sink%d", i))), graph.Place(0))
		g.Pipe(src, pump, probes[i].Name(), fmt.Sprintf("sink%d", i))
	}
	grp := shard.NewGroup(shard.WithShardCount(3), shard.WithRealClock())
	d, err := g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	grp.Start()
	d.Start()

	// MinItems must stay well below the items one epoch can deliver, or
	// the policy never trips — the race detector slows the stream ~10x,
	// so keep the floor low and the epoch long enough.
	b := graph.NewBalancer(graph.BalancePolicy{SkewThreshold: 1.5, MinItems: 64})
	moves := 0
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.Done():
		default:
			moved, err := d.Balance(b)
			if err != nil && !errors.Is(err, graph.ErrDeploymentDone) {
				t.Fatalf("balance: %v", err)
			}
			if moved {
				moves++
			}
			if moves >= 2 {
				break
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		break
	}
	if moves == 0 {
		t.Fatal("balancer never moved a segment off the hot shard")
	}
	onZero := 0
	for _, sh := range d.SegmentPlacements() {
		if sh == 0 {
			onZero++
		}
	}
	if onZero == chains {
		t.Fatal("all chains still on shard 0 after balancing")
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	grp.Stop()
	_ = grp.Wait()
	var total int64
	for _, p := range probes {
		total += p.Items()
	}
	if total != chains*perChain {
		t.Fatalf("delivered %d items, want %d", total, chains*perChain)
	}
	st := d.Stats()
	if len(st.Segments) == 0 || len(st.Shards) != 3 {
		t.Fatalf("stats shape: %d segments, %d shards", len(st.Segments), len(st.Shards))
	}
	var items int64
	for _, sh := range st.Shards {
		items += sh.Items
	}
	if items < chains*perChain {
		t.Fatalf("stats count %d items across shards, want >= %d (retired counters lost?)", items, chains*perChain)
	}
}

// TestRebalancePreservesFailure: a pipeline that FAILED (component error)
// must not be recomposed over by a rebalance — the rebalance refuses and
// Err/Wait keep reporting the original failure.  A gated sink keeps the
// tail pipeline alive (blocked in user code, immune to the failure's stop
// broadcast) so the deployment is deterministically mid-failure — not yet
// finished — when the rebalance lands.
func TestRebalancePreservesFailure(t *testing.T) {
	const items = 100_000
	reached := make(chan struct{})
	release := make(chan struct{})
	g := graph.New("rbfail")
	sink := pipes.NewFuncSink("sink", func(_ *core.Ctx, it *item.Item) error {
		if it.Seq == 10 {
			close(reached)
			<-release
		}
		return nil
	})
	boom := pipes.NewFuncFilter("boom", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		if it.Seq == 40 {
			return nil, fmt.Errorf("synthetic component failure")
		}
		return it, nil
	})
	// Clocked source: the sink must park at item 10 well before the
	// upstream reaches its failure at item 40 (a free-running upstream
	// could fail — and stop the tail — before item 10 ever arrives).
	g.Add(core.Comp(pipes.NewCounterSource("src", items)))
	g.Add(core.Pmp(pipes.NewClockedPump("pump", 2000)))
	g.Add(core.Comp(boom))
	g.Add(core.Pmp(pipes.NewFreePump("pump2")), graph.Place(1))
	g.Add(core.Comp(sink), graph.Place(1))
	g.Pipe("src", "pump", "boom")
	g.Cut("boom", "pump2")
	g.Pipe("pump2", "sink")

	grp := shard.NewGroup(shard.WithShardCount(2), shard.WithRealClock())
	d, err := g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	grp.Start()
	d.Start()
	<-reached
	// The sink is parked at item 10; the upstream keeps running and fails
	// at item 40.  Wait for the failure to latch.
	deadline := time.Now().Add(10 * time.Second)
	for d.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("upstream failure never latched")
		}
		time.Sleep(time.Millisecond)
	}

	err = d.Rebalance(map[string]int{"pump2>>sink": 0})
	if err == nil {
		t.Fatal("rebalance over a failed pipeline reported success")
	}
	if !strings.Contains(err.Error(), "synthetic component failure") {
		t.Fatalf("rebalance error %q hides the pipeline failure", err)
	}
	close(release)
	if werr := d.Wait(); werr == nil || !strings.Contains(werr.Error(), "synthetic component failure") {
		t.Fatalf("Wait() = %v, want the original component failure", werr)
	}
	// The aborted rebalance must have closed the auto-inserted links —
	// an open link would pin its receiving scheduler's external-source
	// reference and the group could never drain.
	for _, l := range d.Links() {
		if !l.Closed() {
			t.Fatalf("link %s left open by the aborted rebalance", l.Name())
		}
	}
	waited := make(chan error, 1)
	go func() { waited <- grp.Wait() }()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("group wedged after the aborted rebalance (links holding external sources?)")
	}
}
