package pipes_test

import (
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// elasticRing composes source >> spread Split >> n replica branches >>
// seq Merge >> sink on one scheduler and returns the sink.  branchStage
// (optional) is cloned per branch via the factory to transform items
// mid-branch.
func elasticRing(t *testing.T, s *uthread.Scheduler, tee *pipes.Split,
	om *pipes.Merge, count int64, branchStage func(i int) core.Stage) (*core.Pipeline, *pipes.CollectSink) {
	t.Helper()
	trunk, err := core.Compose("trunk", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", count)),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(tee),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tee.Outs(); i++ {
		stages := []core.Stage{core.Comp(tee.Out(i))}
		if branchStage != nil {
			stages = append(stages, branchStage(i))
		}
		stages = append(stages, core.Pmp(pipes.NewFreePump("bp")), core.Comp(om.In(i)))
		if _, err := core.Compose("branch", s, trunk.Bus(), stages); err != nil {
			t.Fatal(err)
		}
	}
	sink := pipes.NewCollectSink("sink")
	if _, err := core.Compose("fold", s, trunk.Bus(), []core.Stage{
		core.Comp(om.Out()),
		core.Pmp(pipes.NewFreePump("fp")),
		core.Comp(sink),
	}); err != nil {
		t.Fatal(err)
	}
	return trunk, sink
}

func TestElasticTeeSpreadsBySeq(t *testing.T) {
	s := uthread.New()
	tee := pipes.NewElasticTee("el", 3, 16, typespec.Block, typespec.Block)
	trunk, err := core.Compose("trunk", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 12)),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(tee),
	})
	if err != nil {
		t.Fatal(err)
	}
	var sinks [3]*pipes.CollectSink
	for i := 0; i < 3; i++ {
		sinks[i] = pipes.NewCollectSink("s")
		if _, err := core.Compose("branch", s, trunk.Bus(), []core.Stage{
			core.Comp(tee.Out(i)),
			core.Pmp(pipes.NewFreePump("bp")),
			core.Comp(sinks[i]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	trunk.Start()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Pure selector: item Seq goes to replica (Seq-1) mod 3, exactly one
	// replica per item.
	for i, sink := range sinks {
		if sink.Count() != 4 {
			t.Fatalf("replica %d got %d items, want 4", i, sink.Count())
		}
		for _, it := range sink.Items() {
			if (it.Seq-1)%3 != int64(i) {
				t.Errorf("seq %d on replica %d", it.Seq, i)
			}
		}
	}
	if b := pipes.SplitBase(tee); b != 1 {
		t.Errorf("base = %d, want 1", b)
	}
}

func TestElasticTeeSetActiveClampsAndStarves(t *testing.T) {
	tee := pipes.NewElasticTee("el", 4, 8, typespec.Block, typespec.Block)
	if got := tee.SetActive(0); got != 1 {
		t.Fatalf("SetActive(0) = %d, want clamp to 1", got)
	}
	if got := tee.SetActive(99); got != 4 {
		t.Fatalf("SetActive(99) = %d, want clamp to 4", got)
	}
	if tee.Active() != 4 {
		t.Fatalf("Active = %d", tee.Active())
	}

	// Folded back to 1 before the stream runs: every item lands on replica
	// 0, the idle replicas still see end of stream and close.
	tee.SetActive(1)
	s := uthread.New()
	trunk, err := core.Compose("trunk", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 9)),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(tee),
	})
	if err != nil {
		t.Fatal(err)
	}
	var sinks [4]*pipes.CollectSink
	for i := 0; i < 4; i++ {
		sinks[i] = pipes.NewCollectSink("s")
		if _, err := core.Compose("branch", s, trunk.Bus(), []core.Stage{
			core.Comp(tee.Out(i)),
			core.Pmp(pipes.NewFreePump("bp")),
			core.Comp(sinks[i]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	trunk.Start()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sinks[0].Count() != 9 {
		t.Fatalf("active replica got %d items, want 9", sinks[0].Count())
	}
	for i := 1; i < 4; i++ {
		if sinks[i].Count() != 0 {
			t.Errorf("idle replica %d got %d items", i, sinks[i].Count())
		}
	}
}

func TestElasticTeeAddOut(t *testing.T) {
	tee := pipes.NewElasticTee("el", 2, 8, typespec.Block, typespec.Block)
	if got := tee.AddOut(); got != 2 {
		t.Fatalf("AddOut = %d, want 2", got)
	}
	if tee.Outs() != 3 || tee.Active() != 3 {
		t.Fatalf("outs=%d active=%d after AddOut", tee.Outs(), tee.Active())
	}
	// A port added after the trunk ended is born closed: its branch drains
	// straight to end of stream.
	tee.HandleEOS(nil)
	port := tee.AddOut()
	s := uthread.New()
	sink := pipes.NewCollectSink("s")
	p, err := core.Compose("late", s, nil, []core.Stage{
		core.Comp(tee.Out(port)),
		core.Pmp(pipes.NewFreePump("bp")),
		core.Comp(sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !p.ReachedEOS() || sink.Count() != 0 {
		t.Fatalf("late branch: eos=%v count=%d", p.ReachedEOS(), sink.Count())
	}
}

func TestOrderedMergeReconstructsTrunk(t *testing.T) {
	// The full scale-out ring: whatever the replica interleaving, the merged
	// output is the exact trunk stream in ascending Seq order.
	s := uthread.New()
	tee := pipes.NewElasticTee("el", 4, 8, typespec.Block, typespec.Block)
	om := pipes.NewOrderedMerge("om", 4, 8, typespec.Block, typespec.Block, tee)
	trunk, sink := elasticRing(t, s, tee, om, 50, nil)
	trunk.Start()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	items := sink.Items()
	if len(items) != 50 {
		t.Fatalf("merged %d items, want 50", len(items))
	}
	for i, it := range items {
		if it.Seq != int64(i+1) {
			t.Fatalf("order broken at %d: seq %d", i, it.Seq)
		}
	}
	if om.Pending() != 0 {
		t.Errorf("reorder window not drained: %d", om.Pending())
	}
}

func TestOrderedMergeAdoptsBase(t *testing.T) {
	// A mid-stream scale edit splits a trunk that does not start at Seq 1;
	// the merge adopts the tee's first-forwarded Seq instead of stalling on
	// a Seq-1 that will never come.
	s := uthread.New()
	tee := pipes.NewElasticTee("el", 2, 8, typespec.Block, typespec.Block)
	om := pipes.NewOrderedMerge("om", 2, 8, typespec.Block, typespec.Block, tee)
	trunk, err := core.Compose("trunk", s, nil, []core.Stage{
		core.Comp(pipes.NewGeneratorSource("src", typespec.Typespec{}, 10,
			func(ctx *core.Ctx, seq int64) (*item.Item, error) {
				return item.New(seq+100, seq+100, ctx.Now()), nil
			})),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(tee),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := core.Compose("branch", s, trunk.Bus(), []core.Stage{
			core.Comp(tee.Out(i)),
			core.Pmp(pipes.NewFreePump("bp")),
			core.Comp(om.In(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	sink := pipes.NewCollectSink("sink")
	if _, err := core.Compose("fold", s, trunk.Bus(), []core.Stage{
		core.Comp(om.Out()),
		core.Pmp(pipes.NewFreePump("fp")),
		core.Comp(sink),
	}); err != nil {
		t.Fatal(err)
	}
	trunk.Start()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	items := sink.Items()
	if len(items) != 10 {
		t.Fatalf("merged %d items, want 10", len(items))
	}
	for i, it := range items {
		if it.Seq != int64(i+101) {
			t.Fatalf("order broken at %d: seq %d, want %d", i, it.Seq, i+101)
		}
	}
}

func TestOrderedMergeFlushesAcrossGaps(t *testing.T) {
	// A non-1:1 replica (drops Seq 7) leaves a hole the merge can never
	// fill; at end of stream the window flushes past the gap in ascending
	// order instead of wedging.
	s := uthread.New()
	tee := pipes.NewElasticTee("el", 3, 16, typespec.Block, typespec.Block)
	om := pipes.NewOrderedMerge("om", 3, 16, typespec.Block, typespec.Block, tee)
	trunk, sink := elasticRing(t, s, tee, om, 20, func(i int) core.Stage {
		return core.Comp(pipes.NewFuncFilter("f", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
			if it.Seq == 7 {
				return nil, nil // filtered out: a hole in the trunk order
			}
			return it, nil
		}))
	})
	trunk.Start()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	items := sink.Items()
	if len(items) != 19 {
		t.Fatalf("merged %d items, want 19", len(items))
	}
	last := int64(0)
	for _, it := range items {
		if it.Seq <= last {
			t.Fatalf("order broken: seq %d after %d", it.Seq, last)
		}
		if it.Seq == 7 {
			t.Fatal("dropped item resurfaced")
		}
		last = it.Seq
	}
}
