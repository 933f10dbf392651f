package pipes_test

import (
	"errors"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// run composes and runs a pipeline on a fresh virtual-clock scheduler.
func run(t *testing.T, stages []core.Stage, opts ...core.ComposeOption) *core.Pipeline {
	t.Helper()
	s := uthread.New()
	p, err := core.Compose("t", s, nil, stages, opts...)
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	p.Start()
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := p.Err(); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return p
}

// ---------------------------------------------------------------- buffers

func TestBufferFIFOAndCounts(t *testing.T) {
	buf := pipes.NewBuffer("b", 4)
	sink := pipes.NewCollectSink("sink")
	run(t, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 40)),
		core.Pmp(pipes.NewFreePump("p1")),
		core.Buf(buf),
		core.Pmp(pipes.NewFreePump("p2")),
		core.Comp(sink),
	})
	items := sink.Items()
	if len(items) != 40 {
		t.Fatalf("sink got %d items", len(items))
	}
	for i, it := range items {
		if it.Seq != int64(i+1) {
			t.Fatalf("FIFO violated at %d: seq %d", i, it.Seq)
		}
	}
	// Every item the sink got passed the buffer once: none dropped, none left.
	if buf.Drops() != 0 || buf.Len() != 0 {
		t.Errorf("counts: drops=%d left=%d", buf.Drops(), buf.Len())
	}
	if buf.MaxFill() > 4 {
		t.Errorf("capacity exceeded: %d", buf.MaxFill())
	}
	if buf.Len() != 0 {
		t.Errorf("buffer not drained: %d", buf.Len())
	}
}

func TestBufferBlockingThrottlesProducer(t *testing.T) {
	// Producer free-runs into a blocking buffer drained at 100 Hz; the
	// buffer's blocking push must pace the producer to the consumer rate
	// (no drops, bounded fill).
	buf := pipes.NewBuffer("b", 8)
	sink := pipes.NewCollectSink("sink")
	run(t, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 50)),
		core.Pmp(pipes.NewFreePump("p1")),
		core.Buf(buf),
		core.Pmp(pipes.NewClockedPump("p2", 100)),
		core.Comp(sink),
	})
	if sink.Count() != 50 {
		t.Fatalf("sink got %d items", sink.Count())
	}
	if buf.Drops() != 0 {
		t.Errorf("blocking buffer dropped %d items", buf.Drops())
	}
}

func TestDroppingBufferDropsWhenFull(t *testing.T) {
	// Fast producer into a tiny non-blocking buffer drained slowly: the
	// push policy drops the overflow (§2.3).
	buf := pipes.NewDroppingBuffer("b", 2)
	sink := pipes.NewCollectSink("sink")
	run(t, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 100)),
		core.Pmp(pipes.NewClockedPump("p1", 1000)),
		core.Buf(buf),
		core.Pmp(pipes.NewClockedPump("p2", 10)),
		core.Comp(sink),
	})
	if buf.Drops() == 0 {
		t.Fatal("non-blocking full buffer never dropped")
	}
	if int64(sink.Count())+buf.Drops() != 100 {
		t.Errorf("conservation violated: sank %d + dropped %d != 100", sink.Count(), buf.Drops())
	}
}

func TestBufferPolicySpec(t *testing.T) {
	buf := pipes.NewBufferPolicy("b", 3, typespec.NonBlock, typespec.Block)
	push, pull := buf.Spec()
	if push != typespec.NonBlock || pull != typespec.Block {
		t.Fatalf("Spec = %v,%v", push, pull)
	}
	if buf.Cap() != 3 {
		t.Fatalf("Cap = %d", buf.Cap())
	}
	// Capacity is clamped to >= 1.
	if pipes.NewBuffer("tiny", 0).Cap() != 1 {
		t.Error("zero capacity not clamped")
	}
}

func TestBufferCloseUpstreamEOS(t *testing.T) {
	buf := pipes.NewBuffer("b", 4)
	if buf.Closed() {
		t.Fatal("fresh buffer closed")
	}
	buf.CloseUpstream()
	if !buf.Closed() {
		t.Fatal("CloseUpstream did not mark closed")
	}
}

// ------------------------------------------------------------------ pumps

func TestClockedPumpHoldsRate(t *testing.T) {
	s := uthread.New()
	sink := pipes.NewCollectSink("sink")
	p, err := core.Compose("rate", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 100)),
		core.Pmp(pipes.NewClockedPump("pump", 50)),
		core.Comp(sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := s.Now()
	p.Start()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	elapsed := s.Now().Sub(start).Seconds()
	// 100 items at 50 Hz = 2.0 s of virtual time (first fires immediately).
	if elapsed < 1.9 || elapsed > 2.1 {
		t.Fatalf("elapsed %.3fs, want ~2.0s", elapsed)
	}
}

func TestPumpRateChangeViaEvent(t *testing.T) {
	pump := pipes.NewAdaptivePump("pump", 10)
	pump.HandleEvent(events.Event{Type: events.RateChange, Data: 80.0})
	if got := pump.Rate(); got != 80 {
		t.Fatalf("rate = %g after event", got)
	}
	// Non-rate events and bad payloads are ignored.
	pump.HandleEvent(events.Event{Type: events.Resize, Data: 1.0})
	pump.HandleEvent(events.Event{Type: events.RateChange, Data: "bogus"})
	pump.HandleEvent(events.Event{Type: events.RateChange, Data: -5.0})
	if got := pump.Rate(); got != 80 {
		t.Fatalf("rate = %g, want unchanged 80", got)
	}
}

func TestFreePumpClassAndRate(t *testing.T) {
	pump := pipes.NewFreePump("f")
	if pump.Class() != core.FreeRunning {
		t.Error("class wrong")
	}
	if pump.Rate() != 0 {
		t.Error("free pump must report unlimited rate")
	}
	now := vclock.Epoch
	if got := pump.Next(now, 0); got.After(now) {
		t.Error("free pump must fire immediately")
	}
}

func TestClockedPumpCatchesUpWithoutDrift(t *testing.T) {
	pump := pipes.NewClockedPump("c", 10) // 100ms period
	t0 := vclock.Epoch
	d0 := pump.Next(t0, 0)
	d1 := pump.Next(t0.Add(250*time.Millisecond), 1) // we're late
	d2 := pump.Next(t0.Add(250*time.Millisecond), 2)
	if !d0.Equal(t0) {
		t.Errorf("first deadline %v, want anchor", d0)
	}
	if !d1.Equal(t0.Add(100 * time.Millisecond)) {
		t.Errorf("second deadline %v, want anchor+100ms (catch-up)", d1)
	}
	if !d2.Equal(t0.Add(200 * time.Millisecond)) {
		t.Errorf("third deadline %v, want anchor+200ms", d2)
	}
}

func TestPumpPriorities(t *testing.T) {
	p := pipes.NewClockedPumpPrio("audio", 100, uthread.PriorityHigh)
	if p.Priority() != uthread.PriorityHigh {
		t.Fatal("priority not applied")
	}
}

// ------------------------------------------------------------- components

func TestCountingProbe(t *testing.T) {
	probe := pipes.NewCountingProbe("probe")
	run(t, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 10)),
		core.Comp(probe),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(pipes.NullSink("sink")),
	})
	if probe.Items() != 10 {
		t.Errorf("Items = %d", probe.Items())
	}
	if probe.Bytes() != 80 { // counter items are 8 bytes
		t.Errorf("Bytes = %d", probe.Bytes())
	}
}

func TestDelayFilterAdvancesVirtualTime(t *testing.T) {
	s := uthread.New()
	delay := pipes.NewDelayFilter("delay", func(*item.Item) int64 { return 5_000_000 }) // 5ms
	p, err := core.Compose("d", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 10)),
		core.Comp(delay),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(pipes.NullSink("sink")),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := s.Now()
	p.Start()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Now().Sub(start); got < 50*time.Millisecond {
		t.Fatalf("elapsed %v, want >= 50ms", got)
	}
}

func TestGeneratorSourceProducedCount(t *testing.T) {
	src := pipes.NewCounterSource("src", 7)
	run(t, []core.Stage{
		core.Comp(src),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(pipes.NullSink("sink")),
	})
	if src.Produced() != 7 {
		t.Errorf("Produced = %d", src.Produced())
	}
}

func TestCollectSinkLatencyStats(t *testing.T) {
	sink := pipes.NewCollectSink("sink")
	run(t, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 20)),
		core.Pmp(pipes.NewClockedPump("pump", 100)),
		core.Comp(sink),
	})
	if sink.Latency().Count() != 20 {
		t.Errorf("latency samples = %d", sink.Latency().Count())
	}
	if sink.ArrivalJitter() > 0.0001 {
		t.Errorf("clocked arrivals should have ~0 jitter, got %g", sink.ArrivalJitter())
	}
}

func TestFuncSinkErrorFailsPipeline(t *testing.T) {
	boom := errors.New("sink failure")
	s := uthread.New()
	p, err := core.Compose("f", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 5)),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(pipes.NewFuncSink("sink", func(*core.Ctx, *item.Item) error { return boom })),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := p.Err(); !errors.Is(got, boom) {
		t.Fatalf("pipeline error = %v", got)
	}
}

// ----------------------------------------------------- defrag / frag units

func TestDefragAndFragAllStyleCombinations(t *testing.T) {
	// Every (defrag style) x (frag style) combination must reproduce the
	// original stream: the strongest form of the E3 equivalence.
	defrags := map[string]func() core.Component{
		"consumer": func() core.Component { return pipes.NewDefragConsumer("df", nil) },
		"producer": func() core.Component { return pipes.NewDefragProducer("df", nil) },
		"active":   func() core.Component { return pipes.NewDefragActive("df", nil) },
	}
	frags := map[string]func() core.Component{
		"consumer": func() core.Component { return pipes.NewFragConsumer("fr", nil) },
		"producer": func() core.Component { return pipes.NewFragProducer("fr", nil) },
		"active":   func() core.Component { return pipes.NewFragActive("fr", nil) },
	}
	const n = 16
	for dn, dmk := range defrags {
		for fn, fmk := range frags {
			t.Run(dn+"+"+fn, func(t *testing.T) {
				sink := pipes.NewCollectSink("sink")
				run(t, []core.Stage{
					core.Comp(pipes.NewCounterSource("src", n)),
					core.Comp(dmk()),
					core.Pmp(pipes.NewFreePump("pump")),
					core.Comp(fmk()),
					core.Comp(sink),
				})
				items := sink.Items()
				if len(items) != n {
					t.Fatalf("got %d items, want %d", len(items), n)
				}
				for i, it := range items {
					if got := it.Payload.(int64); got != int64(i+1) {
						t.Fatalf("item %d = %d, want %d", i, got, i+1)
					}
				}
			})
		}
	}
}

func TestPairAssembleAndFragmentInverse(t *testing.T) {
	a := item.New(int64(1), 1, vclock.Epoch).WithSize(10)
	b := item.New(int64(2), 2, vclock.Epoch.Add(time.Second)).WithSize(20)
	merged := pipes.PairAssemble(a, b)
	if merged.Size != 30 {
		t.Errorf("merged size = %d", merged.Size)
	}
	if !merged.Created.Equal(vclock.Epoch) {
		t.Errorf("merged timestamp must be the earlier part's")
	}
	parts := pipes.PairFragment(merged)
	if len(parts) != 2 {
		t.Fatalf("fragment produced %d parts", len(parts))
	}
	if parts[0].Payload.(int64) != 1 || parts[1].Payload.(int64) != 2 {
		t.Error("order lost in round trip")
	}
	if parts[0].Size+parts[1].Size != 30 {
		t.Error("sizes lost in round trip")
	}
	// Non-pair payloads pass through unharmed.
	odd := item.New("x", 9, vclock.Epoch)
	if got := pipes.PairFragment(odd); len(got) != 1 || got[0] != odd {
		t.Error("non-pair payload mangled")
	}
}

// ------------------------------------------------------------------- tees

func TestRouteTeeSelectsOutputs(t *testing.T) {
	s := uthread.New()
	tee := pipes.NewRouteTee("route", 2, 16, typespec.Block, typespec.Block,
		func(it *item.Item) int { return int(it.Seq % 2) })
	trunk, err := core.Compose("trunk", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 10)),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(tee),
	})
	if err != nil {
		t.Fatal(err)
	}
	sinks := [2]*pipes.CollectSink{pipes.NewCollectSink("s0"), pipes.NewCollectSink("s1")}
	for i := 0; i < 2; i++ {
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
	// Even seqs to output 0, odd to output 1.
	if sinks[0].Count() != 5 || sinks[1].Count() != 5 {
		t.Fatalf("split %d/%d, want 5/5", sinks[0].Count(), sinks[1].Count())
	}
	for _, it := range sinks[0].Items() {
		if it.Seq%2 != 0 {
			t.Errorf("odd seq %d on even output", it.Seq)
		}
	}
}

func TestRouteTeeOutOfRangeDrops(t *testing.T) {
	s := uthread.New()
	tee := pipes.NewRouteTee("route", 1, 4, typespec.Block, typespec.Block,
		func(it *item.Item) int { return 5 }) // always out of range
	trunk, err := core.Compose("trunk", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 3)),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(tee),
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := pipes.NewCollectSink("sink")
	if _, err := core.Compose("branch", s, trunk.Bus(), []core.Stage{
		core.Comp(tee.Out(0)),
		core.Pmp(pipes.NewFreePump("bp")),
		core.Comp(sink),
	}); err != nil {
		t.Fatal(err)
	}
	trunk.Start()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sink.Count() != 0 {
		t.Fatalf("out-of-range routed items reached a sink: %d", sink.Count())
	}
}

func TestCopyTeeClonesItems(t *testing.T) {
	// Mutating attributes on one branch must not affect the other.
	s := uthread.New()
	tee := pipes.NewCopyTee("tee", 2, 8, typespec.Block, typespec.Block)
	trunk, err := core.Compose("trunk", s, nil, []core.Stage{
		core.Comp(pipes.NewGeneratorSource("src", typespec.Typespec{}, 5,
			func(ctx *core.Ctx, seq int64) (*item.Item, error) {
				return item.New(seq, seq, ctx.Now()).WithAttr("tag", "orig"), nil
			})),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(tee),
	})
	if err != nil {
		t.Fatal(err)
	}
	mutate := pipes.NewFuncFilter("mutate", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		it.SetAttr("tag", "mutated")
		return it, nil
	})
	sink0 := pipes.NewCollectSink("s0")
	sink1 := pipes.NewCollectSink("s1")
	if _, err := core.Compose("b0", s, trunk.Bus(), []core.Stage{
		core.Comp(tee.Out(0)), core.Comp(mutate),
		core.Pmp(pipes.NewFreePump("p0")), core.Comp(sink0),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Compose("b1", s, trunk.Bus(), []core.Stage{
		core.Comp(tee.Out(1)),
		core.Pmp(pipes.NewFreePump("p1")), core.Comp(sink1),
	}); err != nil {
		t.Fatal(err)
	}
	trunk.Start()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, it := range sink1.Items() {
		if it.AttrString("tag") != "orig" {
			t.Fatalf("branch 1 saw mutated attr %q (tee must clone)", it.AttrString("tag"))
		}
	}
	if sink0.Count() != 5 || sink1.Count() != 5 {
		t.Fatalf("counts %d/%d", sink0.Count(), sink1.Count())
	}
}

func TestNullSinkDiscards(t *testing.T) {
	run(t, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 3)),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(pipes.NullSink("sink")),
	})
}

func TestFuncFilterSpecBuilders(t *testing.T) {
	f := pipes.NewFuncFilter("f", func(_ *core.Ctx, it *item.Item) (*item.Item, error) { return it, nil }).
		WithInputSpec(typespec.New("video/raw")).
		WithTransform(func(ts typespec.Typespec) typespec.Typespec { return ts.WithLocation("x") })
	if f.InputSpec().ItemType != "video/raw" {
		t.Error("input spec lost")
	}
	if got := f.TransformSpec(typespec.New("video/raw")); got.Location != "x" {
		t.Error("transform lost")
	}
}
