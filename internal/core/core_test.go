package core_test

import (
	"errors"
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// runPipeline composes, starts and runs a pipeline to completion on a fresh
// virtual-clock scheduler, failing the test on any error.
func runPipeline(t *testing.T, name string, stages []core.Stage, opts ...core.ComposeOption) *core.Pipeline {
	t.Helper()
	s := uthread.New()
	p, err := core.Compose(name, s, nil, stages, opts...)
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	p.Start()
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := p.Err(); err != nil {
		t.Fatalf("pipeline error: %v", err)
	}
	select {
	case <-p.Done():
	default:
		t.Fatal("pipeline Done not closed after Run returned")
	}
	return p
}

func TestSimplePipelineFlow(t *testing.T) {
	src := pipes.NewCounterSource("src", 10)
	sink := pipes.NewCollectSink("sink")
	runPipeline(t, "simple", []core.Stage{
		core.Comp(src),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(sink),
	})
	items := sink.Items()
	if len(items) != 10 {
		t.Fatalf("sink received %d items, want 10", len(items))
	}
	for i, it := range items {
		if it.Seq != int64(i+1) {
			t.Errorf("item %d has seq %d, want %d (order violated)", i, it.Seq, i+1)
		}
	}
	if !sink.SawEOS() {
		t.Error("sink did not observe EOS")
	}
}

func TestFunctionFilterInline(t *testing.T) {
	src := pipes.NewCounterSource("src", 5)
	double := pipes.NewFuncFilter("double", func(ctx *core.Ctx, it *item.Item) (*item.Item, error) {
		return item.New(it.Payload.(int64)*2, it.Seq, it.Created), nil
	})
	sink := pipes.NewCollectSink("sink")
	runPipeline(t, "fn", []core.Stage{
		core.Comp(src), core.Comp(double),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(sink),
	})
	for i, it := range sink.Items() {
		if got := it.Payload.(int64); got != int64(i+1)*2 {
			t.Errorf("item %d payload = %d, want %d", i, got, (i+1)*2)
		}
	}
}

// fig9Config builds one of the paper's Figure 9 pipelines: a passive
// source, the listed middle components around a pump, and a passive sink.
type fig9Config struct {
	name    string
	stages  func() []core.Stage
	wantSet int // coroutine-set size from §4
}

func mkDefrag(style core.Style) core.Component {
	switch style {
	case core.StyleConsumer:
		return pipes.NewDefragConsumer("mid1", nil)
	case core.StyleProducer:
		return pipes.NewDefragProducer("mid1", nil)
	case core.StyleActive:
		return pipes.NewDefragActive("mid1", nil)
	default:
		return pipes.NewFuncFilter("mid1", func(_ *core.Ctx, it *item.Item) (*item.Item, error) { return it, nil })
	}
}

func mkSecond(style core.Style) core.Component {
	switch style {
	case core.StyleConsumer:
		return pipes.NewFragConsumer("mid2", nil)
	case core.StyleProducer:
		return pipes.NewFragProducer("mid2", nil)
	case core.StyleActive:
		return pipes.NewFragActive("mid2", nil)
	default:
		return pipes.NewFuncFilter("mid2", func(_ *core.Ctx, it *item.Item) (*item.Item, error) { return it, nil })
	}
}

func TestFig9Allocation(t *testing.T) {
	// The eight configurations of Figure 9 and the coroutine-set sizes
	// §4 assigns them: a,b,c need no coroutines (set of 1); d,g,h a set
	// of two; e,f a set of three.
	src := func() core.Stage { return core.Comp(pipes.NewCounterSource("src", 4)) }
	sink := func() core.Stage { return core.Comp(pipes.NewCollectSink("sink")) }
	pump := func() core.Stage { return core.Pmp(pipes.NewFreePump("pump")) }

	cases := []fig9Config{
		{"a_producer_pump_consumer", func() []core.Stage {
			return []core.Stage{src(), core.Comp(mkDefrag(core.StyleProducer)), pump(), core.Comp(mkSecond(core.StyleConsumer)), sink()}
		}, 1},
		{"b_function_pump_function", func() []core.Stage {
			return []core.Stage{src(), core.Comp(mkDefrag(core.StyleFunction)), pump(), core.Comp(mkSecond(core.StyleFunction)), sink()}
		}, 1},
		{"c_pump_consumer_consumer", func() []core.Stage {
			return []core.Stage{src(), pump(), core.Comp(mkDefrag(core.StyleConsumer)), core.Comp(mkSecond(core.StyleConsumer)), sink()}
		}, 1},
		{"d_main_pump_function", func() []core.Stage {
			return []core.Stage{src(), core.Comp(mkDefrag(core.StyleActive)), pump(), core.Comp(mkSecond(core.StyleFunction)), sink()}
		}, 2},
		{"e_consumer_pump_producer", func() []core.Stage {
			return []core.Stage{src(), core.Comp(mkDefrag(core.StyleConsumer)), pump(), core.Comp(mkSecond(core.StyleProducer)), sink()}
		}, 3},
		{"f_main_pump_main", func() []core.Stage {
			return []core.Stage{src(), core.Comp(mkDefrag(core.StyleActive)), pump(), core.Comp(mkSecond(core.StyleActive)), sink()}
		}, 3},
		{"g_pump_consumer_main", func() []core.Stage {
			return []core.Stage{src(), pump(), core.Comp(mkDefrag(core.StyleConsumer)), core.Comp(mkSecond(core.StyleActive)), sink()}
		}, 2},
		{"h_pump_consumer_producer", func() []core.Stage {
			return []core.Stage{src(), pump(), core.Comp(mkDefrag(core.StyleConsumer)), core.Comp(mkSecond(core.StyleProducer)), sink()}
		}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := runPipeline(t, tc.name, tc.stages())
			plan := p.Plan()
			if len(plan.Sections) != 1 {
				t.Fatalf("sections = %d, want 1", len(plan.Sections))
			}
			if got := plan.Sections[0].CoroutineSetSize; got != tc.wantSet {
				t.Errorf("coroutine set size = %d, want %d\nplan: %s", got, tc.wantSet, plan)
			}
		})
	}
}

func TestFig2ActivityAssignment(t *testing.T) {
	// Components between buffer and pump operate in pull mode, components
	// between pump and buffer in push mode (§2.2, Fig 2).
	mk := func(n string) core.Component {
		return pipes.NewFuncFilter(n, func(_ *core.Ctx, it *item.Item) (*item.Item, error) { return it, nil })
	}
	s := uthread.New()
	p, err := core.Compose("fig2", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 1)),
		core.Comp(mk("fA")),
		core.Pmp(pipes.NewFreePump("pump1")),
		core.Comp(mk("fB")),
		core.Buf(pipes.NewBuffer("buf1", 4)),
		core.Comp(mk("fC")),
		core.Pmp(pipes.NewFreePump("pump2")),
		core.Comp(mk("fD")),
		core.Buf(pipes.NewBuffer("buf2", 4)),
		core.Comp(mk("fE")),
		core.Pmp(pipes.NewFreePump("pump3")),
		core.Comp(pipes.NewCollectSink("sink")),
	})
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	wantModes := map[string]core.Mode{
		"fA": core.PullMode, // between source and pump1: pull (Fig 2 left)
		"fB": core.PushMode, // between pump1 and buf1: push (Fig 2 right)
		"fC": core.PullMode, // between buf1 and pump2: pull
		"fD": core.PushMode, // between pump2 and buf2: push
		"fE": core.PullMode, // between buf2 and pump3: pull
	}
	for name, want := range wantModes {
		pl, ok := p.Placement(name)
		if !ok {
			t.Fatalf("no placement for %s", name)
		}
		if pl.Mode != want {
			t.Errorf("%s mode = %v, want %v", name, pl.Mode, want)
		}
		if !pl.Direct {
			t.Errorf("%s is a coroutine, functions must be direct", name)
		}
	}
	p.Start()
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestSectionWithoutPumpFails(t *testing.T) {
	s := uthread.New()
	_, err := core.Compose("nopump", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 1)),
		core.Buf(pipes.NewBuffer("buf", 4)),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(pipes.NewCollectSink("sink")),
	})
	if !errors.Is(err, core.ErrNoActivity) {
		t.Fatalf("err = %v, want ErrNoActivity", err)
	}
	s.Stop()
}

func TestTwoPumpsInSectionFails(t *testing.T) {
	s := uthread.New()
	_, err := core.Compose("twopumps", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 1)),
		core.Pmp(pipes.NewFreePump("p1")),
		core.Pmp(pipes.NewFreePump("p2")),
		core.Comp(pipes.NewCollectSink("sink")),
	})
	if !errors.Is(err, core.ErrTwoPumps) {
		t.Fatalf("err = %v, want ErrTwoPumps", err)
	}
}

func TestLayoutValidation(t *testing.T) {
	s := uthread.New()
	sinkOnly := []core.Stage{core.Comp(pipes.NewCollectSink("sink"))}
	if _, err := core.Compose("tiny", s, nil, sinkOnly); !errors.Is(err, core.ErrBadLayout) {
		t.Errorf("single stage: err = %v, want ErrBadLayout", err)
	}
	// Consumer-style source is invalid.
	if _, err := core.Compose("badsrc", s, nil, []core.Stage{
		core.Comp(pipes.NewCollectSink("notasource")),
		core.Pmp(pipes.NewFreePump("p")),
		core.Comp(pipes.NewCollectSink("sink")),
	}); !errors.Is(err, core.ErrBadLayout) {
		t.Errorf("bad source: err = %v, want ErrBadLayout", err)
	}
	// Producer-style sink is invalid.
	if _, err := core.Compose("badsink", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 1)),
		core.Pmp(pipes.NewFreePump("p")),
		core.Comp(pipes.NewCounterSource("notasink", 1)),
	}); !errors.Is(err, core.ErrBadLayout) {
		t.Errorf("bad sink: err = %v, want ErrBadLayout", err)
	}
	// Duplicate names are rejected.
	if _, err := core.Compose("dup", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("x", 1)),
		core.Pmp(pipes.NewFreePump("x")),
		core.Comp(pipes.NewCollectSink("sink")),
	}); !errors.Is(err, core.ErrBadLayout) {
		t.Errorf("dup names: err = %v, want ErrBadLayout", err)
	}
	// Buffer at the end is rejected.
	if _, err := core.Compose("bufend", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 1)),
		core.Pmp(pipes.NewFreePump("p")),
		core.Buf(pipes.NewBuffer("b", 2)),
	}); !errors.Is(err, core.ErrBadLayout) {
		t.Errorf("buffer end: err = %v, want ErrBadLayout", err)
	}
}

func TestDefragmenterEquivalencePushMode(t *testing.T) {
	// All three defragmenter implementations, used downstream of the pump
	// (push mode), must deliver identical results: N inputs -> N/2 merged
	// outputs in order (Figs 4a, 6a, 8a).
	const n = 12
	impls := map[string]func() core.Component{
		"passive-consumer": func() core.Component { return pipes.NewDefragConsumer("defrag", nil) },
		"passive-producer": func() core.Component { return pipes.NewDefragProducer("defrag", nil) }, // wrapped (Fig 8a)
		"active":           func() core.Component { return pipes.NewDefragActive("defrag", nil) },   // Fig 6a
	}
	for name, mk := range impls {
		t.Run(name, func(t *testing.T) {
			sink := pipes.NewCollectSink("sink")
			runPipeline(t, "defrag-push-"+name, []core.Stage{
				core.Comp(pipes.NewCounterSource("src", n)),
				core.Pmp(pipes.NewFreePump("pump")),
				core.Comp(mk()),
				core.Comp(sink),
			})
			assertDefragOutput(t, sink, n)
		})
	}
}

func TestDefragmenterEquivalencePullMode(t *testing.T) {
	// The same implementations upstream of the pump (pull mode):
	// Figs 4b, 6b, 8b.
	const n = 12
	impls := map[string]func() core.Component{
		"passive-consumer": func() core.Component { return pipes.NewDefragConsumer("defrag", nil) }, // wrapped (Fig 8b)
		"passive-producer": func() core.Component { return pipes.NewDefragProducer("defrag", nil) },
		"active":           func() core.Component { return pipes.NewDefragActive("defrag", nil) },
	}
	for name, mk := range impls {
		t.Run(name, func(t *testing.T) {
			sink := pipes.NewCollectSink("sink")
			runPipeline(t, "defrag-pull-"+name, []core.Stage{
				core.Comp(pipes.NewCounterSource("src", n)),
				core.Comp(mk()),
				core.Pmp(pipes.NewFreePump("pump")),
				core.Comp(sink),
			})
			assertDefragOutput(t, sink, n)
		})
	}
}

func assertDefragOutput(t *testing.T, sink *pipes.CollectSink, n int) {
	t.Helper()
	items := sink.Items()
	if len(items) != n/2 {
		t.Fatalf("sink received %d items, want %d", len(items), n/2)
	}
	for i, it := range items {
		pair, ok := it.Payload.([]any)
		if !ok || len(pair) != 2 {
			t.Fatalf("item %d payload %#v, want a pair", i, it.Payload)
		}
		a, b := pair[0].(int64), pair[1].(int64)
		if a != int64(2*i+1) || b != int64(2*i+2) {
			t.Errorf("item %d = (%d,%d), want (%d,%d)", i, a, b, 2*i+1, 2*i+2)
		}
	}
}

func TestFragmenterRoundTrip(t *testing.T) {
	// defragment then fragment restores the original stream.
	const n = 10
	sink := pipes.NewCollectSink("sink")
	runPipeline(t, "roundtrip", []core.Stage{
		core.Comp(pipes.NewCounterSource("src", n)),
		core.Comp(pipes.NewDefragProducer("defrag", nil)),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(pipes.NewFragConsumer("frag", nil)),
		core.Comp(sink),
	})
	items := sink.Items()
	if len(items) != n {
		t.Fatalf("sink received %d items, want %d", len(items), n)
	}
	for i, it := range items {
		if got := it.Payload.(int64); got != int64(i+1) {
			t.Errorf("item %d payload = %d, want %d", i, got, i+1)
		}
	}
}

func TestTwoSectionsThroughBuffer(t *testing.T) {
	src := pipes.NewCounterSource("src", 20)
	buf := pipes.NewBuffer("buf", 4)
	sink := pipes.NewCollectSink("sink")
	p := runPipeline(t, "twosect", []core.Stage{
		core.Comp(src),
		core.Pmp(pipes.NewFreePump("p1")),
		core.Buf(buf),
		core.Pmp(pipes.NewFreePump("p2")),
		core.Comp(sink),
	})
	if got := sink.Count(); got != 20 {
		t.Fatalf("sink received %d items, want 20 (EOS through buffer)", got)
	}
	if len(p.Plan().Sections) != 2 {
		t.Fatalf("sections = %d, want 2", len(p.Plan().Sections))
	}
	if buf.MaxFill() > int64(buf.Cap()) {
		t.Errorf("buffer overfilled: max %d cap %d", buf.MaxFill(), buf.Cap())
	}
}

func TestStopEndsInfiniteFlow(t *testing.T) {
	// An unbounded source; the sink broadcasts stop after 7 items — the
	// user-command case of §2.2.
	src := pipes.NewGeneratorSource("src", typespec.New("t"), 0,
		func(ctx *core.Ctx, seq int64) (*item.Item, error) {
			return item.New(seq, seq, ctx.Now()), nil
		})
	var got int
	sink := pipes.NewFuncSink("sink", func(ctx *core.Ctx, it *item.Item) error {
		got++
		if got == 7 {
			ctx.Broadcast(events.Event{Type: events.Stop})
		}
		return nil
	})
	runPipeline(t, "stoppable", []core.Stage{
		core.Comp(src),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(sink),
	})
	if got < 7 {
		t.Fatalf("sink saw %d items, want >= 7", got)
	}
	if got > 8 {
		t.Fatalf("sink saw %d items after stop at 7; stop latency too high", got)
	}
}

func TestGlueWrappersForceCoroutines(t *testing.T) {
	// Under ForceCoroutines every component gets a coroutine and results
	// must be unchanged (the ablation of E8).
	sink := pipes.NewCollectSink("sink")
	p := runPipeline(t, "forced", []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 8)),
		core.Comp(pipes.NewFuncFilter("f1", func(_ *core.Ctx, it *item.Item) (*item.Item, error) { return it, nil })),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(pipes.NewFuncFilter("f2", func(_ *core.Ctx, it *item.Item) (*item.Item, error) { return it, nil })),
		core.Comp(sink),
	}, core.ForceCoroutines())
	if got := sink.Count(); got != 8 {
		t.Fatalf("sink received %d items, want 8", got)
	}
	// src, f1, f2, sink all coroutines + pump = 5.
	if got := p.Plan().Sections[0].CoroutineSetSize; got != 5 {
		t.Fatalf("forced coroutine set = %d, want 5", got)
	}
}

func TestUnwrappableComponentRejected(t *testing.T) {
	// A route split (NewRouteTee) declares Wrappable()=false; placing it in pull mode
	// (upstream of the pump) must fail composition (§3.3 switch rules).
	s := uthread.New()
	tee := pipes.NewRouteTee("route", 2, 4, typespec.Block, typespec.Block,
		func(it *item.Item) int { return 0 })
	_, err := core.Compose("unwrappable", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 1)),
		core.Comp(tee), // consumer-style in pull position -> needs glue -> refused
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(pipes.NewCollectSink("sink")),
	})
	if !errors.Is(err, core.ErrUnwrappable) {
		t.Fatalf("err = %v, want ErrUnwrappable", err)
	}
}

func TestPauseResume(t *testing.T) {
	// Pause after 5 items; a controller thread resumes; flow completes.
	src := pipes.NewCounterSource("src", 10)
	var seen int
	var pipeline *core.Pipeline
	sink := pipes.NewFuncSink("sink", func(ctx *core.Ctx, it *item.Item) error {
		seen++
		if seen == 5 {
			ctx.Broadcast(events.Event{Type: events.Pause})
			// Resume two (virtual) seconds later via a one-shot helper.
			sched := ctx.Scheduler()
			helper := sched.Spawn("resumer", uthread.PriorityNormal,
				func(t *uthread.Thread, m uthread.Message) uthread.Disposition {
					t.SleepFor(nsSecond * 2)
					pipeline.Resume()
					return uthread.Terminate
				})
			sched.Post(helper, uthread.Message{Kind: uthread.KindUserBase + 100})
		}
		return nil
	})
	s := uthread.New()
	p, err := core.Compose("pausable", s, nil, []core.Stage{
		core.Comp(src),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(sink),
	})
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	pipeline = p
	p.Start()
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if seen != 10 {
		t.Fatalf("sink saw %d items, want 10 (resume must continue the flow)", seen)
	}
}

const nsSecond = 1_000_000_000

func TestLocalEventToAdjacentComponent(t *testing.T) {
	// A sink informs its upstream neighbour via a local control event: the
	// §2.2 display -> resizer window-size example.
	var resizes []int
	resizer := pipes.NewFuncFilter("resizer", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		return it, nil
	})
	resizerWrapped := &eventRecorder{FuncFilter: resizer, events: &resizes}
	var sent bool
	sink := pipes.NewFuncSink("display", func(ctx *core.Ctx, it *item.Item) error {
		if !sent {
			sent = true
			ctx.EmitUpstream(events.Event{Type: events.Resize, Data: 720})
		}
		return nil
	})
	runPipeline(t, "localevent", []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 6)),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(resizerWrapped),
		core.Comp(sink),
	})
	if len(resizes) != 1 || resizes[0] != 720 {
		t.Fatalf("resizer events = %v, want [720]", resizes)
	}
}

// eventRecorder wraps a FuncFilter to capture resize events.
type eventRecorder struct {
	*pipes.FuncFilter
	events *[]int
}

func (r *eventRecorder) HandleEvent(_ *core.Ctx, ev events.Event) {
	if ev.Type == events.Resize {
		if v, ok := ev.Data.(int); ok {
			*r.events = append(*r.events, v)
		}
	}
}

func TestEventCapabilityCheck(t *testing.T) {
	// A component declaring it emits a local event type that nothing
	// handles must fail composition (§2.3).
	s := uthread.New()
	emitter := &capFilter{FuncFilter: pipes.NewFuncFilter("emitter",
		func(_ *core.Ctx, it *item.Item) (*item.Item, error) { return it, nil })}
	_, err := core.Compose("evcap", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 1)),
		core.Comp(emitter),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(pipes.NewCollectSink("sink")),
	})
	if !errors.Is(err, core.ErrEventCapability) {
		t.Fatalf("err = %v, want ErrEventCapability", err)
	}
	// The same pipeline composes when the check is skipped.
	if _, err := core.Compose("evcap2", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src2", 1)),
		core.Comp(&capFilter{FuncFilter: pipes.NewFuncFilter("emitter2",
			func(_ *core.Ctx, it *item.Item) (*item.Item, error) { return it, nil })}),
		core.Pmp(pipes.NewFreePump("pump2")),
		core.Comp(pipes.NewCollectSink("sink2")),
	}, core.SkipEventCapabilityCheck()); err != nil {
		t.Fatalf("skip check: %v", err)
	}
}

type capFilter struct{ *pipes.FuncFilter }

func (c *capFilter) SendsLocalEvents() []events.Type   { return []events.Type{events.FrameRelease} }
func (c *capFilter) HandlesLocalEvents() []events.Type { return nil }

func TestTypespecPropagationAndMismatch(t *testing.T) {
	s := uthread.New()
	src := pipes.NewGeneratorSource("src", typespec.New("video/frames"), 1,
		func(ctx *core.Ctx, seq int64) (*item.Item, error) { return item.New(seq, seq, ctx.Now()), nil })
	needsAudio := pipes.NewFuncFilter("audioOnly",
		func(_ *core.Ctx, it *item.Item) (*item.Item, error) { return it, nil }).
		WithInputSpec(typespec.New("audio/samples"))
	_, err := core.Compose("mismatch", s, nil, []core.Stage{
		core.Comp(src),
		core.Comp(needsAudio),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(pipes.NewCollectSink("sink")),
	})
	if !errors.Is(err, typespec.ErrIncompatible) {
		t.Fatalf("err = %v, want typespec.ErrIncompatible", err)
	}

	// Compatible pipeline: inspect the propagated spec.
	videoSink := pipes.NewCollectSink("sink")
	p, err := core.Compose("match", s, nil, []core.Stage{
		core.Comp(src),
		core.Comp(pipes.NewFuncFilter("dec", func(_ *core.Ctx, it *item.Item) (*item.Item, error) { return it, nil }).
			WithInputSpec(typespec.New("video/frames")).
			WithTransform(func(ts typespec.Typespec) typespec.Typespec {
				out := ts.Clone()
				out.ItemType = "video/raw"
				return out
			})),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(videoSink),
	})
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	if got := p.SpecAt(1).ItemType; got != "video/raw" {
		t.Errorf("spec after decoder = %q, want video/raw", got)
	}
	if got := p.SpecAt(0).ItemType; got != "video/frames" {
		t.Errorf("spec after source = %q, want video/frames", got)
	}
}

func TestNonBlockingBufferNilItems(t *testing.T) {
	// A clocked pump pulling from an empty non-blocking buffer receives
	// nil items and skips cycles (§2.3); once the producer fills the
	// buffer, items flow.
	src := pipes.NewCounterSource("src", 5)
	buf := pipes.NewBufferPolicy("buf", 8, typespec.Block, typespec.NonBlock)
	sink := pipes.NewCollectSink("sink")
	runPipeline(t, "nilpull", []core.Stage{
		core.Comp(src),
		core.Pmp(pipes.NewClockedPump("p1", 100)),
		core.Buf(buf),
		core.Pmp(pipes.NewClockedPump("p2", 1000)), // faster: will often find it empty
		core.Comp(sink),
	})
	if got := sink.Count(); got != 5 {
		t.Fatalf("sink received %d items, want 5", got)
	}
}

func TestPipelineErrorPropagation(t *testing.T) {
	wantErr := errors.New("decode explosion")
	bad := pipes.NewFuncFilter("bad", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		if it.Seq == 3 {
			return nil, wantErr
		}
		return it, nil
	})
	s := uthread.New()
	p, err := core.Compose("failing", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 10)),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(bad),
		core.Comp(pipes.NewCollectSink("sink")),
	})
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	p.Start()
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := p.Err(); !errors.Is(got, wantErr) {
		t.Fatalf("pipeline error = %v, want %v", got, wantErr)
	}
}

func TestCopyTeeBranches(t *testing.T) {
	// Trunk -> tee -> two branch pipelines; both receive every item.
	s := uthread.New()
	tee := pipes.NewCopyTee("tee", 2, 8, typespec.Block, typespec.Block)
	trunk, err := core.Compose("trunk", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 6)),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(tee),
	})
	if err != nil {
		t.Fatalf("compose trunk: %v", err)
	}
	sinks := make([]*pipes.CollectSink, 2)
	for i := range sinks {
		sinks[i] = pipes.NewCollectSink("sink")
		_, err := core.Compose("branch", s, trunk.Bus(), []core.Stage{
			core.Comp(tee.Out(i)),
			core.Pmp(pipes.NewFreePump("bp")),
			core.Comp(sinks[i]),
		})
		if err != nil {
			t.Fatalf("compose branch %d: %v", i, err)
		}
	}
	trunk.Start()
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, sink := range sinks {
		if got := sink.Count(); got != 6 {
			t.Errorf("branch %d received %d items, want 6", i, got)
		}
	}
}

func TestMergeTeeCombinesTrunks(t *testing.T) {
	s := uthread.New()
	merge := pipes.NewMergeTee("merge", 2, 8, typespec.Block, typespec.Block)
	bus := &events.Bus{}
	for i := 0; i < 2; i++ {
		_, err := core.Compose("trunk", s, bus, []core.Stage{
			core.Comp(pipes.NewCounterSource("src", 5)),
			core.Pmp(pipes.NewFreePump("pump")),
			core.Comp(merge.In(i)),
		})
		if err != nil {
			t.Fatalf("compose trunk %d: %v", i, err)
		}
	}
	sink := pipes.NewCollectSink("sink")
	_, err := core.Compose("down", s, bus, []core.Stage{
		core.Comp(merge.Out()),
		core.Pmp(pipes.NewFreePump("dp")),
		core.Comp(sink),
	})
	if err != nil {
		t.Fatalf("compose downstream: %v", err)
	}
	bus.Broadcast(events.Event{Type: events.Start})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := sink.Count(); got != 10 {
		t.Fatalf("merged sink received %d items, want 10", got)
	}
}

func TestDropFilterWithLevel(t *testing.T) {
	drop := pipes.NewDropFilter("drop", func(it *item.Item, level int) bool {
		return level > 0 && it.Seq%2 == 0 // drop even sequence numbers
	})
	drop.SetLevel(1)
	sink := pipes.NewCollectSink("sink")
	runPipeline(t, "dropping", []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 10)),
		core.Comp(drop),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(sink),
	})
	if got := sink.Count(); got != 5 {
		t.Fatalf("sink received %d items, want 5 (odd seqs only)", got)
	}
	if drop.Dropped() != 5 || drop.Passed() != 5 {
		t.Errorf("drop stats = %d/%d, want 5/5", drop.Dropped(), drop.Passed())
	}
}

func TestPullSwitchSharedUpstream(t *testing.T) {
	// Activity-routing switch (§3.3): pulls on either out-port draw from
	// the shared upstream; together the branches see every item once.
	s := uthread.New()
	buf := pipes.NewBuffer("shared", 16)
	// Fill the buffer via a trunk pipeline.
	trunk, err := core.Compose("trunk", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 10)),
		core.Pmp(pipes.NewFreePump("tp")),
		core.Comp(pipes.NewFuncSink("fill", func(ctx *core.Ctx, it *item.Item) error {
			return buf.Insert(ctx, it)
		})),
	})
	if err != nil {
		t.Fatalf("compose trunk: %v", err)
	}
	sw := pipes.NewPullSwitch("sw", func(ctx *core.Ctx) (*item.Item, error) {
		return buf.Remove(ctx)
	})
	sinks := make([]*pipes.CollectSink, 2)
	for i := range sinks {
		sinks[i] = pipes.NewCollectSink("sink")
		_, err := core.Compose("branch", s, trunk.Bus(), []core.Stage{
			core.Comp(sw.Out(i)),
			core.Pmp(pipes.NewFreePump("bp")),
			core.Comp(sinks[i]),
		})
		if err != nil {
			t.Fatalf("compose branch %d: %v", i, err)
		}
	}
	// Close the shared buffer once the trunk drains it in.
	go func() {
		<-trunk.Done()
		buf.CloseUpstream()
	}()
	trunk.Start()
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	total := sinks[0].Count() + sinks[1].Count()
	if total != 10 {
		t.Fatalf("branches received %d items total, want 10", total)
	}
}
