package core_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/item"
	"infopipes/internal/leakcheck"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
	"infopipes/internal/uthread"
)

// A section's coroutine set runs inside the pump's one thread: each
// coroutine is resumed directly by its neighbour nearer the pump.  These
// tests pin the control flow of the paper's figures, the shutdown paths
// (a stop, a scheduler halt) and the places a coroutine may be made.

// bracket is a passive consumer that records each push it hands on.
type bracket struct {
	core.Base
	trace *[]string
}

func (*bracket) Style() core.Style { return core.StyleConsumer }

func (b *bracket) Push(ctx *core.Ctx, it *item.Item) error {
	*b.trace = append(*b.trace, "put-begin")
	err := ctx.PushDownstream(it)
	*b.trace = append(*b.trace, "put-end")
	return err
}

// watchedRelay is an active relay that records each item it gets and the
// error that ends its Get or its Put.
type watchedRelay struct {
	core.Base
	trace          *[]string
	getErr, putErr error
}

func (*watchedRelay) Style() core.Style { return core.StyleActive }

func (r *watchedRelay) Run(ctx *core.Ctx) error {
	for {
		it, err := ctx.PullUpstream()
		if err != nil {
			r.getErr = err
			return err
		}
		if it == nil {
			continue
		}
		if r.trace != nil {
			*r.trace = append(*r.trace, "got")
		}
		if err := ctx.PushDownstream(it); err != nil {
			r.putErr = err
			return err
		}
	}
}

// TestCoroutineSetHandoffPattern reproduces Fig 5's control flow: a put into
// a fresh coroutine starts its main, and the putter is released by the
// coroutine's next Get with nothing at hand.
func TestCoroutineSetHandoffPattern(t *testing.T) {
	var trace []string
	p := runPipeline(t, "fig5", []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 3)),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(&bracket{Base: core.Base{CompName: "putter"}, trace: &trace}),
		core.Comp(&watchedRelay{Base: core.Base{CompName: "getter"}, trace: &trace}),
		core.Comp(pipes.NewCollectSink("sink")),
	})
	if pl, _ := p.Placement("getter"); pl.Direct {
		t.Fatal("the active getter was placed direct")
	}
	want := "put-begin got put-end put-begin got put-end put-begin got put-end"
	if got := strings.Join(trace, " "); got != want {
		t.Fatalf("trace = %s\nwant    %s", got, want)
	}
}

// activeSource is an active source that records when its main starts.
type activeSource struct {
	core.Base
	trace *[]string
	n     int
}

func (*activeSource) Style() core.Style { return core.StyleActive }

func (s *activeSource) Run(ctx *core.Ctx) error {
	*s.trace = append(*s.trace, "main")
	for i := 0; i < s.n; i++ {
		if err := ctx.PushDownstream(item.New(int64(10+i), int64(i+1), ctx.Now())); err != nil {
			return err
		}
	}
	return nil // an active component finishing ends its stream
}

// getProbe is a passive producer that records each Get it passes upstream.
type getProbe struct {
	core.Base
	trace *[]string
}

func (*getProbe) Style() core.Style { return core.StyleProducer }

func (g *getProbe) Pull(ctx *core.Ctx) (*item.Item, error) {
	*g.trace = append(*g.trace, "get")
	it, err := ctx.PullUpstream()
	if err == nil {
		*g.trace = append(*g.trace, "got")
	}
	return it, err
}

// TestCoroutineSetPullModeStartsProducer: in pull mode (Fig 6b) the first
// Get starts the producer coroutine's main function.
func TestCoroutineSetPullModeStartsProducer(t *testing.T) {
	var trace []string
	sink := pipes.NewCollectSink("sink")
	runPipeline(t, "fig6b", []core.Stage{
		core.Comp(&activeSource{Base: core.Base{CompName: "producer"}, trace: &trace, n: 3}),
		core.Comp(&getProbe{Base: core.Base{CompName: "probe"}, trace: &trace}),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(sink),
	})
	want := "get main got get got get got get"
	if got := strings.Join(trace, " "); got != want {
		t.Fatalf("trace = %s\nwant    %s", got, want)
	}
	var payloads []int64
	for _, it := range sink.Items() {
		payloads = append(payloads, it.Payload.(int64))
	}
	if !slices.Equal(payloads, []int64{10, 11, 12}) {
		t.Fatalf("sink got %v, want [10 11 12]", payloads)
	}
}

// TestCoroutineSetStopWhileSuspended: a stop finds one coroutine suspended
// in its Put (upstream of the pump, the item handed over) and one in its Get
// (downstream, waiting for the next); each must see ErrStopped, and the
// pipeline must end cleanly.
func TestCoroutineSetStopWhileSuspended(t *testing.T) {
	up := &watchedRelay{Base: core.Base{CompName: "up"}}
	down := &watchedRelay{Base: core.Base{CompName: "down"}}
	var n int
	sink := pipes.NewFuncSink("sink", func(ctx *core.Ctx, _ *item.Item) error {
		if n++; n == 3 {
			ctx.Broadcast(events.Event{Type: events.Stop})
		}
		return nil
	})
	runPipeline(t, "stopped", []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 0)),
		core.Comp(up),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(down),
		core.Comp(sink),
	})
	if n != 3 {
		t.Errorf("sink saw %d items, want 3", n)
	}
	if !errors.Is(up.putErr, core.ErrStopped) || up.getErr != nil {
		t.Errorf("upstream coroutine: Put %v, Get %v; want ErrStopped from its suspended Put", up.putErr, up.getErr)
	}
	if !errors.Is(down.getErr, core.ErrStopped) || down.putErr != nil {
		t.Errorf("downstream coroutine: Get %v, Put %v; want ErrStopped from its suspended Get", down.getErr, down.putErr)
	}
}

// TestSchedulerHaltUnwindsEveryCoroutine: a scheduler Stop mid-stream finds
// the second section's thread parked in a buffer wait inside its pull-side
// coroutine, and its push-side coroutine suspended in a Get, off the chain
// the halt unwinds.  Neither may outlive Run.
func TestSchedulerHaltUnwindsEveryCoroutine(t *testing.T) {
	leakcheck.Check(t)
	for round := 0; round < 20; round++ {
		sched := uthread.New()
		sink := pipes.NewCollectSink("sink")
		p, err := core.Compose("halt", sched, nil, []core.Stage{
			core.Comp(pipes.NewCounterSource("src", 0)),
			core.Pmp(pipes.NewClockedPump("clocked", 100)),
			core.Buf(pipes.NewBuffer("buf", 4)),
			core.Comp(identityComponent("parked", core.StyleActive)),
			core.Pmp(pipes.NewFreePump("free")),
			core.Comp(identityComponent("wrapped", core.StyleProducer)),
			core.Comp(sink),
		})
		if err != nil {
			t.Fatal(err)
		}
		controller := sched.Spawn("controller", uthread.PriorityNormal, func(th *uthread.Thread, _ uthread.Message) uthread.Disposition {
			th.SleepFor(55 * time.Millisecond)
			sched.Stop()
			return uthread.Terminate
		})
		sched.Post(controller, uthread.Message{Kind: uthread.KindUserBase})
		p.Start()
		if err := sched.Run(); err != nil {
			t.Fatal(err)
		}
		if n := sink.Count(); n < 2 {
			t.Fatalf("round %d: the halt came after %d items, want it mid-stream", round, n)
		}
	}
}

// TestCoroutinesOnPinnedShards: a pinned shard's Run is locked to its OS
// thread, and the runtime refuses, fatally, to resume a coroutine whose
// maker's lock state differs.  Each coroutine must be made on the section's
// thread at its first resume, never in Compose.
func TestCoroutinesOnPinnedShards(t *testing.T) {
	leakcheck.Check(t)
	const n = 200
	g := shard.NewGroup(shard.WithShardCount(2), shard.WithPinnedShards(), shard.WithRealClock())
	var sinks []*pipes.CollectSink
	for i := 0; i < 2; i++ {
		sink := pipes.NewCollectSink("sink")
		p, err := g.Compose(fmt.Sprintf("pinned%d", i), nil, []core.Stage{
			core.Comp(pipes.NewCounterSource("src", n)),
			core.Comp(identityComponent("up", core.StyleActive)),
			core.Pmp(pipes.NewFreePump("pump")),
			core.Comp(identityComponent("down", core.StyleProducer)),
			core.Comp(sink),
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		sinks = append(sinks, sink)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	for i, sink := range sinks {
		if got := sink.Count(); got != n || !sink.SawEOS() {
			t.Errorf("shard %d: sink got %d items (EOS %v), want %d and EOS", i, got, sink.SawEOS(), n)
		}
	}
}

// parker is an active relay that records the events it handles while it is
// inside a Get.
type parker struct {
	core.Base
	pulling bool
	seen    []events.Type
}

func (*parker) Style() core.Style { return core.StyleActive }

func (p *parker) Run(ctx *core.Ctx) error {
	for {
		p.pulling = true
		it, err := ctx.PullUpstream()
		p.pulling = false
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
}

func (p *parker) HandleEvent(_ *core.Ctx, ev events.Event) {
	if p.pulling {
		p.seen = append(p.seen, ev.Type)
	}
}

// TestEventsReachACoroutineParkedInABuffer (§3.2): a coroutine parked in a
// buffer wait parks the section's thread with it, and still receives an
// event targeted at it, and a Pause and a Resume.
func TestEventsReachACoroutineParkedInABuffer(t *testing.T) {
	sched := uthread.New()
	park := &parker{Base: core.Base{CompName: "parker"}}
	sink := pipes.NewCollectSink("sink")
	p, err := core.Compose("parked", sched, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 5)),
		core.Pmp(pipes.NewClockedPump("slow", 10)),
		core.Buf(pipes.NewBuffer("buf", 4)),
		core.Comp(park),
		core.Pmp(pipes.NewFreePump("fast")),
		core.Comp(sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	helper := sched.Spawn("helper", uthread.PriorityNormal, func(th *uthread.Thread, _ uthread.Message) uthread.Disposition {
		th.SleepFor(150 * time.Millisecond) // between two items of the slow pump
		p.Bus().Broadcast(events.Event{Type: events.Resize, Target: "parker"})
		p.Pause()
		th.SleepFor(10 * time.Millisecond)
		p.Resume()
		return uthread.Terminate
	})
	sched.Post(helper, uthread.Message{Kind: uthread.KindUserBase})
	p.Start()
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []events.Type{events.Resize, events.Pause, events.Resume}; !slices.Equal(park.seen, want) {
		t.Errorf("events handled while parked: %v, want %v", park.seen, want)
	}
	if sink.Count() != 5 {
		t.Errorf("sink got %d items, want 5", sink.Count())
	}
}
