package pipes_test

import (
	"runtime"
	"sync"
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// mallocsOf runs f and reports the process-wide malloc count it caused.
func mallocsOf(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestPipelineHotPathAllocSteadyState is the end-to-end guard for the pump
// telemetry (PipeStats counters): a pooled counter stream through a free
// pump and a recycling sink must allocate nothing per item in steady state
// — the counters are plain atomics and the sampled busy-time reads are
// stack-only.  Measured as the per-item slope between two run lengths, so
// the constant composition/thread-spawn cost cancels out.
func TestPipelineHotPathAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under -race")
	}
	run := func(items int64) uint64 {
		sched := uthread.New()
		sink := pipes.NewFuncSink("sink", func(_ *core.Ctx, it *item.Item) error {
			it.Recycle()
			return nil
		})
		// nil payload: a boxed int64 payload would cost its own allocation
		// per item and mask what this guard measures.
		src := pipes.NewGeneratorSource("src", typespec.New("test/null"), items,
			func(ctx *core.Ctx, seq int64) (*item.Item, error) {
				return item.New(nil, seq, ctx.Now()), nil
			})
		p, err := core.Compose("alloc", sched, nil, []core.Stage{
			core.Comp(src),
			core.Pmp(pipes.NewFreePump("pump")),
			core.Comp(sink),
		})
		if err != nil {
			t.Fatal(err)
		}
		mallocs := mallocsOf(func() {
			p.Start()
			if err := sched.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if st := p.Stats(); st.Items != items {
			t.Fatalf("pipeline counted %d items, want %d", st.Items, items)
		}
		return mallocs
	}
	run(1_000) // warm the item pool and runtime
	short, long := run(2_000), run(22_000)
	perItem := float64(int64(long)-int64(short)) / 20_000
	if perItem > 0.1 {
		t.Fatalf("hot path allocates %.4f objects per item (pump counters must add zero)", perItem)
	}
}

// passRelay is an active-style component (§3.3): it has its own loop, so the
// planner gives it a coroutine and every item crosses a hop to reach the
// pump.
type passRelay struct{ core.Base }

func (*passRelay) Style() core.Style { return core.StyleActive }

func (*passRelay) Run(ctx *core.Ctx) error {
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

// passProducer is a producer-style identity: after a pump it is in push mode,
// so the planner wraps it in a coroutine (Fig 7a) that the pump's push
// resumes.
type passProducer struct{ core.Base }

func (*passProducer) Style() core.Style { return core.StyleProducer }

func (*passProducer) Pull(ctx *core.Ctx) (*item.Item, error) { return ctx.PullUpstream() }

// TestComposedChainAllocSteadyState is the flow-level guard: the components
// were each allocation-free on their own while the composed chain allocated
// eight times per item, all of it in the seams — a closure per selective
// receive, a boxed payload per coroutine handoff, a boxed token per buffer
// wake, a buffer waiter list that gave its capacity away.  The chain crosses
// every seam once — two direct calls, a coroutine hop in pull mode, a pump, a
// buffer handoff between two pumps, a coroutine hop in push mode — on the
// real clock, with a pointer payload so that nothing the test itself does
// allocates.  Measured as the per-item
// slope between two run lengths, so composition and thread start cancel out.
func TestComposedChainAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under -race")
	}
	type word struct{ v int64 }
	words := sync.Pool{New: func() any { return new(word) }}
	run := func(items int64) uint64 {
		sched := uthread.New(uthread.WithClock(vclock.Real{}))
		var sum int64
		stages := []core.Stage{
			core.Comp(pipes.NewGeneratorSource("src", typespec.New("test/word"), items,
				func(ctx *core.Ctx, seq int64) (*item.Item, error) {
					w := words.Get().(*word)
					w.v = seq
					return item.New(w, seq, ctx.Now()), nil
				})),
		}
		for _, name := range []string{"f0", "f1"} {
			stages = append(stages, core.Comp(pipes.NewFuncFilter(name,
				func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
					it.Payload.(*word).v++
					return it, nil
				})))
		}
		stages = append(stages,
			core.Comp(&passRelay{core.Base{CompName: "relay"}}),
			core.Pmp(pipes.NewFreePump("pump")),
			core.Buf(pipes.NewBuffer("buf", 64)),
			core.Pmp(pipes.NewFreePump("pump2")),
			core.Comp(&passProducer{core.Base{CompName: "wrapped"}}),
			core.Comp(pipes.NewFuncSink("sink", func(_ *core.Ctx, it *item.Item) error {
				w := it.Payload.(*word)
				sum += w.v - it.Seq
				words.Put(w)
				it.Recycle()
				return nil
			})))
		p, err := core.Compose("chain", sched, nil, stages)
		if err != nil {
			t.Fatal(err)
		}
		mallocs := mallocsOf(func() {
			p.Start()
			if err := sched.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if sum != 2*items {
			t.Fatalf("the sink saw the filters run %d times over %d items, want twice each", sum, items)
		}
		return mallocs
	}
	run(1_000) // warm the pools and the runtime
	short, long := run(2_000), run(22_000)
	perItem := float64(int64(long)-int64(short)) / 20_000
	t.Logf("%.4f mallocs per item", perItem)
	if perItem > 0.01 {
		t.Fatalf("the composed chain allocates %.4f objects per item, want none", perItem)
	}
}
