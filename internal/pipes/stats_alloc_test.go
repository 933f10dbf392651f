package pipes_test

import (
	"runtime"
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
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
