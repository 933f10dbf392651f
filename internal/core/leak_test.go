package core_test

import (
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/item"
	"infopipes/internal/leakcheck"
	"infopipes/internal/pipes"
	"infopipes/internal/uthread"
)

// TestNoGoroutineLeaks verifies the guide rule that every spawned
// goroutine is joined: after Run returns, the process goroutine count must
// return to its baseline, across EOS, stop and coroutine-heavy shutdowns.
func TestNoGoroutineLeaks(t *testing.T) {
	leakcheck.Check(t)
	for round := 0; round < 20; round++ {
		sched := uthread.New()
		sink := pipes.NewCollectSink("sink")
		p, err := core.Compose("leakcheck", sched, nil, []core.Stage{
			core.Comp(pipes.NewCounterSource("src", 10)),
			core.Comp(pipes.NewDefragActive("active", nil)), // coroutine
			core.Pmp(pipes.NewFreePump("pump")),
			core.Comp(pipes.NewFragProducer("wrapped", nil)), // coroutine
			core.Comp(sink),
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		if err := sched.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNoGoroutineLeaksAfterStop covers the abrupt-shutdown path: a stopped
// infinite pipeline must also unwind every thread goroutine.
func TestNoGoroutineLeaksAfterStop(t *testing.T) {
	leakcheck.Check(t)
	for round := 0; round < 20; round++ {
		sched := uthread.New()
		var n int
		var pl *core.Pipeline
		sink := pipes.NewFuncSink("sink", func(ctx *core.Ctx, it *item.Item) error {
			n++
			if n == 5 {
				pl.Stop()
			}
			return nil
		})
		p, err := core.Compose("stopleak", sched, nil, []core.Stage{
			core.Comp(pipes.NewCounterSource("src", 0)), // unbounded
			core.Comp(pipes.NewDefragActive("active", nil)),
			core.Pmp(pipes.NewFreePump("pump")),
			core.Comp(sink),
		})
		if err != nil {
			t.Fatal(err)
		}
		pl = p
		n = 0
		p.Start()
		if err := sched.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
