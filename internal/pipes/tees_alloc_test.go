package pipes_test

import (
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// TestCopyTeeFanOutDoesNotAllocate is the regression guard for the pooled
// item freelist and copy-on-write attrs: multicasting a nil-attrs item
// through a copy split must not allocate per fan-out — the clone header comes
// from the freelist and there is no attribute map to copy.  The measurement
// runs on a scheduler thread because buffer operations need a live Ctx.
func TestCopyTeeFanOutDoesNotAllocate(t *testing.T) {
	s := uthread.New()
	tee := pipes.NewCopyTee("tee", 2, 64, typespec.Block, typespec.Block)
	var perFanOut float64
	measured := false
	sink := pipes.NewFuncSink("measure", func(ctx *core.Ctx, it *item.Item) error {
		if measured {
			it.Recycle()
			return nil
		}
		measured = true
		it.Recycle()
		perFanOut = testing.AllocsPerRun(500, func() {
			in := item.New(int64(7), 7, ctx.Now())
			if err := tee.Push(ctx, in); err != nil {
				t.Error(err)
			}
			for i := 0; i < 2; i++ {
				out, err := tee.OutBuffer(i).Remove(ctx)
				if err != nil {
					t.Error(err)
				}
				out.Recycle()
			}
		})
		return nil
	})
	p, err := core.Compose("alloc-probe", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 1)),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !measured {
		t.Fatal("measurement never ran")
	}
	if perFanOut >= 1 {
		t.Errorf("copy split fan-out allocates %v/op for nil-attrs items, want 0", perFanOut)
	}
}

// TestCopyTeeSharedAttrsStayIsolated pins the copy-on-write contract at the
// tee level: branches see the attribute values present at multicast time,
// and a branch mutating through SetAttr never leaks into a sibling.
func TestCopyTeeSharedAttrsStayIsolated(t *testing.T) {
	s := uthread.New()
	tee := pipes.NewCopyTee("tee", 2, 8, typespec.Block, typespec.Block)
	var got [2]string
	sink := pipes.NewFuncSink("drive", func(ctx *core.Ctx, it *item.Item) error {
		in := item.New("payload", 1, ctx.Now()).WithAttr("tag", "orig")
		if err := tee.Push(ctx, in); err != nil {
			return err
		}
		a, err := tee.OutBuffer(0).Remove(ctx)
		if err != nil {
			return err
		}
		b, err := tee.OutBuffer(1).Remove(ctx)
		if err != nil {
			return err
		}
		a.SetAttr("tag", "branch0")
		got[0] = a.AttrString("tag")
		got[1] = b.AttrString("tag")
		it.Recycle()
		return nil
	})
	p, err := core.Compose("cow-probe", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 1)),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != "branch0" || got[1] != "orig" {
		t.Errorf("branch attrs = %q, %q; want branch0, orig", got[0], got[1])
	}
}
