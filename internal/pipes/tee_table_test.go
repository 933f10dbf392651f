package pipes_test

import (
	"slices"
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// This file is the tee behaviour table: one row per split choice and per
// merge order, each driven through the same surface, so a change to the
// shared port table or the shared merge shows on every row at once.

// onThread runs fn once on a scheduler thread (buffer operations need a
// live Ctx).
func onThread(t *testing.T, fn func(ctx *core.Ctx)) {
	t.Helper()
	s := uthread.New()
	p, err := core.Compose("table", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 1)),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(pipes.NewFuncSink("drive", func(ctx *core.Ctx, it *item.Item) error {
			fn(ctx)
			return nil
		})),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// drain removes everything b holds.
func drain(t *testing.T, ctx *core.Ctx, b *pipes.BoundedBuffer) []*item.Item {
	t.Helper()
	var got []*item.Item
	for b.Len() > 0 {
		it, err := b.Remove(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, it)
	}
	return got
}

var stop = events.Event{Type: events.Stop}

func TestTeeTableSplit(t *testing.T) {
	rows := []struct {
		name string
		mk   func() *pipes.Split
		// seqs[i] is what port i of a fresh 3-port split holds after items
		// Seq 1..6; original is the port that receives the pushed item
		// itself (-1: every port does, there are no clones).
		seqs     [3][]int64
		original int
		// afterDetach is what port 0 holds after ports 1 and 2 detach and
		// items Seq 1..3 arrive: a detached port drops what it would get.
		afterDetach []int64
		wrappable   bool
		spread      bool
	}{
		{
			name: "copy",
			mk:   func() *pipes.Split { return pipes.NewCopyTee("t", 3, 8, typespec.Block, typespec.Block) },
			seqs: [3][]int64{{1, 2, 3, 4, 5, 6}, {1, 2, 3, 4, 5, 6}, {1, 2, 3, 4, 5, 6}}, original: 2,
			afterDetach: []int64{1, 2, 3}, wrappable: true,
		},
		{
			// Seq%4 == 3 is out of range: dropped.
			name: "route",
			mk: func() *pipes.Split {
				return pipes.NewRouteTee("t", 3, 8, typespec.Block, typespec.Block,
					func(it *item.Item) int { return int(it.Seq % 4) })
			},
			seqs: [3][]int64{{4}, {1, 5}, {2, 6}}, original: -1,
			afterDetach: nil,
		},
		{
			name: "spread",
			mk:   func() *pipes.Split { return pipes.NewElasticTee("t", 3, 8, typespec.Block, typespec.Block) },
			seqs: [3][]int64{{1, 4}, {2, 5}, {3, 6}}, original: -1,
			afterDetach: []int64{1}, spread: true,
		},
	}
	for _, r := range rows {
		t.Run(r.name+"/push", func(t *testing.T) {
			sp := r.mk()
			if sp.Wrappable() != r.wrappable {
				t.Errorf("Wrappable = %v, want %v", sp.Wrappable(), r.wrappable)
			}
			onThread(t, func(ctx *core.Ctx) {
				pushed := map[int64]*item.Item{}
				for seq := int64(1); seq <= 6; seq++ {
					it := item.New(seq, seq, ctx.Now())
					pushed[seq] = it
					if err := sp.Push(ctx, it); err != nil {
						t.Fatal(err)
					}
				}
				for port := 0; port < 3; port++ {
					var seqs []int64
					for _, it := range drain(t, ctx, sp.OutBuffer(port)) {
						seqs = append(seqs, it.Seq)
						if same := it == pushed[it.Seq]; same != (r.original < 0 || port == r.original) {
							t.Errorf("port %d seq %d: original=%v", port, it.Seq, same)
						}
					}
					if !slices.Equal(seqs, r.seqs[port]) {
						t.Errorf("port %d got %v, want %v", port, seqs, r.seqs[port])
					}
				}
			})
		})
		t.Run(r.name+"/add-after-eos", func(t *testing.T) {
			sp := r.mk()
			if got := sp.AddOut(); got != 3 || sp.Outs() != 4 || sp.OutBuffer(3).Closed() {
				t.Fatalf("AddOut = %d, outs %d, closed %v", got, sp.Outs(), sp.OutBuffer(3).Closed())
			}
			sp.HandleEOS(nil)
			port := sp.AddOut()
			if port != 4 || !sp.OutBuffer(port).Closed() {
				t.Fatalf("port %d added after EOS: closed=%v, want born closed", port, sp.OutBuffer(port).Closed())
			}
		})
		t.Run(r.name+"/detach", func(t *testing.T) {
			sp := r.mk()
			for _, bad := range []int{-1, 3} {
				if sp.DetachOut(bad) == nil {
					t.Errorf("DetachOut(%d) accepted an unknown port", bad)
				}
			}
			if err := sp.DetachOut(1); err != nil || !sp.OutBuffer(1).Closed() {
				t.Fatalf("DetachOut(1) = %v, closed=%v", err, sp.OutBuffer(1).Closed())
			}
			if sp.DetachOut(1) == nil {
				t.Error("DetachOut(1) twice accepted")
			}
			if err := sp.DetachOut(2); err != nil {
				t.Fatal(err)
			}
			if sp.DetachOut(0) == nil {
				t.Error("DetachOut detached the last live port")
			}
			if sp.OutBuffer(0).Closed() {
				t.Error("last live port closed by a refused detach")
			}
			onThread(t, func(ctx *core.Ctx) {
				for seq := int64(1); seq <= 3; seq++ {
					if err := sp.Push(ctx, item.New(seq, seq, ctx.Now())); err != nil {
						t.Fatal(err)
					}
				}
				var seqs []int64
				for _, it := range drain(t, ctx, sp.OutBuffer(0)) {
					seqs = append(seqs, it.Seq)
				}
				if !slices.Equal(seqs, r.afterDetach) {
					t.Errorf("port 0 after detaching 1 and 2 got %v, want %v", seqs, r.afterDetach)
				}
				for _, port := range []int{1, 2} {
					if n := sp.OutBuffer(port).Len(); n != 0 {
						t.Errorf("detached port %d holds %d items", port, n)
					}
				}
			})
		})
		t.Run(r.name+"/stop", func(t *testing.T) {
			sp := r.mk()
			sp.HandleEvent(nil, stop)
			for i := 0; i < sp.Outs(); i++ {
				if !sp.OutBuffer(i).Closed() {
					t.Errorf("port %d open after Stop", i)
				}
			}
		})
		if r.spread {
			t.Run(r.name+"/set-active", func(t *testing.T) {
				sp := r.mk()
				for _, c := range []struct{ set, want int }{{0, 1}, {2, 2}, {99, 3}} {
					if got := sp.SetActive(c.set); got != c.want || sp.Active() != c.want {
						t.Errorf("SetActive(%d) = %d, Active %d; want %d", c.set, got, sp.Active(), c.want)
					}
				}
			})
		}
	}
}

func TestTeeTableMerge(t *testing.T) {
	rows := []struct {
		name string
		mk   func() *pipes.Merge
		// origin is what an item of Origin 5 carries out of in-port 1.
		origin int64
	}{
		{"arrival", func() *pipes.Merge { return pipes.NewMergeTee("m", 2, 8, typespec.Block, typespec.Block) }, 5*3 + 2},
		{"seq", func() *pipes.Merge { return pipes.NewOrderedMerge("m", 2, 8, typespec.Block, typespec.Block, nil) }, 5},
	}
	in := (*pipes.Merge).In
	for _, r := range rows {
		t.Run(r.name+"/origin", func(t *testing.T) {
			m := r.mk()
			onThread(t, func(ctx *core.Ctx) {
				it := item.New(1, 1, ctx.Now())
				it.Origin = 5
				if err := in(m, 1).Push(ctx, it); err != nil {
					t.Fatal(err)
				}
				got := drain(t, ctx, m.OutBuffer())
				if len(got) != 1 || got[0].Origin != r.origin {
					t.Fatalf("merged %d items, origin %d; want 1 item of origin %d", len(got), got[0].Origin, r.origin)
				}
			})
		})
		t.Run(r.name+"/eos", func(t *testing.T) {
			m := r.mk()
			onThread(t, func(ctx *core.Ctx) {
				in(m, 0).HandleEOS(ctx)
				in(m, 0).HandleEOS(ctx)
				if m.OutBuffer().Closed() {
					t.Fatal("one input ending twice closed the merge")
				}
				in(m, 1).HandleEvent(nil, stop)
				if !m.OutBuffer().Closed() {
					t.Fatal("merge open after its last input ended")
				}
			})
		})
	}
}
