package pipes_test

import (
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
)

// TestTeeBufferAcrossShards reads a tee's port buffer from a pipeline on
// another shard than the trunk that fills it: each end of the buffer parks
// and is woken on its own scheduler, so no link or relay is needed between
// them.  A 2-slot port keeps both ends blocking all the time; a lost or
// misdirected wake hangs the stream, which the deadline turns into a failure.
func TestTeeBufferAcrossShards(t *testing.T) {
	const items = 2000
	grp := shard.NewGroup(shard.WithShardCount(2))
	tee := pipes.NewCopyTee("tee", 1, 2, typespec.Block, typespec.Block)
	sink := pipes.NewCollectSink("sink")
	trunk, err := core.Compose("trunk", grp.Scheduler(0), nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", items)),
		core.Pmp(pipes.NewFreePump("p0")),
		core.Comp(tee),
	})
	if err != nil {
		t.Fatalf("compose trunk: %v", err)
	}
	branch, err := core.Compose("branch", grp.Scheduler(1), nil, []core.Stage{
		core.Comp(tee.OutPort(0)),
		core.Pmp(pipes.NewFreePump("p1")),
		core.Comp(sink),
	})
	if err != nil {
		t.Fatalf("compose branch: %v", err)
	}
	trunk.Start()
	branch.Start()
	done := make(chan error, 1)
	go func() { done <- grp.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		grp.Stop()
		<-done
		t.Fatalf("stream stalled after %d of %d items (a wake was lost)", sink.Count(), items)
	}
	for _, p := range []*core.Pipeline{trunk, branch} {
		if err := p.Err(); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
	if sink.Count() != items {
		t.Fatalf("sink received %d items, want %d", sink.Count(), items)
	}
	for i, it := range sink.Items() {
		if it.Seq != int64(i+1) {
			t.Fatalf("item %d has seq %d, want %d", i, it.Seq, i+1)
		}
	}
}
