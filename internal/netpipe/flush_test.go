package netpipe_test

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/item"
	"infopipes/internal/netpipe"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// quietSource emits its counter's items and then, instead of ending the
// stream, parks its thread until the pipeline stops: a stream that goes
// quiet with no EOS, so nothing but the park itself can write what the
// lane's sink staged.
type quietSource struct{ *pipes.GeneratorSource }

func (s quietSource) Pull(ctx *core.Ctx) (*item.Item, error) {
	it, err := s.GeneratorSource.Pull(ctx)
	if !errors.Is(err, core.ErrEOS) {
		return it, err
	}
	ctx.Thread().SleepUntilOr(ctx.Now().Add(time.Hour), ctx.Stopping)
	return nil, core.ErrStopped
}

// TestStagedFramesFlushBeforeLinkPark: a sending pump that pulls from a
// shard link parks on it once the link runs dry.  Five items (less than a
// batch) then silence: the frames its sink staged must go out before the
// thread parks, or they sit in the transmit buffer until the next arrival.
func TestStagedFramesFlushBeforeLinkPark(t *testing.T) {
	const n = 5
	txS := uthread.New(uthread.WithClock(vclock.Real{}))
	rxS := uthread.New(uthread.WithClock(vclock.Real{}))
	rx, addr, err := netpipe.NewTCPListenerLink("127.0.0.1:0", rxS, "rx", 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := netpipe.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	tx := netpipe.NewTCPSenderLink(conn)
	feed := shard.NewLink("feed", txS, 16)
	t.Cleanup(func() {
		txS.Stop()
		rxS.Stop()
		feed.Close()
		tx.Close()
		rx.Close()
	})
	src, err := core.Compose("src", txS, nil, []core.Stage{
		core.Comp(quietSource{pipes.NewCounterSource("src", n)}),
		core.Pmp(pipes.NewFreePump("pa")),
		core.Comp(feed.NewSink("feed/sink")),
	})
	if err != nil {
		t.Fatal(err)
	}
	send, err := core.Compose("send", txS, nil, append([]core.Stage{
		core.Comp(feed.NewSource("feed/source")),
		core.Pmp(pipes.NewFreePump("pb")),
	}, tx.SenderStages("lane")...))
	if err != nil {
		t.Fatal(err)
	}
	sink := pipes.NewCollectSink("sink")
	cons, err := core.Compose("cons", rxS, nil, append(rx.ReceiverStages("lane"),
		core.Pmp(pipes.NewFreePump("out")), core.Comp(sink)))
	if err != nil {
		t.Fatal(err)
	}
	txS.RunBackground()
	rxS.RunBackground()
	cons.Start()
	send.Start()
	src.Start()
	poll(t, 5*time.Second, func() bool { return sink.Count() == n }, "every item across the lane with the sender idle")
}

// TestDurableJournalFullThenQuiet fills a durable sender's journal (the
// consumer starts late, so no ack comes) and then lets the stream go quiet
// a few items past the limit, with no EOS: the sender parks on the full
// journal and later on its idle source, and neither park may strand a
// staged frame.  Every item must arrive.
func TestDurableJournalFullThenQuiet(t *testing.T) {
	const n = netpipe.JournalLimit + 5
	txS := uthread.New(uthread.WithClock(vclock.Real{}))
	rxS := uthread.New(uthread.WithClock(vclock.Real{}))
	rx, addr, err := netpipe.NewDurableTCPListenerLink("127.0.0.1:0", rxS, "rx", 0, netpipe.DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := netpipe.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	tx := netpipe.NewDurableTCPSenderLink(conn, netpipe.DurableConfig{})
	t.Cleanup(func() {
		txS.Stop()
		rxS.Stop()
		tx.Close()
		rx.Close()
	})
	prod, err := core.Compose("prod", txS, nil, []core.Stage{
		core.Comp(quietSource{pipes.NewCounterSource("src", n)}),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(netpipe.NewMarshalFilter("marshal", netpipe.NewStreamingBinaryMarshaller())),
		core.Comp(tx.NewSink("netsink")),
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := pipes.NewCollectSink("sink")
	cons, err := core.Compose("cons", rxS, nil, append(rx.ReceiverStages("lane"),
		core.Pmp(pipes.NewFreePump("out")), core.Comp(sink)))
	if err != nil {
		t.Fatal(err)
	}
	txS.RunBackground()
	rxS.RunBackground()
	prod.Start()
	poll(t, 5*time.Second, func() bool { return tx.LaneStats().Journaled == netpipe.JournalLimit },
		"the journal to fill")
	cons.Start()
	poll(t, 10*time.Second, func() bool { return sink.Count() == n }, "every item, the journal's overflow included")
}

// TestPlainLanePeerCloseFailsSender: the peer of a plain lane closes
// mid-stream.  The write that finds it gone — per item, or per batch at the
// batch's end — must fail the sending pipeline within a bounded number of
// items of the last frame the peer took, not leave it pumping into a dead
// connection.
func TestPlainLanePeerCloseFailsSender(t *testing.T) {
	c1, c2 := net.Pipe()
	read := make(chan int, 1)
	go func() {
		// Read until 50 frames have arrived, then hang up.  A pipe read
		// returns one write's bytes whole, and a write holds whole frames.
		buf := make([]byte, 1<<16)
		var frames int
		for frames < 50 {
			n, err := c2.Read(buf)
			if err != nil {
				break
			}
			for p := buf[:n]; len(p) >= 4; p = p[4+binary.BigEndian.Uint32(p):] {
				frames++
			}
		}
		c2.Close()
		read <- frames
	}()
	txS := uthread.New(uthread.WithClock(vclock.Real{}))
	tx := netpipe.NewTCPSenderLink(c1)
	t.Cleanup(func() { tx.Close() })
	probe := pipes.NewCountingProbe("probe")
	p, err := core.Compose("prod", txS, nil, append([]core.Stage{
		core.Comp(pipes.NewCounterSource("src", 1<<20)),
		core.Pmp(pipes.NewFreePump("pump")),
		core.Comp(probe),
	}, tx.SenderStages("lane")...))
	if err != nil {
		t.Fatal(err)
	}
	done := txS.RunBackground()
	p.Start()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		txS.Stop()
		t.Fatalf("sender still pumping 10 s after the peer hung up (%d items pushed)", probe.Items())
	}
	got := <-read
	if p.Err() == nil {
		t.Fatalf("sending pipeline ended without an error after the peer hung up at frame %d", got)
	}
	if pushed := probe.Items(); pushed > int64(got)+32 {
		t.Fatalf("sender pushed %d items though the peer hung up after %d", pushed, got)
	}
	t.Logf("peer read %d frames; the sender failed after %d items: %v", got, probe.Items(), p.Err())
}
