package netpipe_test

import (
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/item"
	"infopipes/internal/netpipe"
	"infopipes/internal/pipes"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// The per-origin durable protocol: a lane below a merge sees interleaved
// sequence numbers, so it journals, acknowledges and dedups on the
// (origin, seq) pair each merge in-port stamps.  These tests drive such a
// flow through a durable lane directly — two origins interleaved, each with
// its own monotone sequence — and break the lane mid-stream.

// originPair wires a durable loopback lane whose producer emits n items
// alternating between origins 1 and 2, each origin numbering its own items
// 1..n/2 (the shape a 2-input merge produces).
type originPair struct {
	*durablePair
}

func startOriginPair(t *testing.T, n int64, rate float64) *originPair {
	t.Helper()
	p := &durablePair{}
	p.rxSched = uthread.New(uthread.WithClock(vclock.Real{}))
	var err error
	p.rxLink, p.addr, err = netpipe.NewDurableTCPListenerLink("127.0.0.1:0", p.rxSched, "rx-node", 16, netpipe.DurableConfig{})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	p.conn, err = netpipe.Dial(p.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	p.txLink = netpipe.NewDurableTCPSenderLink(p.conn, netpipe.DurableConfig{})
	p.txSched = uthread.New(uthread.WithClock(vclock.Real{}))
	pump := pipes.NewFreePump("txpump")
	if rate > 0 {
		pump = pipes.NewClockedPump("txpump", rate)
	}
	// Re-stamp the counter stream into two interleaved origins: global seq
	// 1,2,3,4... becomes (origin 1, seq 1), (origin 2, seq 1), (origin 1,
	// seq 2)... — per-origin monotone, globally interleaved, exactly what a
	// lane below a 2-input merge carries.
	stamp := pipes.NewFuncFilter("stamp", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		it.Origin = 1 + (it.Seq+1)%2
		it.Seq = (it.Seq + 1) / 2
		return it, nil
	})
	p.prod, err = core.Compose("producer", p.txSched, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", n)),
		core.Pmp(pump),
		core.Comp(stamp),
		core.Comp(netpipe.NewMarshalFilter("marshal", netpipe.NewBinaryMarshaller())),
		core.Comp(p.txLink.NewSink("netsink")),
	})
	if err != nil {
		t.Fatalf("compose producer: %v", err)
	}
	p.sink = pipes.NewCollectSink("sink")
	p.cons, err = core.Compose("consumer", p.rxSched, nil, []core.Stage{
		core.Comp(p.rxLink.NewSource("netsource")),
		core.Comp(netpipe.NewUnmarshalFilter("unmarshal", netpipe.NewBinaryMarshaller())),
		core.Pmp(pipes.NewFreePump("rxpump")),
		core.Comp(p.sink),
	})
	if err != nil {
		t.Fatalf("compose consumer: %v", err)
	}
	p.txDone = p.txSched.RunBackground()
	p.rxDone = p.rxSched.RunBackground()
	p.prod.Start()
	p.cons.Start()
	t.Cleanup(func() {
		_ = p.txLink.Close()
		_ = p.rxLink.Close()
	})
	return &originPair{durablePair: p}
}

// assertExactlyOncePerOrigin checks each origin's sub-stream arrived
// complete, in order, without duplicates — the merged-flow durable contract.
func assertExactlyOncePerOrigin(t *testing.T, sink *pipes.CollectSink, perOrigin map[int64]int64) {
	t.Helper()
	next := make(map[int64]int64)
	for _, it := range sink.Items() {
		next[it.Origin]++
		if it.Seq != next[it.Origin] {
			t.Fatalf("origin %d received seq %d, want %d (loss, duplication, or reordering)",
				it.Origin, it.Seq, next[it.Origin])
		}
	}
	for origin, want := range perOrigin {
		if next[origin] != want {
			t.Fatalf("origin %d received %d items, want %d", origin, next[origin], want)
		}
	}
	if len(next) != len(perOrigin) {
		t.Fatalf("sink saw %d origins, want %d", len(next), len(perOrigin))
	}
}

// TestDurableOriginCleanRun pushes an interleaved two-origin stream longer
// than the journal: per-origin acks must trim it (a stuck journal would block
// the producer), and both sub-streams must arrive exactly once, in order.
func TestDurableOriginCleanRun(t *testing.T) {
	const perOrigin = netpipe.JournalLimit
	p := startOriginPair(t, 2*perOrigin, 0)
	waitSched(t, "producer", p.txDone, false)
	waitSched(t, "consumer", p.rxDone, false)
	assertExactlyOncePerOrigin(t, p.sink, map[int64]int64{1: perOrigin, 2: perOrigin})
	if st := p.rxLink.LaneStats(); st.Dups != 0 {
		t.Errorf("receiver dropped %d duplicates on a clean run", st.Dups)
	}
	poll(t, 2*time.Second, func() bool {
		st := p.txLink.LaneStats()
		return !st.EOSPending && st.Journaled == 0
	}, "final ack to drain the journal")
}

// TestDurableOriginRedialReplays cuts the wire mid-stream and redials: the
// journal replay must restore both origins' tails with zero loss, and the
// per-origin dedup watermarks must absorb the overlap with zero duplication.
func TestDurableOriginRedialReplays(t *testing.T) {
	p := startOriginPair(t, 300, 2000)
	poll(t, 10*time.Second, func() bool { return p.sink.Count() >= 50 }, "50 items before the cut")
	p.conn.Close()
	time.Sleep(20 * time.Millisecond)
	if err := p.txLink.Redial(p.addr); err != nil {
		t.Fatalf("redial: %v", err)
	}
	waitSched(t, "producer", p.txDone, false)
	waitSched(t, "consumer", p.rxDone, false)
	assertExactlyOncePerOrigin(t, p.sink, map[int64]int64{1: 150, 2: 150})
	if st := p.txLink.LaneStats(); st.Replays == 0 {
		t.Errorf("no journal replay recorded across a redial")
	}
}

// TestDurableOriginSenderReplacement kills the sender mid-stream and
// attaches a fresh one re-emitting the whole interleaved stream — the shape
// of a failed-over segment feeding a merge-downstream lane.  The receiver's
// per-origin dedup watermarks (re-announced in the reconnect handshake) must
// drop everything already consumed, keeping each origin exactly-once.
func TestDurableOriginSenderReplacement(t *testing.T) {
	p := startOriginPair(t, 200, 2000)
	poll(t, 10*time.Second, func() bool { return p.sink.Count() >= 60 }, "60 items before the kill")
	_ = p.txLink.Close()
	waitSched(t, "old producer", p.txDone, true)

	txSched2 := uthread.New(uthread.WithClock(vclock.Real{}))
	conn2, err := netpipe.Dial(p.addr)
	if err != nil {
		t.Fatalf("replacement dial: %v", err)
	}
	txLink2 := netpipe.NewDurableTCPSenderLink(conn2, netpipe.DurableConfig{})
	defer txLink2.Close()
	stamp2 := pipes.NewFuncFilter("stamp2", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		it.Origin = 1 + (it.Seq+1)%2
		it.Seq = (it.Seq + 1) / 2
		return it, nil
	})
	prod2, err := core.Compose("producer2", txSched2, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src2", 200)),
		core.Pmp(pipes.NewFreePump("txpump2")),
		core.Comp(stamp2),
		core.Comp(netpipe.NewMarshalFilter("marshal2", netpipe.NewBinaryMarshaller())),
		core.Comp(txLink2.NewSink("netsink2")),
	})
	if err != nil {
		t.Fatalf("compose replacement: %v", err)
	}
	txDone2 := txSched2.RunBackground()
	prod2.Start()
	waitSched(t, "replacement producer", txDone2, false)
	waitSched(t, "consumer", p.rxDone, false)
	assertExactlyOncePerOrigin(t, p.sink, map[int64]int64{1: 100, 2: 100})
	if st := p.rxLink.LaneStats(); st.Dups == 0 {
		t.Errorf("replacement sender re-emitted the stream but the receiver dropped no duplicates")
	}
}

// TestDurableOriginAckedOnlyAtEOS: a merged-origin stream shorter than the
// ack cadence gets no per-origin ack, only the final one that confirms
// everything — which must find the sender's per-origin ack map in place
// (it was made on the first per-origin ack only, and the final ack panicked).
func TestDurableOriginAckedOnlyAtEOS(t *testing.T) {
	p := startOriginPair(t, 20, 0)
	waitSched(t, "producer", p.txDone, false)
	waitSched(t, "consumer", p.rxDone, false)
	assertExactlyOncePerOrigin(t, p.sink, map[int64]int64{1: 10, 2: 10})
	poll(t, 2*time.Second, func() bool {
		st := p.txLink.LaneStats()
		return !st.EOSPending && st.Journaled == 0
	}, "final ack to drain the journal")
}
