package netpipe_test

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/netpipe"
	"infopipes/internal/pipes"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// durablePair is a two-scheduler producer/consumer pair joined by a durable
// TCP lane on loopback — the smallest assembly that exercises the journal /
// ack / dedup protocol end to end.
type durablePair struct {
	txSched, rxSched *uthread.Scheduler
	txLink, rxLink   *netpipe.TCPLink
	addr             string
	conn             net.Conn
	prod, cons       *core.Pipeline
	sink             *pipes.CollectSink
	txDone, rxDone   <-chan error
}

// startDurablePair composes both pipelines and starts the schedulers; the
// producer starts immediately, the consumer only if startCons is set (the
// backpressure test delays it).  rate <= 0 means a free-running pump.
func startDurablePair(t *testing.T, n int64, rate float64, queue int,
	dial func(addr string) (net.Conn, error), startCons bool) *durablePair {
	t.Helper()
	p := &durablePair{}
	p.rxSched = uthread.New(uthread.WithClock(vclock.Real{}))
	var err error
	p.rxLink, p.addr, err = netpipe.NewDurableTCPListenerLink("127.0.0.1:0", p.rxSched, "rx-node", queue, netpipe.DurableConfig{})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	if dial == nil {
		dial = netpipe.Dial
	}
	p.conn, err = dial(p.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	p.txLink = netpipe.NewDurableTCPSenderLink(p.conn, netpipe.DurableConfig{})
	p.txSched = uthread.New(uthread.WithClock(vclock.Real{}))
	pump := pipes.NewFreePump("txpump")
	if rate > 0 {
		pump = pipes.NewClockedPump("txpump", rate)
	}
	p.prod, err = core.Compose("producer", p.txSched, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", n)),
		core.Pmp(pump),
		core.Comp(netpipe.NewMarshalFilter("marshal", netpipe.GobMarshaller{})),
		core.Comp(p.txLink.NewSink("netsink")),
	})
	if err != nil {
		t.Fatalf("compose producer: %v", err)
	}
	p.sink = pipes.NewCollectSink("sink")
	p.cons, err = core.Compose("consumer", p.rxSched, nil, []core.Stage{
		core.Comp(p.rxLink.NewSource("netsource")),
		core.Comp(netpipe.NewUnmarshalFilter("unmarshal", netpipe.GobMarshaller{})),
		core.Pmp(pipes.NewFreePump("rxpump")),
		core.Comp(p.sink),
	})
	if err != nil {
		t.Fatalf("compose consumer: %v", err)
	}
	p.txDone = p.txSched.RunBackground()
	p.rxDone = p.rxSched.RunBackground()
	p.prod.Start()
	if startCons {
		p.cons.Start()
	}
	t.Cleanup(func() {
		_ = p.txLink.Close()
		_ = p.rxLink.Close()
	})
	return p
}

// wait blocks until a scheduler finishes, failing the test on timeout.
func waitSched(t *testing.T, name string, ch <-chan error, ignoreErr bool) {
	t.Helper()
	select {
	case err := <-ch:
		if err != nil && !ignoreErr {
			t.Fatalf("%s: %v", name, err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("%s did not finish", name)
	}
}

// assertExactlyOnce checks the sink holds sequences 1..n, in order, no gaps,
// no duplicates — the durable lane contract.
func assertExactlyOnce(t *testing.T, sink *pipes.CollectSink, n int64) {
	t.Helper()
	if got := int64(sink.Count()); got != n {
		t.Fatalf("sink received %d items, want %d", got, n)
	}
	for i, it := range sink.Items() {
		if it.Seq != int64(i+1) {
			t.Fatalf("item %d has seq %d, want %d (loss, duplication, or reordering)", i, it.Seq, i+1)
		}
	}
}

// poll retries cond for up to d.
func poll(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDurableLaneExactlyOnceCleanRun drives more items than the journal
// holds, so acks must trim it over and over, and checks the happy path is
// invisible: no duplicates, no replays, journal drained, final ack confirmed.
func TestDurableLaneExactlyOnceCleanRun(t *testing.T) {
	const n = 2*netpipe.JournalLimit + 100
	p := startDurablePair(t, n, 0, 64, nil, true)
	waitSched(t, "producer", p.txDone, false)
	waitSched(t, "consumer", p.rxDone, false)
	assertExactlyOnce(t, p.sink, n)
	st := p.rxLink.LaneStats()
	if st.Dups != 0 {
		t.Errorf("receiver dropped %d duplicates on a clean run", st.Dups)
	}
	// The final cumulative ack races the scheduler exit; give it a moment.
	poll(t, 2*time.Second, func() bool {
		st := p.txLink.LaneStats()
		return !st.EOSPending && st.Journaled == 0
	}, "final ack to drain the journal")
	if st := p.txLink.LaneStats(); st.Replays != 0 {
		t.Errorf("sender replayed %d frames on a clean run", st.Replays)
	}
}

// TestDurableJournalFullBackpressure wedges the consumer (never started) so
// no acks flow: the sender must fill its journal to exactly the limit and
// then block — not drop, not grow — until the consumer starts and acks trim
// it.  This is the ack-starvation / journal-wraparound edge of the protocol.
// The inbox is unbounded, so every frame lands in it and none waits in a
// socket buffer (a full one would block the write until its deadline).
func TestDurableJournalFullBackpressure(t *testing.T) {
	const n = netpipe.JournalLimit + 1000
	p := startDurablePair(t, n, 0, 0, nil, false)
	poll(t, 5*time.Second, func() bool {
		return p.txLink.LaneStats().Journaled == netpipe.JournalLimit
	}, "journal to fill to its limit")
	// Hold the starved state for a beat: the journal must not creep past the
	// limit and nothing may reach the (unstarted) consumer's sink.
	time.Sleep(50 * time.Millisecond)
	if st := p.txLink.LaneStats(); st.Journaled != netpipe.JournalLimit {
		t.Fatalf("journal at %d entries, limit %d (backpressure failed)", st.Journaled, netpipe.JournalLimit)
	}
	if p.sink.Count() != 0 {
		t.Fatalf("sink received %d items before consumer start", p.sink.Count())
	}
	p.cons.Start()
	waitSched(t, "producer", p.txDone, false)
	waitSched(t, "consumer", p.rxDone, false)
	assertExactlyOnce(t, p.sink, n)
}

// TestDurableRedialReplaysJournal kills the TCP connection mid-stream (bare
// EOF on the receiver, write failures on the sender) and redials: the
// journal replay must close the gap with zero loss and the dedup watermark
// must absorb the overlap with zero duplication at the sink.
func TestDurableRedialReplaysJournal(t *testing.T) {
	p := startDurablePair(t, 300, 2000, 16, nil, true)
	poll(t, 10*time.Second, func() bool { return p.sink.Count() >= 50 }, "50 items before the cut")
	p.conn.Close() // the wire dies; both halves of the lane park
	time.Sleep(20 * time.Millisecond)
	if err := p.txLink.Redial(p.addr); err != nil {
		t.Fatalf("redial: %v", err)
	}
	waitSched(t, "producer", p.txDone, false)
	waitSched(t, "consumer", p.rxDone, false)
	assertExactlyOnce(t, p.sink, 300)
	if st := p.txLink.LaneStats(); st.Replays == 0 {
		t.Errorf("no journal replay recorded across a redial")
	}
}

// corruptingConn writes one frame with an unknown tag at the frame boundary
// ahead of the at-th frame it carries — line noise between two well-formed
// frames.  A write holds whole frames (a batch of them), so the boundary is
// found by walking the length prefixes.
type corruptingConn struct {
	net.Conn
	at     int32
	frames atomic.Int32
}

func (c *corruptingConn) Write(p []byte) (int, error) {
	for off := 0; off+4 <= len(p); off += 4 + int(binary.BigEndian.Uint32(p[off:])) {
		if c.frames.Add(1) != c.at {
			continue
		}
		if _, err := c.Conn.Write(p[:off]); err != nil {
			return 0, err
		}
		if _, err := c.Conn.Write([]byte{0, 0, 0, 1, 0x7f}); err != nil {
			return off, err
		}
		n, err := c.Conn.Write(p[off:])
		return off + n, err
	}
	return c.Conn.Write(p)
}

// TestDurableMalformedFrameParksLane: a corrupt frame mid-stream is a
// connection failure, not an end of stream.  The listener severs the
// connection and parks for a redial — the parent closed its inbox with
// core.ErrEOS instead, finishing the consumer "successfully" 49 items in —
// and the redial's replay + dedup deliver the stream exactly once.
func TestDurableMalformedFrameParksLane(t *testing.T) {
	dial := func(addr string) (net.Conn, error) {
		conn, err := netpipe.Dial(addr)
		if err != nil {
			return nil, err
		}
		return &corruptingConn{Conn: conn, at: 50}, nil
	}
	p := startDurablePair(t, 300, 2000, 16, dial, true)
	poll(t, 10*time.Second, func() bool { return p.sink.Count() >= 40 }, "40 items before the corrupt frame")
	poll(t, 10*time.Second, func() bool { return p.rxLink.LaneStats().Parked || p.cons.ReachedEOS() },
		"the listener to drop the corrupt connection")
	if p.cons.ReachedEOS() || p.cons.Err() != nil {
		t.Fatalf("corrupt frame ended the consumer (EOS=%v, err=%v) after %d items; want the lane parked",
			p.cons.ReachedEOS(), p.cons.Err(), p.sink.Count())
	}
	if got := p.sink.Count(); got > 49 {
		t.Fatalf("sink holds %d items, but only 49 preceded the corrupt frame", got)
	}
	if err := p.txLink.Redial(p.addr); err != nil {
		t.Fatalf("redial: %v", err)
	}
	waitSched(t, "producer", p.txDone, false)
	waitSched(t, "consumer", p.rxDone, false)
	assertExactlyOnce(t, p.sink, 300)
	if st := p.txLink.LaneStats(); st.Replays == 0 {
		t.Errorf("no journal replay recorded across the redial")
	}
}

// TestDurableSenderReplacement kills the sender half entirely mid-stream and
// attaches a brand-new sender (fresh link, fresh journal, fresh producer
// re-emitting the whole stream from sequence 1) to the surviving listener —
// the shape of a failed-over upstream segment.  The receiver's dedup
// watermark must drop everything already consumed, keeping the sink
// exactly-once.
func TestDurableSenderReplacement(t *testing.T) {
	p := startDurablePair(t, 200, 2000, 16, nil, true)
	poll(t, 10*time.Second, func() bool { return p.sink.Count() >= 60 }, "60 items before the kill")
	replaceSender(t, p, 200, nil)
	if st := p.rxLink.LaneStats(); st.Dups == 0 {
		t.Errorf("replacement sender re-emitted the stream but the receiver dropped no duplicates")
	}
}

// TestDurableReplacementSkipsAcknowledged: a replacement sender hears, in the
// receiver's handshake, that more items were consumed than its journal holds
// (4096), and only then re-emits the stream from sequence 1.  It must not
// journal what the handshake covered: a sender that journals every frame
// above its own last sent sequence, and trims only on a new ack, fills its
// journal with frames the receiver drops as duplicates, and its producer
// blocks forever.
func TestDurableReplacementSkipsAcknowledged(t *testing.T) {
	const n = 20000
	p := startDurablePair(t, n, 20000, 16, nil, true)
	poll(t, 10*time.Second, func() bool { return p.sink.Count() >= 5000 }, "5000 items before the kill")
	replaceSender(t, p, n, func(l *netpipe.TCPLink) {
		poll(t, 5*time.Second, func() bool { return l.LaneStats().Acked > 0 }, "the receiver's handshake")
	})
}

// replaceSender closes p's sender, as if its node died, and attaches a fresh
// one whose producer re-emits the whole n-item stream from sequence 1; ready,
// if set, runs on the connected link before that producer starts.  The sink
// must end up holding the stream exactly once.
func replaceSender(t *testing.T, p *durablePair, n int64, ready func(*netpipe.TCPLink)) {
	t.Helper()
	_ = p.txLink.Close() // the sender node dies; its journal dies with it
	waitSched(t, "old producer", p.txDone, true)

	txSched2 := uthread.New(uthread.WithClock(vclock.Real{}))
	conn2, err := netpipe.Dial(p.addr)
	if err != nil {
		t.Fatalf("replacement dial: %v", err)
	}
	txLink2 := netpipe.NewDurableTCPSenderLink(conn2, netpipe.DurableConfig{})
	t.Cleanup(func() { _ = txLink2.Close() })
	if ready != nil {
		ready(txLink2)
	}
	prod2, err := core.Compose("producer2", txSched2, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src2", n)),
		core.Pmp(pipes.NewFreePump("txpump2")),
		core.Comp(netpipe.NewMarshalFilter("marshal2", netpipe.GobMarshaller{})),
		core.Comp(txLink2.NewSink("netsink2")),
	})
	if err != nil {
		t.Fatalf("compose replacement: %v", err)
	}
	txDone2 := txSched2.RunBackground()
	prod2.Start()
	waitSched(t, "replacement producer", txDone2, false)
	waitSched(t, "consumer", p.rxDone, false)
	assertExactlyOnce(t, p.sink, n)
}

// TestDurableListenerReplacement kills the listener half mid-stream and
// stands up a fresh one on a new address — the shape of a failed-over
// downstream segment.  The sender's journal replay must deliver every item
// the old listener had not acknowledged; the union of old and new sinks must
// cover the stream with no gap, and the overlap must stay within the ack
// window (items popped but not yet anchored by a later pop).
func TestDurableListenerReplacement(t *testing.T) {
	p := startDurablePair(t, 200, 2000, 16, nil, true)
	poll(t, 10*time.Second, func() bool { return p.sink.Count() >= 60 }, "60 items before the kill")
	_ = p.rxLink.Close() // the receiver node dies; dedup state dies with it
	waitSched(t, "old consumer", p.rxDone, true)
	oldItems := p.sink.Items()

	rxSched2 := uthread.New(uthread.WithClock(vclock.Real{}))
	rxLink2, addr2, err := netpipe.NewDurableTCPListenerLink("127.0.0.1:0", rxSched2, "rx-node-2", 16, netpipe.DurableConfig{})
	if err != nil {
		t.Fatalf("replacement listen: %v", err)
	}
	defer rxLink2.Close()
	sink2 := pipes.NewCollectSink("sink2")
	cons2, err := core.Compose("consumer2", rxSched2, nil, []core.Stage{
		core.Comp(rxLink2.NewSource("netsource2")),
		core.Comp(netpipe.NewUnmarshalFilter("unmarshal2", netpipe.GobMarshaller{})),
		core.Pmp(pipes.NewFreePump("rxpump2")),
		core.Comp(sink2),
	})
	if err != nil {
		t.Fatalf("compose replacement consumer: %v", err)
	}
	rxDone2 := rxSched2.RunBackground()
	cons2.Start()
	if err := p.txLink.Redial(addr2); err != nil {
		t.Fatalf("redial to replacement: %v", err)
	}
	waitSched(t, "producer", p.txDone, false)
	waitSched(t, "replacement consumer", rxDone2, false)

	seen := make(map[int64]int)
	for _, it := range oldItems {
		seen[it.Seq]++
	}
	overlap := 0
	for _, it := range sink2.Items() {
		seen[it.Seq]++
		if seen[it.Seq] > 1 {
			overlap++
		}
	}
	for seq := int64(1); seq <= 200; seq++ {
		if seen[seq] == 0 {
			t.Fatalf("sequence %d lost across listener replacement", seq)
		}
	}
	// The dedup watermark died with the listener, so re-delivery of the
	// unacknowledged tail is expected — but it must stay within the ack
	// window, not re-run the stream.
	if maxOverlap := netpipe.AckEvery + 16; /* pipeline in flight */ overlap > maxOverlap {
		t.Errorf("overlap of %d items after listener replacement, want <= %d", overlap, maxOverlap)
	}
}

// chaosRedialer watches a chaos connection and redials (through a fresh
// seeded chaos wrapper) whenever a fault severs it, until stopped.
type chaosRedialer struct {
	mu    sync.Mutex
	conns []*netpipe.ChaosConn
	stop  chan struct{}
	done  chan struct{}
}

func newChaosRedialer(link *netpipe.TCPLink, addr string, first *netpipe.ChaosConn, seed int64, cfg netpipe.Chaos) *chaosRedialer {
	r := &chaosRedialer{stop: make(chan struct{}), done: make(chan struct{})}
	r.conns = append(r.conns, first)
	go func() {
		defer close(r.done)
		cur := first
		for {
			select {
			case <-r.stop:
				return
			default:
			}
			if cur.Severed() {
				seed++
				nc, err := netpipe.ChaosDial(addr, seed, cfg)
				if err == nil {
					r.mu.Lock()
					r.conns = append(r.conns, nc)
					r.mu.Unlock()
					cur = nc
					_ = link.ResumeConn(nc) // a failed replay parks again; next round retries
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	return r
}

func (r *chaosRedialer) halt() netpipe.ChaosStats {
	close(r.stop)
	<-r.done
	var total netpipe.ChaosStats
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		st := c.Stats()
		total.Writes += st.Writes
		total.Drops += st.Drops
		total.Dups += st.Dups
		total.Delays += st.Delays
		total.Stalls += st.Stalls
		total.Kills += st.Kills
	}
	return total
}

// TestDurableLaneUnderChaos runs the full protocol against the seeded fault
// injector — writes (each a batch of frames) dropped inside dying sockets,
// duplicated, delayed, stalled, and killed mid-write, with the lane redialed
// after every sever — and requires the sink to stay exactly-once, in order,
// for every seed.  The fault rates are per write, and a saturated lane
// writes once per batch, so the stream is long enough and the rates high
// enough that every seed severs the lane and duplicates a write at least
// chaosFloor times: a run that injects fewer has not tested the protocol.
func TestDurableLaneUnderChaos(t *testing.T) {
	const items, chaosFloor = 20000, 10
	chaos := netpipe.Chaos{
		DropOneIn:  10,
		DupOneIn:   4,
		DelayOneIn: 8,
		StallOneIn: 40,
		KillOneIn:  10,
		MaxDelay:   500 * time.Microsecond,
		StallFor:   5 * time.Millisecond,
	}
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var first *netpipe.ChaosConn
			dial := func(addr string) (net.Conn, error) {
				c, err := netpipe.ChaosDial(addr, seed, chaos)
				first = c
				return c, err
			}
			p := startDurablePair(t, items, 0, 32, dial, true)
			red := newChaosRedialer(p.txLink, p.addr, first, seed*1000, chaos)
			waitSched(t, "producer", p.txDone, false)
			waitSched(t, "consumer", p.rxDone, false)
			stats := red.halt()
			assertExactlyOnce(t, p.sink, items)
			t.Logf("survived chaos: %+v, receiver dropped %d dups, sender replayed %d",
				stats, p.rxLink.LaneStats().Dups, p.txLink.LaneStats().Replays)
			if severs := stats.Drops + stats.Kills; severs < chaosFloor || stats.Dups < chaosFloor {
				t.Errorf("chaos injected %d severs and %d duplicated writes for seed %d, want at least %d of each",
					severs, stats.Dups, seed, chaosFloor)
			}
		})
	}
}
