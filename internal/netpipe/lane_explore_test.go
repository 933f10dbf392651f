package netpipe

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// The durable lane's protocol halves (lane.go) checked the way one checks a
// small protocol: a bounded world around them whose every interleaving is
// enumerated (TestLaneExplorer), or, past those bounds, walked along paths a
// fuzzer picks (FuzzLaneCore).  The world holds one sender and one receiver
// core, the connection between them (frames and acks in flight, lost with
// it), the receiver's inbox, a consumer that pops one item and then delivers
// it to the sink, and budgets for connection losses and for restarts of
// either side.  The invariants:
//   - nothing is lost: when the consumer finds the stream over, every item
//     reached the sink;
//   - exactly once, in order per origin, unless the receiver restarted (a
//     restarted receiver re-delivers what its predecessor had consumed but
//     not acknowledged);
//   - even then, an item the sender holds an ack for never reaches the sink
//     again: the overlap a failover re-delivers stays inside the ack window;
//   - the journal is empty once the sender holds the final ack;
//   - no stuck state: where no event can happen, the stream is over.

// laneModel bounds one world.
type laneModel struct {
	items        []laneAck // the stream, in emission order
	every, limit int       // the receiver's ack cadence, the sender's journal
	// Budgets: connection losses, sender restarts (journal lost, stream
	// re-emitted from the start) and receiver restarts.
	losses, txRestarts, rxRestarts int
}

// laneWorld is one state of a laneModel's world.
type laneWorld struct {
	tx       laneTx
	rx       laneRx
	emitted  int  // items the current sender has handed over
	ended    bool // the current sender has ended the stream
	up       bool // a connection is established
	frames   []frameHeader
	acks     []laneAck
	inbox    []laneAck
	hand     laneAck // popped, not yet delivered
	holding  bool
	finished bool   // the consumer found the stream over
	sunk     uint64 // bit i: items[i] reached the sink

	losses, txRestarts, rxRestarts int
}

type laneEvent uint8

const (
	evEmit      laneEvent = iota // the producer hands the sender its next item
	evEnd                        // the producer ends the stream
	evFrame                      // the receiver reads the next frame
	evAck                        // the sender reads the next ack
	evPop                        // the consumer takes the next item off the inbox
	evDeliver                    // the consumer delivers the item in hand
	evDrained                    // the consumer finds the stream over
	evConnect                    // the sender connects: handshake, then replay
	evLose                       // the connection drops with all in flight
	evRestartTx                  // the sender restarts
	evRestartRx                  // the receiver restarts: dedup, inbox and hand lost
	nLaneEvents
)

var laneEventNames = [nLaneEvents]string{"emit", "end", "frame", "ack", "pop", "deliver", "drained",
	"connect", "lose", "restart-tx", "restart-rx"}

func (m *laneModel) start() *laneWorld {
	return &laneWorld{tx: newLaneTx(m.limit), rx: newLaneRx(m.every, false)}
}

// copyFrom makes c a deep copy of w, reusing c's arrays.
func (c *laneWorld) copyFrom(w *laneWorld) {
	tm, tj, tf, rm := c.tx.marks[:0], c.tx.journal[:0], c.tx.free[:0], c.rx.marks[:0]
	fr, ac, in := c.frames[:0], c.acks[:0], c.inbox[:0]
	*c = *w
	c.tx.marks, c.tx.journal, c.tx.free = append(tm, w.tx.marks...), append(tj, w.tx.journal...), append(tf, w.tx.free...)
	c.rx.marks = append(rm, w.rx.marks...)
	c.frames, c.acks, c.inbox = append(fr, w.frames...), append(ac, w.acks...), append(in, w.inbox...)
}

// drop loses the connection and everything in flight on it.
func (w *laneWorld) drop() {
	w.up, w.frames, w.acks = false, nil, nil
}

// step applies e to w.  It reports whether e could happen, and the invariant
// it broke, if any.
func (m *laneModel) step(w *laneWorld, e laneEvent) (bool, string) {
	switch e {
	case evEmit:
		if w.emitted == len(m.items) {
			return false, ""
		}
		it := m.items[w.emitted]
		h := frameHeader{kind: kindData}.withSeq(it.origin, it.seq)
		write, full, err := w.tx.admit(h, nil, false)
		if full {
			return false, "" // the producer parks until an ack
		}
		if err != nil {
			return true, err.Error()
		}
		w.emitted++
		if write && w.up {
			w.frames = append(w.frames, h)
		}
	case evEnd:
		if w.ended || w.emitted < len(m.items) {
			return false, ""
		}
		w.ended = true
		if h, write := w.tx.eos(); write && w.up {
			w.frames = append(w.frames, h)
		}
	case evFrame:
		// After the EOS frame the listener reads no more and accepts no
		// connection: it waits for the final ack to go out.
		if !w.up || len(w.frames) == 0 || w.rx.eos {
			return false, ""
		}
		h := w.frames[0]
		w.frames = w.frames[1:]
		if h.kind == kindEOS {
			w.rx.eos = true
		} else if w.rx.accept(h.origin, h.seq) {
			w.inbox = append(w.inbox, laneAck{h.origin, h.seq})
		}
	case evAck:
		if !w.up || len(w.acks) == 0 {
			return false, ""
		}
		w.tx.ack(w.acks[0])
		w.acks = w.acks[1:]
		if w.tx.eosAcked && w.tx.held() != 0 {
			return true, fmt.Sprintf("the journal holds %d entries after the final ack", w.tx.held())
		}
	case evPop:
		if w.holding || len(w.inbox) == 0 {
			return false, ""
		}
		w.hand, w.holding, w.inbox = w.inbox[0], true, w.inbox[1:]
		due := w.rx.pop(w.hand.origin, w.hand.seq, nil)
		if w.up {
			w.acks = append(w.acks, due...)
		}
	case evDeliver:
		if !w.holding {
			return false, ""
		}
		w.holding = false
		return true, m.deliver(w, w.hand)
	case evDrained:
		if w.finished || w.holding || len(w.inbox) > 0 || !w.rx.eos {
			return false, ""
		}
		w.finished = true
		if w.rx.end() && w.up {
			w.acks = append(w.acks, laneAck{0, ackAll})
		}
		for i, it := range m.items {
			if w.sunk&(1<<i) == 0 {
				return true, fmt.Sprintf("the stream is over, but %v never reached the sink", it)
			}
		}
	case evConnect:
		if w.up || w.rx.eos {
			return false, ""
		}
		w.up = true
		w.acks = w.rx.handshake(nil)
		_ = w.tx.replay(func(h frameHeader, _ []byte) error {
			w.frames = append(w.frames, h)
			return nil
		})
	case evLose:
		if !w.up || w.losses == m.losses {
			return false, ""
		}
		w.losses++
		w.drop()
	case evRestartTx:
		if w.finished || w.txRestarts == m.txRestarts {
			return false, ""
		}
		w.txRestarts++
		w.drop()
		w.tx, w.emitted, w.ended = newLaneTx(m.limit), 0, false
	case evRestartRx:
		if w.finished || w.rxRestarts == m.rxRestarts {
			return false, ""
		}
		w.rxRestarts++
		w.drop()
		w.rx, w.inbox, w.holding = newLaneRx(m.every, false), nil, false
	}
	return true, ""
}

// deliver records it at the sink and checks exactly-once, in-order delivery.
func (m *laneModel) deliver(w *laneWorld, it laneAck) string {
	i := slices.Index(m.items, it)
	if i < 0 {
		return fmt.Sprintf("%v reached the sink but was never emitted", it)
	}
	acked := w.tx.eosAcked
	for _, mk := range w.tx.marks {
		acked = acked || mk.origin == it.origin && it.seq <= mk.acked
	}
	if w.sunk&(1<<i) != 0 && acked {
		return fmt.Sprintf("%v reached the sink again, though the sender holds its ack", it)
	}
	if w.rxRestarts == 0 {
		if w.sunk&(1<<i) != 0 {
			return fmt.Sprintf("%v reached the sink twice", it)
		}
		for j, prev := range m.items[:i] {
			if prev.origin == it.origin && w.sunk&(1<<j) == 0 {
				return fmt.Sprintf("%v reached the sink before %v", it, prev)
			}
		}
	}
	w.sunk |= 1 << i
	return ""
}

// appendKey appends w's state to b: two worlds with one key behave alike
// from here on.  Counters that only feed LaneStats are left out.
func (w *laneWorld) appendKey(b []byte) []byte {
	kb := func(v int64) byte { return byte(min(max(v, 0), 255)) }
	flag := func(bits ...bool) byte {
		var f byte
		for i, v := range bits {
			if v {
				f |= 1 << i
			}
		}
		return f
	}
	marks := func(ms laneMarks) {
		b = append(b, byte(len(ms)))
		for _, m := range ms {
			b = append(b, kb(m.origin), kb(m.sent), kb(m.dedup), kb(m.done), kb(m.acked))
		}
	}
	marks(w.tx.marks)
	b = append(b, byte(w.tx.held()))
	for _, e := range w.tx.journal[w.tx.head:] {
		b = append(b, kb(e.hdr.origin), kb(e.hdr.seq))
	}
	b = append(b, flag(w.tx.ended, w.tx.eosAcked, w.rx.eos, w.rx.final, w.ended, w.up, w.holding, w.finished))
	marks(w.rx.marks)
	b = append(b, kb(w.rx.last.origin), kb(w.rx.last.seq), byte(w.rx.since), byte(len(w.frames)))
	for _, h := range w.frames {
		b = append(b, h.kind, kb(h.origin), kb(h.seq))
	}
	for _, q := range [][]laneAck{w.acks, w.inbox} {
		b = append(b, byte(len(q)))
		for _, a := range q {
			b = append(b, kb(a.origin), kb(a.seq))
		}
	}
	if w.holding {
		b = append(b, kb(w.hand.origin), kb(w.hand.seq))
	}
	return append(b, byte(w.emitted), byte(w.sunk), byte(w.sunk>>8),
		byte(w.losses), byte(w.txRestarts), byte(w.rxRestarts))
}

// explore walks every interleaving from the start, depth first, and returns
// the number of distinct states, or the first broken invariant and the path
// that breaks it.
func (m *laneModel) explore() (states int, path []laneEvent, bad string) {
	seen := make(map[string]struct{})
	var key []byte
	var scratch []*laneWorld // one per depth, reused for every event tried there
	var visit func(w *laneWorld)
	visit = func(w *laneWorld) {
		key = w.appendKey(key[:0])
		if _, ok := seen[string(key)]; ok {
			return
		}
		seen[string(key)] = struct{}{}
		depth := len(path)
		if depth == len(scratch) {
			scratch = append(scratch, new(laneWorld))
		}
		can := false
		for e := range nLaneEvents {
			next := scratch[depth]
			next.copyFrom(w)
			ok, broke := m.step(next, e)
			if !ok {
				continue
			}
			can = true
			path = append(path, e)
			if bad = broke; bad != "" {
				return
			}
			if visit(next); bad != "" {
				return
			}
			path = path[:len(path)-1]
		}
		if !can && !w.finished {
			bad = "stuck: no event can happen, and the stream is not over"
		}
	}
	visit(m.start())
	return len(seen), path, bad
}

// describe replays path from the start, one line per event, then prints the
// state it ends in.
func (m *laneModel) describe(path []laneEvent) string {
	var b strings.Builder
	fmt.Fprintf(&b, "items %v, ack every %d, journal %d", m.items, m.every, m.limit)
	w := m.start()
	for i, e := range path {
		what := ""
		switch e {
		case evEmit:
			what = fmt.Sprint(m.items[w.emitted])
		case evFrame:
			what = fmt.Sprintf("kind %d %v", w.frames[0].kind, laneAck{w.frames[0].origin, w.frames[0].seq})
		case evAck:
			what = fmt.Sprint(w.acks[0])
		case evPop:
			what = fmt.Sprint(w.inbox[0])
		case evDeliver:
			what = fmt.Sprint(w.hand)
		}
		fmt.Fprintf(&b, "\n  %2d %s %s", i+1, laneEventNames[e], what)
		m.step(w, e)
	}
	fmt.Fprintf(&b, "\n  then: sender marks %v journal %d eos %v/%v; receiver marks %v eos %v final %v; inbox %v; sink %b",
		w.tx.marks, w.tx.held(), w.tx.ended, w.tx.eosAcked, w.rx.marks, w.rx.eos, w.rx.final, w.inbox, w.sunk)
	return b.String()
}

// TestLaneExplorer enumerates every interleaving of up to four items on one
// or two origins, ack cadences 1 to 3, journals one to three entries past the
// cadence, two connection losses, a sender restart and a receiver restart.
func TestLaneExplorer(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine code: nothing for the race detector to check")
	}
	streams := [][]laneAck{
		{{0, 1}, {0, 2}, {0, 3}, {0, 4}},
		{{1, 1}, {2, 1}, {1, 2}, {2, 2}}, // below a two-input merge
	}
	total := 0
	for _, stream := range streams {
		for n := 1; n <= len(stream); n++ {
			for every := 1; every <= 3; every++ {
				for limit := every + 1; limit <= every+3; limit++ {
					m := &laneModel{items: stream[:n], every: every, limit: limit, losses: 2, txRestarts: 1, rxRestarts: 1}
					states, path, bad := m.explore()
					if bad != "" {
						t.Fatalf("%s after %d states:\n%s", bad, states, m.describe(path))
					}
					total += states
				}
			}
		}
	}
	t.Logf("%d states, every invariant held", total)
}

// TestLaneJournalMustExceedCadence: a journal no larger than the ack cadence
// wedges a lane with no fault at all, because the receiver acks an item only
// once it takes the next.  Settable tuning let DurableConfig{JournalLimit: 4,
// AckEvery: 8} through, and a clean 100-item run stuck after 4 items; the
// tuning is constants now, checked when lane.go compiles, so no socket-level
// test can configure the wedge and this one drives the core instead.
func TestLaneJournalMustExceedCadence(t *testing.T) {
	items := []laneAck{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}}
	for every := 1; every <= 3; every++ {
		m := &laneModel{items: items, every: every, limit: every}
		if _, path, bad := m.explore(); !strings.HasPrefix(bad, "stuck") {
			t.Errorf("journal %d, ack every %d: %q, want a stuck lane\n%s", every, every, bad, m.describe(path))
		}
		m.limit++
		if _, path, bad := m.explore(); bad != "" {
			t.Errorf("journal %d, ack every %d: %s\n%s", m.limit, every, bad, m.describe(path))
		}
	}
}

// TestLaneAdmitBelowAcked: a replacement sender that heard the receiver's
// handshake re-emits its stream from sequence 1, and what the handshake
// covered is neither journaled nor written, so even more such frames than
// the journal holds never fill it.
func TestLaneAdmitBelowAcked(t *testing.T) {
	tx := newLaneTx(2)
	if !tx.ack(laneAck{0, 5}) {
		t.Fatal("the handshake's ack was not news to a fresh sender")
	}
	for seq := int64(1); seq <= 6; seq++ {
		write, full, err := tx.admit(frameHeader{kind: kindData}.withSeq(0, seq), nil, false)
		if want := seq > 5; write != want || full || err != nil {
			t.Fatalf("admit seq %d: write=%v full=%v err=%v, want write=%v", seq, write, full, err, want)
		}
	}
	if tx.held() != 1 || tx.sent != 6 {
		t.Fatalf("journal holds %d entries after %d admits, want 1 after 6", tx.held(), tx.sent)
	}
}

// FuzzLaneCore walks the explorer's world past its bounds: the first eight
// bytes pick the stream (up to 12 items on up to three origins, with
// sequence gaps such as a route split leaves), the cadence, the journal and
// the fault budgets; each further byte picks one of the events that can
// happen.  When the bytes run out, faults stop and the world runs to its end.
func FuzzLaneCore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 11, 0, 2, 0, 6, 2, 2, 8, 8, 7, 8, 4, 5, 9, 10, 3, 3, 8, 10})
	f.Add([]byte{1, 9, 0x5a, 1, 3, 3, 1, 1, 0, 0, 9, 0, 0, 4, 5, 10, 7, 0, 0, 0, 8, 3})
	f.Add([]byte{2, 11, 0xff, 4, 1, 6, 2, 2, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 10, 9, 8})
	f.Fuzz(func(t *testing.T, in []byte) {
		var p [8]byte
		in = in[copy(p[:], in):]
		origins, n := 1+int(p[0]%3), 1+int(p[1]%12)
		m := &laneModel{every: 1 + int(p[3]%5), losses: int(p[5] % 7), txRestarts: int(p[6] % 3), rxRestarts: int(p[7] % 3)}
		m.limit = m.every + 1 + int(p[4]%4)
		var seq [4]int64
		for i := range n {
			o := int64(i % origins)
			if origins > 1 {
				o++
			}
			seq[o] += 1 + int64(p[2]>>(i%8)&1)
			m.items = append(m.items, laneAck{o, seq[o]})
		}
		w := m.start()
		var try laneWorld
		var path []laneEvent
		for len(path) < 10000 {
			var can []laneEvent
			for e := range nLaneEvents {
				try.copyFrom(w)
				if ok, _ := m.step(&try, e); ok && (len(in) > 0 || e < evLose) {
					can = append(can, e)
				}
			}
			if len(can) == 0 {
				if !w.finished {
					t.Fatalf("stuck: no event can happen, and the stream is not over\n%s", m.describe(path))
				}
				return
			}
			e := can[0]
			if len(in) > 0 {
				e, in = can[int(in[0])%len(can)], in[1:]
			}
			path = append(path, e)
			if _, bad := m.step(w, e); bad != "" {
				t.Fatalf("%s\n%s", bad, m.describe(path))
			}
		}
		t.Fatalf("no end after %d events\n%s", len(path), m.describe(path))
	})
}
