package netpipe

import "fmt"

// The durable lane's protocol, with no I/O: laneTx is the sender half and
// laneRx the receiver half.  Each method is one protocol event and returns
// what the driver (durable.go, which owns the sockets, the write deadline,
// the lock and the parked threads) must put on the wire.  Every watermark
// lives in one per-origin table (laneMarks), so an unmerged flow and a merged
// one take one path.  lane_explore_test.go checks every interleaving of a
// bounded world of connection losses and restarts.
//
// What the halves rely on:
//   - a sender numbers each origin's frames monotonically and journals every
//     frame above its origin's acked mark until an ack covers it;
//   - a receiver acks only what its pipeline consumed: taking an item off the
//     inbox proves the previous one traversed the single-pump pipeline;
//   - acks are fire-and-forget: one lost with its connection is re-announced
//     by the next connection's handshake.

const (
	// journalLimit bounds the sender's journal (entries).  A full journal
	// parks the sending pipeline until acks free room, so it is also the flow
	// window: how far the producer may run ahead of the consumer.
	journalLimit = 4096
	// ackEvery is the receiver's ack cadence, in consumed items.  Each ack is
	// a write on the lane; a smaller cadence only narrows the overlap a
	// failover must dedup.
	ackEvery = 64
)

// The journal must hold more than one ack cadence (see newLaneTx): a negative
// constant does not convert to uint, so this fails to compile otherwise.
const _ = uint(journalLimit - ackEvery - 1)

// laneEntry is one journaled frame: the header it was (and will be re-) sent
// with, so a replay keeps the tenant's priority tag and the merge origin, and
// a private copy of the payload.
type laneEntry struct {
	hdr  frameHeader
	data []byte
}

// laneAck is one cumulative acknowledgement: origin's items up to seq were
// consumed.  {0, ackAll} confirms the whole stream, end of stream included.
type laneAck struct{ origin, seq int64 }

// laneMark is one origin's watermarks.  A sender keeps sent and acked, a
// receiver dedup, done and acked.
type laneMark struct {
	origin int64
	sent   int64 // highest sequence admitted
	dedup  int64 // highest sequence accepted into the inbox
	done   int64 // highest sequence known consumed: safe to acknowledge
	acked  int64 // highest ack received (sender) or sent (receiver)
}

// laneMarks is a per-origin watermark table.  Its first entry is origin 0,
// and merged origins follow in first-seen order, so acks and handshakes go
// out in a deterministic order.
type laneMarks []laneMark

// of returns origin's marks, adding a zeroed entry for a new origin.
func (ms *laneMarks) of(origin int64) *laneMark {
	for i := range *ms {
		if (*ms)[i].origin == origin {
			return &(*ms)[i]
		}
	}
	*ms = append(*ms, laneMark{origin: origin})
	return &(*ms)[len(*ms)-1]
}

// laneTx is the sender half: the journal and per-origin sent and acked marks.
type laneTx struct {
	limit int
	marks laneMarks
	// journal holds frames in send order from head on.  An ack pops the
	// acked prefix; below a merge an entry acked behind an older unacked one
	// of another origin stays until compact.
	journal []laneEntry
	head    int
	free    [][]byte // acknowledged payload buffers, reused by admit
	sent    int64    // frames ever admitted, all origins
	replays int64    // entries re-sent by replay
	ended   bool     // the stream ended; replay re-sends the EOS frame
	// eosAcked: the receiver confirmed the whole stream.
	eosAcked bool
}

// newLaneTx returns a sender half whose journal holds limit entries.  limit
// must exceed the receiver's ack cadence: the receiver acks an item only once
// it takes the next one, so a journal of ackEvery entries or fewer parks its
// sender before an ack is due, and the lane wedges.
func newLaneTx(limit int) laneTx {
	return laneTx{limit: limit, marks: laneMarks{{}}}
}

// held reports the entries in the journal.
func (t *laneTx) held() int { return len(t.journal) - t.head }

func (t *laneTx) acked(h frameHeader) bool { return h.seq <= t.marks.of(h.origin).acked }

// admit is the sender handing over the frame h with payload data; write says
// it was journaled and must go on the wire.  A frame at or below its origin's
// acked mark was consumed already (a replacement sender re-emitting its
// stream from the start behind the receiver's handshake), so it is neither
// journaled nor sent.  With the journal at its limit admit reports full and
// admits nothing, unless force (a detaching pipeline must not lose the item)
// takes it over the limit.
//
//ipvet:hotpath durable-lane send: one journal append per item
func (t *laneTx) admit(h frameHeader, data []byte, force bool) (write, full bool, err error) {
	m := t.marks.of(h.origin)
	if h.seq <= m.sent {
		//ipvet:allow hotalloc misuse error path, never taken in steady state
		return false, false, fmt.Errorf("netpipe: durable lane: origin %d sequence %d not above %d (durable lanes need per-origin monotone sequences)", h.origin, h.seq, m.sent)
	}
	if h.seq > m.acked {
		if t.held() >= t.limit && len(t.marks) > 1 {
			t.compact() // one origin's journal is sorted: ack popped its acked entries
		}
		if t.held() >= t.limit && !force {
			return false, true, nil
		}
		var buf []byte
		if n := len(t.free); n > 0 {
			buf, t.free = t.free[n-1][:0], t.free[:n-1]
		}
		//ipvet:allow hotalloc journal copy reuses acked buffers; it allocates only until the free pool warms up
		t.journal = append(t.journal, laneEntry{hdr: h, data: append(buf, data...)})
		write = true
	}
	m.sent = h.seq
	t.sent++
	return write, false, nil
}

// ack is a cumulative ack arriving; it reports whether the ack was news.
// {0, ackAll} raises every origin's mark to what it sent.
//
//ipvet:hotpath journal trim; runs on every ack the sender receives
func (t *laneTx) ack(a laneAck) bool {
	if a.origin == 0 && a.seq == ackAll {
		if t.eosAcked {
			return false
		}
		t.eosAcked = true
		for i := range t.marks {
			t.marks[i].acked = max(t.marks[i].acked, t.marks[i].sent)
		}
		t.compact()
		return true
	}
	m := t.marks.of(a.origin)
	if a.seq <= m.acked {
		return false
	}
	m.acked = a.seq
	for t.head < len(t.journal) && t.acked(t.journal[t.head].hdr) {
		t.recycle(t.journal[t.head].data)
		t.journal[t.head] = laneEntry{}
		t.head++
	}
	if t.head > t.held() {
		t.compact()
	}
	return true
}

// compact drops every acknowledged entry and moves the rest to the front.
// It runs when the popped prefix outgrows the held part, so its copying is
// amortised over the pops, and when the journal is full: below a merge,
// entries acked behind an older unacked one would otherwise fill it.
func (t *laneTx) compact() {
	n := 0
	for _, e := range t.journal[t.head:] {
		if t.acked(e.hdr) {
			t.recycle(e.data)
			continue
		}
		t.journal[n] = e
		n++
	}
	clear(t.journal[n:])
	t.journal, t.head = t.journal[:n], 0
}

// recycle keeps an acknowledged payload buffer for reuse.  The pool is
// bounded, so a burst of large frames cannot pin memory forever.
func (t *laneTx) recycle(buf []byte) {
	if buf != nil && len(t.free) < 64 {
		t.free = append(t.free, buf)
	}
}

// eos is the end of the stream reaching the sender.  It returns the EOS frame
// (carrying origin 0's last sequence), which must go on the wire unless the
// receiver has confirmed the stream.
func (t *laneTx) eos() (frameHeader, bool) {
	t.ended = true
	return frameHeader{kind: kindEOS}.withSeq(0, t.marks[0].sent), !t.eosAcked
}

// replay is a new connection: it re-sends through write every journaled
// frame no ack has covered, then a pending EOS frame.
func (t *laneTx) replay(write func(frameHeader, []byte) error) error {
	for _, e := range t.journal[t.head:] {
		if t.acked(e.hdr) {
			continue
		}
		if err := write(e.hdr, e.data); err != nil {
			return fmt.Errorf("netpipe: durable replay origin %d seq %d: %w", e.hdr.origin, e.hdr.seq, err)
		}
		t.replays++
	}
	if !t.ended {
		return nil
	}
	if h, pending := t.eos(); pending {
		if err := write(h, nil); err != nil {
			return fmt.Errorf("netpipe: durable replay EOS: %w", err)
		}
	}
	return nil
}

// laneRx is the receiver half: per-origin dedup, done and acked marks, the
// ack cadence and the end-of-stream flags.
type laneRx struct {
	every   int
	chained bool // done arrives through push, not from the pipeline's pops
	marks   laneMarks
	last    laneAck // the previous pop, done once the next one happens
	since   int     // pops since the last cadence ack
	eos     bool    // the EOS frame arrived
	final   bool    // the final ackAll is out
	dups    int64   // duplicate frames dropped
}

// newLaneRx returns a receiver half that acks every `every` pops, or, chained,
// forwards what push hands it.  Its sender's journal must hold more than
// `every` entries (see newLaneTx).
func newLaneRx(every int, chained bool) laneRx {
	return laneRx{every: every, chained: chained, marks: laneMarks{{}}}
}

// accept is a data frame arriving; it reports whether the frame is new, and
// counts a duplicate otherwise.  The first frame of an origin may skip
// sequences: a sender starts each connection with the oldest frame no ack
// has covered, so everything of that origin below it was consumed (by an
// earlier receiver, when this one replaced it) or never existed, and done
// rises to just below it.  Later frames may skip too (a route split hands a
// lane every other sequence), but then frames below them can still sit in
// the inbox, so only the first one moves done.
//
//ipvet:hotpath per-frame dedup on a durable lane
func (r *laneRx) accept(origin, seq int64) bool {
	m := r.marks.of(origin)
	if seq <= m.dedup {
		r.dups++
		return false
	}
	if m.dedup == 0 {
		m.done = max(m.done, seq-1)
	}
	m.dedup = seq
	return true
}

// pop is the consumer taking frame (origin, seq) off the inbox.  That proves
// the previous pop, whatever its origin (the pipeline is FIFO), traversed the
// pipeline, so it becomes done; the item just taken could still be lost with
// the pipeline.  A multi-pump receiver breaks the proof: the graph layer
// refuses to re-place such a segment behind a self-acking lane.  Every
// `every` pops, the done marks not yet acknowledged are appended to due.
//
//ipvet:hotpath durable-lane receive: one done promotion per item
func (r *laneRx) pop(origin, seq int64, due []laneAck) []laneAck {
	if r.chained {
		return due
	}
	m := r.marks.of(r.last.origin)
	m.done = max(m.done, r.last.seq)
	r.last = laneAck{origin, seq}
	if r.since++; r.since < r.every {
		return due
	}
	r.since = 0
	for i := range r.marks {
		if m := &r.marks[i]; m.done > m.acked {
			m.acked = m.done
			due = append(due, laneAck{m.origin, m.done})
		}
	}
	return due
}

// end is the consumer finding the stream over: the EOS frame arrived and the
// inbox is drained.  It reports whether the final ackAll is now due; a
// chained listener's comes through push.
func (r *laneRx) end() bool {
	if !r.eos || r.chained || r.final {
		return false
	}
	r.final = true
	return true
}

// push is a downstream ack reaching a chained listener; it appends to due
// what must be forwarded upstream.
func (r *laneRx) push(a laneAck, due []laneAck) []laneAck {
	if a.origin == 0 && a.seq == ackAll {
		if !r.final {
			r.final = true
			due = append(due, a)
		}
		return due
	}
	if m := r.marks.of(a.origin); a.seq > m.done {
		m.done, m.acked = a.seq, a.seq
		due = append(due, a)
	}
	return due
}

// handshake is a sender connecting.  It appends to due what the sender must
// hear before anything else: every done mark (or the final ackAll), so the
// sender trims its journal before replaying and a replacement sender skips
// what was consumed.
func (r *laneRx) handshake(due []laneAck) []laneAck {
	if r.final {
		return append(due, laneAck{0, ackAll})
	}
	for i := range r.marks {
		if m := &r.marks[i]; m.done > 0 {
			m.acked = m.done
			due = append(due, laneAck{m.origin, m.done})
		}
	}
	return due
}
