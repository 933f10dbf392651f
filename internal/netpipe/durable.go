package netpipe

import (
	"bufio"
	"net"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/uthread"
)

// Durable lanes (§2.4 + failover): every data frame carries the item's
// origin-assigned sequence number, the sender keeps a bounded replay journal
// of unacknowledged frames, and the receiver acknowledges cumulatively over
// the same connection (TCP is full duplex) and drops re-delivered sequences.
// A Redial after a bare EOF — the peer crashed, or the segment behind it was
// re-placed — replays the journal, so the stream resumes with zero loss and
// zero duplication at the receiver boundary.  The protocol is lane.go's
// (laneTx, laneRx); this file drives it over a TCPLink.
//
// Origin sequences make the protocol survive a *sender replacement*: when a
// failed segment is recomposed on another node, its fresh outbound link
// re-emits items that the stationary downstream listener may have already
// consumed; the listener's handshake tells it which, and its dedup watermark
// (an origin sequence) filters whatever still crosses the wire, regardless of
// which sender instance produced it.
//
// Merged flows: a merge interleaves its branches' sequence numbers, so a
// lane below one cannot journal on the bare sequence.  Each merge in-port
// stamps the item's Origin (see item.Item.Origin), and the lane keys its
// journal, acks and dedup on the (origin, seq) PAIR — monotone per origin by
// construction.  Origin-0 traffic (no merge upstream) leaves the origin field
// off the wire.

// laneWriteTimeout bounds each durable write — one batch of frames — so a
// partitioned peer parks the connection instead of wedging the sender.
const laneWriteTimeout = 5 * time.Second

// DurableConfig configures a durable lane endpoint.  The lane's tuning is
// fixed: a 4096-entry journal, an ack every 64 consumed items (the journal
// must outlast an ack cadence, see lane.go) and a 5 s write deadline.
type DurableConfig struct {
	// Chained marks a mid-segment listener: instead of acknowledging what
	// its own pipeline consumed, it forwards the downstream ack watermark
	// pushed in via PushAck, so the upstream journal covers everything not
	// yet consumed at the end of the chain.
	Chained bool
}

// durable is a link's durable-lane state: both protocol halves (a link uses
// the one its role needs) and what the driver keeps beside them.  TCPLink.mu
// guards all of it.
type durable struct {
	tx        laneTx
	rx        laneRx
	due       []laneAck // the receiver's acks to write, reused
	txWaiters core.WaiterList
	onAck     func(origin, seq int64) // fired outside the lock on every new ack
	wdUntil   time.Time               // when the connection's write deadline expires
}

func newDurable(cfg DurableConfig) *durable {
	return &durable{tx: newLaneTx(journalLimit), rx: newLaneRx(ackEvery, cfg.Chained)}
}

// LaneStats is a point-in-time snapshot of a durable lane endpoint.
type LaneStats struct {
	Journaled  int   // entries held in the sender journal
	LastSent   int64 // highest sequence sent
	Sent       int64 // frames ever admitted, across all origins (monotone)
	Acked      int64 // highest cumulative ack received (sender side)
	EOSPending bool  // sender saw EOS but the receiver has not confirmed it
	Parked     bool  // the connection is down; unreplayed entries are off the wire
	Dedup      int64 // receiver's highest injected origin sequence
	Dups       int64 // duplicate frames the receiver dropped
	Replays    int64 // journal entries re-sent across redials
}

// NewDurableTCPSenderLink wraps the producer side of an established
// connection with a replay journal, and starts the ack reader.
func NewDurableTCPSenderLink(conn net.Conn, cfg DurableConfig) *TCPLink {
	l := &TCPLink{conn: conn, dur: newDurable(cfg)}
	go l.ackLoop(conn)
	return l
}

// NewDurableTCPListenerLink is NewTCPListenerLink for cluster lanes.  The
// listener stays open across connections, so a bare EOF (the sender died or
// was re-placed onto another node) parks the lane until a replacement
// sender dials in, instead of ending the stream: only an explicit EOS frame
// — or Close — is terminal.  At most one sender is served at a time; a
// second connection waits in the accept backlog until the current one goes
// away.  The receiver side adds sequence dedup, cumulative acks, and a
// blocking inbox (a full queue exerts backpressure through TCP instead of
// dropping acked frames).
func NewDurableTCPListenerLink(addr string, rxSched *uthread.Scheduler, rxNode string, queueLimit int, cfg DurableConfig) (*TCPLink, string, error) {
	return newListenerLink(addr, rxSched, rxNode, queueLimit, newDurable(cfg))
}

// Durable reports whether the link runs the durable-lane protocol.
func (l *TCPLink) Durable() bool { return l.dur != nil }

// SetOnAck installs a callback fired (outside the link lock) whenever the
// sender receives a new cumulative ack (per origin; origin 0 on unmerged
// flows).  The graph layer uses it to chain acknowledgements backwards
// through a re-placeable segment.
func (l *TCPLink) SetOnAck(fn func(origin, seq int64)) {
	l.mu.Lock()
	l.dur.onAck = fn
	l.mu.Unlock()
}

// LaneStats snapshots the durable state; zero-valued on plain links.
func (l *TCPLink) LaneStats() LaneStats {
	if l.dur == nil {
		return LaneStats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	tx, rx := &l.dur.tx, &l.dur.rx
	return LaneStats{
		Journaled:  tx.held(),
		LastSent:   tx.marks[0].sent,
		Sent:       tx.sent,
		Acked:      tx.marks[0].acked,
		EOSPending: tx.ended && !tx.eosAcked,
		Parked:     l.conn == nil,
		Dedup:      rx.marks[0].dedup,
		Dups:       rx.dups,
		Replays:    tx.replays,
	}
}

// sendDurable journals one frame and stages it for the wire (written at the
// batch end, or at once past the buffer's cap).  A full journal blocks (with
// control dispatch, mirroring shard links) until acks trim it — the park
// writes what is staged first, so the receiver can ack it; a detaching
// pipeline force-completes over the limit so teardown never deadlocks on a
// dead peer.  A write error parks the connection — the frame is journaled, a
// later Redial replays it — so the pipeline keeps producing into the journal
// while the lane is down.
//
//ipvet:hotpath durable-lane send: journal append + framed staging per item
func (l *TCPLink) sendDurable(t *uthread.Thread, stopping, detaching func() bool, h frameHeader, data []byte) error {
	d := l.dur
	for {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return core.ErrStopped
		}
		write, full, err := d.tx.admit(h, data, false)
		if full && stopping() && detaching() {
			write, full, err = d.tx.admit(h, data, true)
		}
		if !full {
			if write {
				_ = l.writeFrameLocked(h, data)
			}
			_ = l.unlockFull() // a failed write parks (flushUnlock)
			return err
		}
		tok := d.txWaiters.Register(t)
		l.mu.Unlock()
		//ipvet:allow hotalloc journal-full park path; the thread blocks here, so the bound method is not per-item cost
		if err := core.AwaitWake(t, msgNetWake, tok, stopping, l.deregisterTx); err != nil {
			if detaching() {
				continue // force-complete: detach must not lose the item
			}
			return err
		}
	}
}

// sendEOSDurable records and transmits the terminal frame.  Idempotent.
func (l *TCPLink) sendEOSDurable() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return core.ErrStopped
	}
	// A write failure parks the connection with the EOS latched pending; the
	// replay after a Redial re-sends it, so this is not the pipeline's error.
	if h, write := l.dur.tx.eos(); write {
		_ = l.writeFrameLocked(h, nil)
	}
	_ = l.flushUnlock()
	return nil
}

// armWriteDeadlineLocked refreshes the connection's write deadline when
// less than half the timeout remains, so the deadline syscall is paid once
// per ~laneWriteTimeout/2 of traffic, not once per write.  The effective
// per-write bound stays within [timeout/2, timeout].  setConnLocked zeroes
// wdUntil, so a fresh connection is always armed.
//
//ipvet:hotpath runs under l.mu on every batch write
func (l *TCPLink) armWriteDeadlineLocked() {
	//ipvet:allow wallclock amortized write-deadline re-arm on a real socket
	if now := time.Now(); l.dur.wdUntil.Sub(now) < laneWriteTimeout/2 {
		l.dur.wdUntil = now.Add(laneWriteTimeout)
		_ = l.conn.SetWriteDeadline(l.dur.wdUntil)
	}
}

// writeAcksUnlock writes the receiver's acks at once, in one write, keeps
// the slice for reuse and releases l.mu, which the caller holds.  A failed
// write is left to the next connection's handshake.
//
//ipvet:hotpath ack writes on the receiver's cadence
func (l *TCPLink) writeAcksUnlock(due []laneAck) {
	l.dur.due = due[:0]
	for _, a := range due {
		_ = l.writeFrameLocked(frameHeader{kind: kindAck}.withSeq(a.origin, a.seq), nil)
	}
	_ = l.flushUnlock()
}

// ackLoop reads cumulative acks off a sender connection until it dies.  A
// receiver writes nothing but acks, so anything else means the byte stream
// can no longer be trusted: the connection is dropped, the next write parks
// the lane, and a Redial's handshake + replay resynchronise it.
func (l *TCPLink) ackLoop(conn net.Conn) {
	r := bufio.NewReader(conn)
	var lenBuf [4]byte
	for {
		body, err := readFrame(r, &lenBuf)
		if err != nil {
			break
		}
		h, _, ok := parseFrame(body)
		if !ok || h.kind != kindAck || h.flags&flagSeq == 0 {
			break
		}
		l.applyAck(laneAck{h.origin, h.seq})
	}
	conn.Close()
}

// applyAck hands one ack to the sender half and, when it was news, wakes
// blocked senders and fires the chain callback.
//
//ipvet:hotpath journal trim; runs on every ack the sender receives
func (l *TCPLink) applyAck(a laneAck) {
	d := l.dur
	l.mu.Lock()
	if !d.tx.ack(a) {
		l.mu.Unlock()
		return
	}
	waiters := d.txWaiters.TakeAll()
	cb := d.onAck
	l.mu.Unlock()
	for _, w := range waiters {
		w.Wake(msgNetWake)
	}
	if cb != nil {
		cb(a.origin, a.seq)
	}
}

func (l *TCPLink) deregisterTx(tok uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dur.txWaiters.Remove(tok)
}

// accept hands one inbound durable frame to the receiver half (the reader
// goroutine), reporting whether it is new.  Frames on one connection arrive
// in order, so advancing dedup before injecting is safe: nothing overtakes,
// and a failed inject means the link is closing.
//
//ipvet:hotpath per-frame dedup on a durable lane
func (l *TCPLink) accept(h frameHeader) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if h.kind == kindEOS {
		l.dur.rx.eos = true
		return true
	}
	return l.dur.rx.accept(h.origin, h.seq)
}

// popDurable pulls the next frame on the receiver side and writes the acks
// the receiver half says are due: the cadence acks (see laneRx.pop), or the
// final ackAll once the stream genuinely ended (an EOS frame arrived and the
// inbox is drained).
//
//ipvet:hotpath durable-lane receive: inbox pop + self-ack per item
func (l *TCPLink) popDurable(t *uthread.Thread, stopping func() bool) (frameEntry, error) {
	e, err := l.inbox.pop(t, stopping)
	l.mu.Lock()
	d := l.dur
	due := d.due[:0]
	if err == nil {
		due = d.rx.pop(e.origin, e.seq, due)
	} else if err == core.ErrEOS && d.rx.end() {
		due = append(due, laneAck{0, ackAll})
	}
	l.writeAcksUnlock(due)
	return e, err
}

// PushAck feeds a downstream per-origin ack watermark into a chained
// listener, which forwards it to its own sender: the upstream journal then
// covers exactly what has not been consumed at the end of the chain.  ackAll
// (from AckAllSeq, always origin 0) marks the whole stream drained
// downstream.
func (l *TCPLink) PushAck(origin, seq int64) {
	if l.dur == nil || l.inbox == nil {
		return
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.writeAcksUnlock(l.dur.rx.push(laneAck{origin, seq}, l.dur.due[:0]))
}

// AckAllSeq is the cumulative watermark meaning "everything, including end
// of stream" — the value delivered to SetOnAck callbacks when the receiver
// confirms the full stream, and accepted by PushAck.
const AckAllSeq int64 = ackAll
