package netpipe

import (
	"fmt"
	"net"
	"sync/atomic"
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
// zero duplication at the receiver boundary.
//
// Origin sequences make the protocol survive a *sender replacement*: when a
// failed segment is recomposed on another node, its fresh outbound link
// re-emits items that the stationary downstream listener may have already
// consumed; the listener's dedup watermark (an origin sequence) filters them
// regardless of which sender instance produced them.
//
// Merged flows: a merge interleaves its branches' sequence numbers, so a
// lane below one cannot journal on the bare sequence.  Each merge in-port
// stamps the item's Origin (see item.Item.Origin), and the lane keys its
// journal, acks and dedup on the (origin, seq) PAIR — monotone per origin by
// construction.  Origin-0 traffic (no merge upstream) leaves the origin field
// off the wire and keeps the lock-free watermark fast paths; non-zero origins
// set the frame's origin bit and use the per-origin maps.

// DurableConfig tunes a durable lane endpoint.
type DurableConfig struct {
	// JournalLimit bounds the sender's replay journal (entries).  A full
	// journal blocks the sending pipeline — with control dispatch, so the
	// stage stays stoppable — until acks free space.  It is also the flow
	// window: the producer can run at most this far ahead of the consumer,
	// so an undersized journal couples the two schedulers and costs
	// throughput long before memory matters.  Default 4096.
	JournalLimit int
	// AckEvery makes the receiver acknowledge after every N consumed items
	// (an ack is also sent on reconnect handshake and at end of stream).
	// Each ack is a write syscall on the lane, and a smaller value only
	// tightens the re-delivery overlap a failover must dedup.  Default 64.
	AckEvery int
	// Chained marks a mid-segment listener: instead of acknowledging what
	// its own pipeline consumed, it forwards the downstream ack watermark
	// pushed in via PushAck, so the upstream journal covers everything not
	// yet consumed at the end of the chain.
	Chained bool
	// WriteTimeout bounds each frame write, so a partitioned peer parks the
	// connection instead of wedging the sender.  Default 5s.
	WriteTimeout time.Duration
}

func (c DurableConfig) withDefaults() DurableConfig {
	if c.JournalLimit <= 0 {
		c.JournalLimit = 4096
	}
	if c.AckEvery <= 0 {
		c.AckEvery = 64
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	return c
}

// laneEntry is one journaled frame awaiting acknowledgement: the header it
// was (and will be re-) sent with — so a replay after a Redial preserves the
// tenant's priority tag and the merge origin — and a private copy of the
// payload.
type laneEntry struct {
	hdr  frameHeader
	data []byte
}

// durable is the per-link durable-lane state, guarded by TCPLink.mu.
type durable struct {
	cfg DurableConfig

	// Sender half.
	journal   []laneEntry
	lastSent  int64 // highest origin-0 sequence handed to sendDurable
	sent      int64 // frames ever journaled, all origins — monotone
	acked     int64 // highest cumulative origin-0 ack received
	eosPend   bool  // EOS reached the sink; replay must re-send it
	eosSeq    int64
	eosAcked  bool
	replays   int64 // journal entries re-sent across all redials
	txWaiters core.WaiterList
	onAck     func(origin, seq int64) // fired outside the lock on every new ack
	// Per-origin sender watermarks for merged flows; nil until the first
	// non-zero origin crosses the lane, so unmerged flows never touch them.
	// Guarded by TCPLink.mu.
	lastSentO map[int64]int64
	ackedO    map[int64]int64
	// free recycles acknowledged journal buffers, so the steady state
	// journals without allocating; wdUntil is when the connection's write
	// deadline expires, so the deadline syscall is amortized over many
	// frames instead of paid per frame.  Both guarded by TCPLink.mu.
	free    [][]byte
	wdUntil time.Time

	// Receiver half.  dedup/dups are written only by the (single) reader
	// goroutine and ackAnchor only by the (single) consumer thread, so they
	// are atomics instead of taking TCPLink.mu on every frame; the rest is
	// guarded by TCPLink.mu.
	dedup       atomic.Int64 // highest origin-0 sequence injected into the inbox
	dups        atomic.Int64 // duplicate frames dropped
	eosSeen     bool         // the terminal sequenced EOS frame arrived
	lastPopped  int64        // consumer-thread private
	lastPoppedO int64        // origin of the last popped frame, consumer-thread private
	ackAnchor   atomic.Int64 // previous popped origin-0 sequence — safe to ack (see popDurable)
	sinceAck    int          // consumer-thread private
	lastAck     int64        // highest origin-0 ack actually written
	chainAck    int64        // highest origin-0 watermark pushed via PushAck
	finalAcked  bool         // ackAll has been written (or pushed through)
	// Per-origin receiver watermarks for merged flows, nil until a non-zero
	// origin arrives.  origins lists the keys in first-seen order, so the
	// ack cadence and handshake iterate deterministically without sorting.
	// All guarded by TCPLink.mu (merged flows pay the lock; origin-0 keeps
	// the atomics above).
	dedupO    map[int64]int64
	anchorO   map[int64]int64
	lastAckO  map[int64]int64
	chainAckO map[int64]int64
	origins   []int64
}

// originSeen registers a receiver-side origin in first-seen order (l.mu
// held).  All three receiver maps share the origins index.
func (d *durable) originSeen(origin int64) {
	if d.dedupO == nil {
		d.dedupO = make(map[int64]int64)
		d.anchorO = make(map[int64]int64)
		d.lastAckO = make(map[int64]int64)
		d.chainAckO = make(map[int64]int64)
	}
	if _, ok := d.dedupO[origin]; !ok {
		d.dedupO[origin] = 0
		d.origins = append(d.origins, origin)
	}
}

// LaneStats is a point-in-time snapshot of a durable lane endpoint.
type LaneStats struct {
	Journaled  int   // unacknowledged entries in the sender journal
	LastSent   int64 // highest sequence sent
	Sent       int64 // frames ever journaled, across all origins (monotone)
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
	l := &TCPLink{conn: conn, dur: &durable{cfg: cfg.withDefaults()}}
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
	return newListenerLink(addr, rxSched, rxNode, queueLimit, &durable{cfg: cfg.withDefaults()})
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
	d := l.dur
	return LaneStats{
		Journaled:  len(d.journal),
		LastSent:   d.lastSent,
		Sent:       d.sent,
		Acked:      d.acked,
		EOSPending: d.eosPend && !d.eosAcked,
		Parked:     l.conn == nil,
		Dedup:      d.dedup.Load(),
		Dups:       d.dups.Load(),
		Replays:    d.replays,
	}
}

// sendDurable journals one frame and puts it on the wire.  A full journal
// blocks (with control dispatch, mirroring shard links) until acks trim it;
// a detaching pipeline force-completes over the limit so teardown never
// deadlocks on a dead peer.  A write error parks the connection — the frame
// is journaled, a later Redial replays it — so the pipeline keeps producing
// into the journal while the lane is down.
func (l *TCPLink) sendDurable(ctx *core.Ctx, h frameHeader, data []byte) error {
	return l.sendDurableWith(ctx.Thread(), ctx.Stopping, ctx.Detaching, h, data)
}

// never is the nil-callback fallback for sendDurableWith and inbox.pop:
// package-level so the per-item path does not allocate a closure (caught by
// ipvet).
func never() bool { return false }

//ipvet:hotpath durable-lane send: journal append + framed write per item
func (l *TCPLink) sendDurableWith(t *uthread.Thread, stopping, detaching func() bool, h frameHeader, data []byte) error {
	if stopping == nil {
		stopping = never
	}
	if detaching == nil {
		detaching = never
	}
	d := l.dur
	origin, seq := h.origin, h.seq
	for {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return core.ErrStopped
		}
		last := d.lastSent
		if origin != 0 {
			last = d.lastSentO[origin]
		}
		if seq <= last {
			l.mu.Unlock()
			//ipvet:allow hotalloc misuse error path, never taken in steady state
			return fmt.Errorf("netpipe: durable lane: origin %d sequence %d not above %d (durable lanes need per-origin monotone sequences)", origin, seq, last)
		}
		if len(d.journal) < d.cfg.JournalLimit || (stopping() && detaching()) {
			// Journal a copy (items are pooled; the payload buffer is
			// recycled by the caller), then attempt the wire.  The copy
			// reuses an acknowledged entry's buffer when one is free.
			var buf []byte
			if n := len(d.free); n > 0 {
				buf = d.free[n-1][:0]
				d.free = d.free[:n-1]
			}
			//ipvet:allow hotalloc journal copy reuses acked buffers; it allocates only until the free pool warms up
			d.journal = append(d.journal, laneEntry{hdr: h, data: append(buf, data...)})
			d.sent++
			if origin == 0 {
				d.lastSent = seq
			} else {
				if d.lastSentO == nil {
					//ipvet:allow hotalloc lazy per-origin watermark map; allocated once per lane when the first merged origin appears, not per frame
					d.lastSentO = make(map[int64]int64)
				}
				d.lastSentO[origin] = seq
			}
			_ = l.writeOrParkLocked(h, data)
			l.mu.Unlock()
			return nil
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
	defer l.mu.Unlock()
	if l.closed {
		return core.ErrStopped
	}
	d := l.dur
	if d.eosAcked {
		return nil
	}
	if !d.eosPend {
		d.eosPend = true
		d.eosSeq = d.lastSent
	}
	// A write failure parks the connection with the EOS latched pending; the
	// replay after a Redial re-sends it, so this is not the pipeline's error.
	_ = l.writeOrParkLocked(frameHeader{kind: kindEOS}.withSeq(0, d.eosSeq), nil)
	return nil
}

// recycle keeps an acknowledged journal buffer for reuse (l.mu held).  The
// pool is bounded so a burst of large journals cannot pin memory forever.
//
//ipvet:hotpath journal buffer reuse; runs once per acknowledged frame
func (d *durable) recycle(buf []byte) {
	if buf != nil && len(d.free) < 64 {
		d.free = append(d.free, buf)
	}
}

// armWriteDeadlineLocked refreshes the connection's write deadline when
// less than half the configured timeout remains, so the deadline syscall
// is paid once per ~wt/2 of traffic, not once per frame.  The effective
// per-write bound stays within [wt/2, wt].  wdUntil is zeroed whenever
// l.conn changes, so a fresh connection is always armed.
//
//ipvet:hotpath runs under l.mu on every framed write
func (l *TCPLink) armWriteDeadlineLocked() {
	wt := l.dur.cfg.WriteTimeout
	if wt <= 0 {
		return
	}
	//ipvet:allow wallclock amortized write-deadline re-arm on a real socket
	if now := time.Now(); l.dur.wdUntil.Sub(now) < wt/2 {
		l.dur.wdUntil = now.Add(wt)
		_ = l.conn.SetWriteDeadline(l.dur.wdUntil)
	}
}

// writeOrParkLocked writes one durable data or EOS frame.  On error the
// connection is parked (closed and nilled) so the journal carries the stream
// until a Redial.
//
//ipvet:hotpath per-frame durable write
func (l *TCPLink) writeOrParkLocked(h frameHeader, payload []byte) error {
	err := l.writeFrameLocked(h, payload)
	if err != nil && l.conn != nil {
		l.conn.Close()
		l.conn = nil
		l.dur.wdUntil = time.Time{}
	}
	return err
}

// writeAckLocked writes a cumulative per-origin ack on the receiver's
// connection, reporting success.  Failures are left for the reconnect
// handshake.
//
//ipvet:hotpath ack write on the receiver's ack cadence
func (l *TCPLink) writeAckLocked(origin, seq int64) bool {
	return l.writeFrameLocked(frameHeader{kind: kindAck}.withSeq(origin, seq), nil) == nil
}

// writeHandshakeLocked re-announces the consumed watermarks to a
// (re)connecting sender, so it trims its journal before replaying: the
// origin-0 watermark (or the global terminal ackAll), then one per-origin
// ack for every origin this receiver has seen.
func (l *TCPLink) writeHandshakeLocked() {
	d := l.dur
	if d.finalAcked {
		l.writeAckLocked(0, ackAll)
		return
	}
	if d.cfg.Chained {
		l.writeAckLocked(0, d.chainAck)
		for _, o := range d.origins {
			if w := d.chainAckO[o]; w > 0 {
				l.writeAckLocked(o, w)
			}
		}
		return
	}
	l.writeAckLocked(0, d.ackAnchor.Load())
	for _, o := range d.origins {
		if w := d.anchorO[o]; w > 0 {
			l.writeAckLocked(o, w)
		}
	}
}

// ackLoop reads cumulative acks off a sender connection until it dies.  A
// receiver writes nothing but acks, so anything else means the byte stream
// can no longer be trusted: the connection is dropped, the next write parks
// the lane, and a Redial's handshake + replay resynchronise it.
func (l *TCPLink) ackLoop(conn net.Conn) {
	var lenBuf [4]byte
	for {
		body, err := readFrame(conn, &lenBuf)
		if err != nil {
			break
		}
		h, _, ok := parseFrame(body)
		if !ok || h.kind != kindAck || h.flags&flagSeq == 0 {
			break
		}
		l.applyAck(h.origin, h.seq)
	}
	conn.Close()
}

// applyAck trims the journal up to a cumulative per-origin ack and wakes
// blocked senders.  ackAll (always origin 0) confirms the EOS too, emptying
// the journal.
//
//ipvet:hotpath journal trim; runs on every ack the sender receives
func (l *TCPLink) applyAck(origin, seq int64) {
	d := l.dur
	l.mu.Lock()
	switch {
	case origin == 0 && seq == ackAll:
		d.eosAcked = true
		d.acked = d.lastSent
		// ackedO is made by the first per-origin ack: a merged stream that
		// this ack alone confirms has none, and with the journal emptied
		// below nothing reads the per-origin watermarks again.
		if d.ackedO != nil {
			for o, s := range d.lastSentO {
				d.ackedO[o] = s
			}
		}
		for i := range d.journal {
			d.recycle(d.journal[i].data)
			d.journal[i] = laneEntry{}
		}
		d.journal = d.journal[:0]
	case origin == 0 && seq > d.acked:
		d.acked = seq
		if d.lastSentO == nil {
			// Unmerged flow: the journal is sorted by seq, so the trim is a
			// prefix cut that stops at the first unacknowledged entry.
			i := 0
			for i < len(d.journal) && d.journal[i].hdr.seq <= seq {
				d.recycle(d.journal[i].data)
				i++
			}
			if i > 0 {
				n := copy(d.journal, d.journal[i:])
				for j := n; j < len(d.journal); j++ {
					d.journal[j] = laneEntry{}
				}
				d.journal = d.journal[:n]
			}
		} else {
			d.trimJournalLocked()
		}
	case origin != 0 && seq > d.ackedO[origin]:
		if d.ackedO == nil {
			//ipvet:allow hotalloc lazy per-origin ack map; allocated once per lane on the first merged-origin ack, not per frame
			d.ackedO = make(map[int64]int64)
		}
		d.ackedO[origin] = seq
		d.trimJournalLocked()
	default:
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
		cb(origin, seq)
	}
}

// trimJournalLocked drops every journal entry at or below its origin's ack
// watermark.  Merged flows interleave origins in the (send-ordered) journal,
// so the trim is a filter rather than a prefix cut; acks arrive on a cadence,
// not per frame, which bounds the amortized cost.
func (d *durable) trimJournalLocked() {
	n := 0
	for i := range d.journal {
		e := &d.journal[i]
		acked := d.acked
		if e.hdr.origin != 0 {
			acked = d.ackedO[e.hdr.origin]
		}
		if e.hdr.seq <= acked {
			d.recycle(e.data)
			continue
		}
		d.journal[n] = *e
		n++
	}
	for j := n; j < len(d.journal); j++ {
		d.journal[j] = laneEntry{}
	}
	d.journal = d.journal[:n]
}

// replayLocked re-sends every journaled frame (and a pending EOS) on the
// current connection.  Called under l.mu right after a durable Redial.
func (l *TCPLink) replayLocked() error {
	d := l.dur
	for _, e := range d.journal {
		if err := l.writeOrParkLocked(e.hdr, e.data); err != nil {
			return fmt.Errorf("netpipe: durable replay origin %d seq %d: %w", e.hdr.origin, e.hdr.seq, err)
		}
		d.replays++
	}
	if d.eosPend && !d.eosAcked {
		if err := l.writeOrParkLocked(frameHeader{kind: kindEOS}.withSeq(0, d.eosSeq), nil); err != nil {
			return fmt.Errorf("netpipe: durable replay EOS: %w", err)
		}
	}
	return nil
}

func (l *TCPLink) deregisterTx(tok uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dur.txWaiters.Remove(tok)
}

// popDurable pulls the next frame on the receiver side and drives the ack
// protocol.  The ack anchor is the *previous* popped frame: pulling item
// K+1 proves item K fully traversed the (single-pump) receiving pipeline, so
// acknowledging K never confirms an item that could still be lost with the
// pipeline.  The pipeline is FIFO regardless of origin, so popping any frame
// promotes the previous one — whatever its origin — to that origin's ackable
// watermark.  A multi-pump receiver (a buffer in the segment) breaks the
// proof — the graph layer enforces the assumption by refusing to re-place
// such segments when their inbound lane self-acks (see graph replaceable).
// Chained listeners do not self-ack — their watermark arrives via PushAck
// from the downstream lane.
//
//ipvet:hotpath durable-lane receive: inbox pop + self-ack per item
func (l *TCPLink) popDurable(t *uthread.Thread, stopping func() bool) (frameEntry, error) {
	e, err := l.inbox.pop(t, stopping)
	if err != nil {
		if err == core.ErrEOS {
			l.ackEOS()
		}
		return e, err
	}
	d := l.dur
	if d.lastPoppedO == 0 {
		d.ackAnchor.Store(d.lastPopped)
	} else {
		// Merged flows pay the lock on the anchor promotion; the origin-0
		// fast path above stays lock-free.
		l.mu.Lock()
		d.originSeen(d.lastPoppedO)
		d.anchorO[d.lastPoppedO] = d.lastPopped
		l.mu.Unlock()
	}
	d.lastPopped, d.lastPoppedO = e.seq, e.origin
	if !d.cfg.Chained {
		d.sinceAck++
		if d.sinceAck >= d.cfg.AckEvery {
			// The lock is only taken on the ack cadence, not per pop.
			anchor := d.ackAnchor.Load()
			l.mu.Lock()
			wrote := false
			if anchor > d.lastAck && l.writeAckLocked(0, anchor) {
				d.lastAck = anchor
				wrote = true
			}
			for _, o := range d.origins {
				if a := d.anchorO[o]; a > d.lastAckO[o] && l.writeAckLocked(o, a) {
					d.lastAckO[o] = a
					wrote = true
				}
			}
			if wrote {
				d.sinceAck = 0
			}
			l.mu.Unlock()
		}
	}
	return e, nil
}

// ackEOS sends the final cumulative ack once the stream genuinely ended (a
// terminal frame arrived and the inbox is drained).
func (l *TCPLink) ackEOS() {
	d := l.dur
	l.mu.Lock()
	if d.eosSeen && !d.cfg.Chained && !d.finalAcked {
		if l.writeAckLocked(0, ackAll) {
			d.finalAcked = true
		}
	}
	l.mu.Unlock()
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
	d := l.dur
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	switch {
	case origin == 0 && seq == ackAll:
		if !d.finalAcked {
			d.finalAcked = true
			_ = l.writeAckLocked(0, ackAll)
		}
	case origin == 0 && seq > d.chainAck:
		d.chainAck = seq
		if l.writeAckLocked(0, seq) {
			d.lastAck = seq
		}
	case origin != 0:
		d.originSeen(origin)
		if seq > d.chainAckO[origin] {
			d.chainAckO[origin] = seq
			if l.writeAckLocked(origin, seq) {
				d.lastAckO[origin] = seq
			}
		}
	}
	l.mu.Unlock()
}

// AckAllSeq is the cumulative watermark meaning "everything, including end
// of stream" — the value delivered to SetOnAck callbacks when the receiver
// confirms the full stream, and accepted by PushAck.
const AckAllSeq int64 = ackAll
