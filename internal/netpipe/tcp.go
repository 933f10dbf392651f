package netpipe

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/item"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// TCPLink is a reliable netpipe over a real TCP connection, for
// distributed pipelines (§2.4).  Frames are length-prefixed with a
// one-byte type tag; the receiver side runs a reader goroutine that
// injects frames into the consumer scheduler (network packets mapped to
// messages, §4).  Use a real clock on schedulers that talk TCP.
//
// A lane pays per batch, not per frame: the sink stages the frames of its
// pump's batch and writes them in one write when the pump's thread gives up
// the CPU (core.BatchEnder), and the reader hands the frames of one read to
// the inbox as one batch with one wake.
type TCPLink struct {
	rxNode string

	mu     sync.Mutex
	conn   net.Conn
	ln     net.Listener // non-nil on listener links until the peer connects
	closed bool
	txBuf  []byte // frames staged for the next write, guarded by mu
	// txErr is a plain sender's failed write, reported by every later send
	// so the pipeline fails; a durable sender parks instead.
	txErr error
	// dur is the durable-lane state (durable.go); nil on plain links.  A
	// durable listener is resumable: a bare EOF parks it until a replacement
	// sender dials in, and only an explicit EOS frame ends the stream.
	dur *durable

	rxSched    *uthread.Scheduler
	inbox      *inbox
	readerDone chan struct{}
}

// NewTCPSenderLink wraps the producer-side of an established connection.
func NewTCPSenderLink(conn net.Conn) *TCPLink {
	return &TCPLink{conn: conn}
}

// NewTCPReceiverLink wraps the consumer-side of an established connection
// and starts the reader goroutine, which lives until EOF, an EOS frame, or
// Close.  rxNode names this node for the location property.
func NewTCPReceiverLink(conn net.Conn, rxSched *uthread.Scheduler, rxNode string, queueLimit int) *TCPLink {
	l := &TCPLink{
		conn:       conn,
		rxNode:     rxNode,
		rxSched:    rxSched,
		inbox:      newInbox(queueLimit),
		readerDone: make(chan struct{}),
	}
	rxSched.AddExternalSource()
	go l.readLoop()
	return l
}

// NewTCPListenerLink is the receiver link for rendezvous deployments
// (§2.4 remote setup driven by a third party): it binds addr immediately —
// so the returned address can be handed to the sender's node before anyone
// connects — and accepts exactly one inbound connection in the background,
// then behaves exactly like NewTCPReceiverLink.  The inbox exists from the
// start, so a pipeline may be composed on the link and block pulling before
// the sender has dialed.
func NewTCPListenerLink(addr string, rxSched *uthread.Scheduler, rxNode string, queueLimit int) (*TCPLink, string, error) {
	return newListenerLink(addr, rxSched, rxNode, queueLimit, nil)
}

// newListenerLink binds a listener link; a non-nil dur makes it a durable
// (and therefore resumable) lane's receiver.
func newListenerLink(addr string, rxSched *uthread.Scheduler, rxNode string, queueLimit int, dur *durable) (*TCPLink, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("netpipe: listen %s: %w", addr, err)
	}
	l := &TCPLink{
		ln:         ln,
		rxNode:     rxNode,
		dur:        dur,
		rxSched:    rxSched,
		inbox:      newInbox(queueLimit),
		readerDone: make(chan struct{}),
	}
	if dur != nil {
		// Durable receivers must not drop frames they will acknowledge:
		// a full inbox blocks the reader, pushing backpressure through
		// TCP flow control to the sender's journal.
		l.inbox.blockFull = true
	}
	rxSched.AddExternalSource()
	go l.acceptAndRead(ln)
	return l, ln.Addr().String(), nil
}

// acceptAndRead serves inbound connections: one peer at a time, one total
// unless the link is resumable.
func (l *TCPLink) acceptAndRead(ln net.Listener) {
	resumable := l.dur != nil
	var end error // how the last connection ended; see closeInbox
	defer close(l.readerDone)
	defer l.rxSched.ReleaseExternalSource()
	defer func() { l.closeInbox(end) }()
	defer func() {
		l.mu.Lock()
		l.ln = nil
		l.mu.Unlock()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		l.mu.Lock()
		if err != nil || l.closed {
			l.mu.Unlock()
			if conn != nil {
				conn.Close()
			}
			return
		}
		l.setConnLocked(conn)
		if !resumable {
			l.ln = nil
		}
		if l.dur != nil {
			l.writeAcksLocked(l.dur.rx.handshake(l.dur.due[:0]))
		}
		l.mu.Unlock()
		if !resumable {
			ln.Close()
		}
		err = l.readFrames(conn)
		if err == core.ErrEOS && l.dur != nil {
			// Durable end of stream: keep the connection open so the final
			// cumulative ack (sent when the pipeline drains the inbox)
			// reaches the sender; Close tears the socket down.
			return
		}
		conn.Close()
		l.mu.Lock()
		if l.conn == conn {
			l.conn = nil
		}
		closed := l.closed
		l.mu.Unlock()
		// A resumable link outlives its connection — a bare EOF and a corrupt
		// frame alike sever it and park the lane for a redial (on a durable
		// lane the replay + dedup make that exactly-once); only an EOS frame
		// or Close ends it.
		if err == core.ErrEOS || closed || !resumable {
			end = err
			return
		}
	}
}

// closeInbox ends the inbox as the reader exits.  A link torn down by an
// explicit Close delivers core.ErrStopped to pullers (teardown is not end
// of stream — a dying node's pipeline must not manufacture an EOS and send
// it downstream); any other exit delivers how readFrames ended: core.ErrEOS
// for an EOS frame — and for nil, sender EOF on a non-resumable link —
// ErrMalformedFrame for a corrupt one.
func (l *TCPLink) closeInbox(end error) {
	if end == nil {
		end = core.ErrEOS
	}
	l.mu.Lock()
	if l.closed {
		end = core.ErrStopped
	}
	l.mu.Unlock()
	l.inbox.close(end)
}

// readLoop reads frames until EOF or an EOS frame and injects them
// (receiver links wrapped around an established connection).
func (l *TCPLink) readLoop() {
	defer close(l.readerDone)
	defer l.rxSched.ReleaseExternalSource()
	l.closeInbox(l.readFrames(l.conn))
}

// readFrames injects frames from conn into the inbox until the connection
// ends, and reports how: nil for a bare EOF or a torn-down connection (not
// the stream's end — a resumable listener awaits a replacement sender),
// core.ErrEOS for an explicit EOS frame, ErrMalformedFrame for bytes that
// are not a frame this link accepts from a sender.  The frames of one read
// — the first one waited for, then every whole frame the buffer already
// holds — enter the inbox as one batch with one wake, at the batch's top
// priority; the frames ahead of an EOS or a malformed frame are delivered.
func (l *TCPLink) readFrames(conn net.Conn) error {
	r := bufio.NewReaderSize(conn, rxBufBytes)
	var lenBuf [4]byte
	var batch []frameEntry
	for {
		var wakeAt uthread.Priority
		var end error
		var more bool
		batch, wakeAt, end, more = l.readBatch(r, &lenBuf, batch[:0])
		ok := l.inbox.injectBatch(batch, wakeAt)
		clear(batch) // the inbox holds the payloads now
		if !ok && l.dur != nil {
			return nil // a blocking inbox refuses only when the link is closing
		}
		if !more {
			return end
		}
	}
}

// readBatch appends the frames of one read to batch and reports the wake
// priority they ask for; more is false once the connection has ended, and
// end then says how (see readFrames).
func (l *TCPLink) readBatch(r *bufio.Reader, lenBuf *[4]byte, batch []frameEntry) (_ []frameEntry, wakeAt uthread.Priority, end error, more bool) {
	wakeAt = uthread.PriorityHigh
	for {
		body, err := readFrame(r, lenBuf)
		if err == ErrMalformedFrame {
			return batch, wakeAt, err, false
		}
		if err != nil {
			return batch, wakeAt, nil, false
		}
		h, payload, ok := parseFrame(body)
		if !ok || !h.fromSender(l.dur != nil) {
			return batch, wakeAt, ErrMalformedFrame, false
		}
		// A durable lane drops a replayed frame the pipeline already consumed.
		if l.dur == nil || l.accept(h) {
			if h.kind == kindEOS {
				return batch, wakeAt, core.ErrEOS, false
			}
			if h.flags&flagPrio != 0 {
				wakeAt = max(wakeAt, core.WakePrio(uthread.Priority(h.prio)))
			}
			batch = append(batch, frameEntry{origin: h.origin, seq: h.seq, data: payload})
		}
		if !frameBuffered(r) {
			return batch, wakeAt, nil, true
		}
	}
}

// rxBufBytes sizes the reader's buffer: one read takes in up to this many
// bytes of frames.
const rxBufBytes = 64 << 10

// txFlushBytes caps the transmit buffer: a frame that takes it past this
// many bytes is written at once, batch end or not.
const txFlushBytes = 64 << 10

// setConnLocked installs conn (nil parks the link).  A fresh connection
// starts with nothing staged, no send error and no write deadline armed.
func (l *TCPLink) setConnLocked(conn net.Conn) {
	l.conn = conn
	l.txBuf = l.txBuf[:0]
	l.txErr = nil
	if l.dur != nil {
		l.dur.wdUntil = time.Time{}
	}
}

// writeFrameLocked encodes one frame onto the link's transmit buffer (l.mu
// serialises writers, so one buffer per connection is enough); flushLocked
// writes what is staged, at once when the buffer passes txFlushBytes.  Every
// frame this package puts on a TCP connection goes through these two.
//
//ipvet:hotpath per-frame staging; appends to the connection's transmit buffer
func (l *TCPLink) writeFrameLocked(h frameHeader, payload []byte) error {
	if l.conn == nil {
		// A listener link whose peer has not connected yet, or a parked
		// durable lane: refuse rather than dereference.
		return ErrNoConn
	}
	l.txBuf = appendFrame(l.txBuf, h, payload)
	if len(l.txBuf) >= txFlushBytes {
		return l.flushLocked()
	}
	return nil
}

// flushLocked writes the staged frames in one write, under the durable
// lane's write deadline when there is one.  A failed write is the role's
// policy: a durable sender parks (its journal holds every staged frame, and
// a Redial replays them), a plain sender keeps the error for its next send,
// and a receiver leaves a lost ack to the next connection's handshake.
//
//ipvet:hotpath one write per batch of frames
func (l *TCPLink) flushLocked() error {
	if len(l.txBuf) == 0 {
		return nil
	}
	if l.conn == nil {
		l.txBuf = l.txBuf[:0]
		return ErrNoConn
	}
	if l.dur != nil {
		l.armWriteDeadlineLocked()
	}
	_, err := l.conn.Write(l.txBuf)
	l.txBuf = l.txBuf[:0]
	switch {
	case err == nil, l.inbox != nil:
	case l.dur != nil:
		l.conn.Close()
		l.setConnLocked(nil)
	default:
		l.txErr = err
	}
	return err
}

// send stages one frame on a plain sender link, and writes the staged
// frames at once when now is set.  Sending on a closed link reports
// core.ErrStopped: silently returning success here made tcpSink.Push drop
// items on the floor after Close while the pipeline kept pumping.  A write
// that failed, here or at a batch end, fails this send and every later one.
//
//ipvet:hotpath per-item send on a plain lane
func (l *TCPLink) send(h frameHeader, payload []byte, now bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return core.ErrStopped
	}
	err := l.txErr
	if err == nil {
		err = l.writeFrameLocked(h, payload)
	}
	if err == nil && now {
		err = l.flushLocked()
	}
	if err != nil && err != ErrNoConn {
		return fmt.Errorf("netpipe: tcp send: %w", err) //ipvet:allow hotalloc dead-connection error path, not steady state
	}
	return err
}

// Close tears the link down.  On the receiver side it stops the reader
// goroutine and waits for it to exit.
func (l *TCPLink) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	if l.dur == nil {
		_ = l.flushLocked() // what a plain send accepted goes out ahead of the close
	}
	l.closed = true
	conn := l.conn
	ln := l.ln
	var waiters []core.Waiter
	if l.dur != nil {
		waiters = l.dur.txWaiters.TakeAll()
	}
	l.mu.Unlock()
	for _, w := range waiters {
		w.Wake(msgNetWake) // unblocks senders parked on a full journal
	}
	if ln != nil {
		ln.Close() // unblocks a pending Accept on a listener link
	}
	var err error
	if conn != nil {
		err = conn.Close()
	}
	if l.dur != nil && l.inbox != nil {
		// A durable reader may be parked in a blocking inject (full inbox)
		// or already past its terminal frame; closing the inbox unblocks it
		// so readerDone cannot deadlock.  Teardown, not end of stream: the
		// puller must stop quietly, not propagate a bogus EOS downstream.
		l.inbox.close(core.ErrStopped)
	}
	if l.readerDone != nil {
		<-l.readerDone
	}
	return err
}

// Redial points a sender link at a new peer address: the old connection (if
// any) is closed without an EOS frame — the peer's resumable listener parks
// the lane — and subsequent sends go to the new peer.  On a durable link the
// journal (and any pending EOS) is replayed on the new connection, so the
// stream resumes with zero loss; the peer's dedup watermark drops whatever
// it had already consumed.  The cluster re-placement path uses Redial to
// retarget a stationary upstream at a segment recomposed on another node —
// no pause needed on durable lanes, concurrent sends serialize on the link
// lock and land either before the swap (journaled, replayed) or after.
func (l *TCPLink) Redial(addr string) error {
	conn, err := Dial(addr)
	if err != nil {
		return err
	}
	return l.ResumeConn(conn)
}

// ResumeConn is Redial with the dialing left to the caller: it installs an
// already-established connection on a sender link.  Fault-injection wrappers
// (NewChaosConn) and custom transports plug in here.
func (l *TCPLink) ResumeConn(conn net.Conn) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		conn.Close()
		return core.ErrStopped
	}
	if l.dur == nil {
		_ = l.flushLocked() // a plain link's staged frames belong to the old peer
	}
	old := l.conn
	l.setConnLocked(conn)
	var rerr error
	if l.dur != nil && l.inbox == nil {
		go l.ackLoop(conn)
		if rerr = l.dur.tx.replay(l.writeFrameLocked); rerr == nil {
			rerr = l.flushLocked()
		}
	}
	l.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return rerr
}

// Dropped reports how many inbound frames the receiver side discarded
// (queue-limit overflow or injection after close).  Zero on sender links.
func (l *TCPLink) Dropped() int64 {
	if l.inbox == nil {
		return 0
	}
	return l.inbox.dropped()
}

// NewSink returns the producer-side endpoint component.
func (l *TCPLink) NewSink(name string) core.Component {
	return &tcpSink{Base: core.Base{CompName: name}, link: l}
}

type tcpSink struct {
	core.Base
	link *TCPLink
}

var (
	_ core.Consumer   = (*tcpSink)(nil)
	_ core.EOSSink    = (*tcpSink)(nil)
	_ core.BatchEnder = (*tcpSink)(nil)
)

// Style implements core.Component.
func (s *tcpSink) Style() core.Style { return core.StyleConsumer }

// InputSpec implements core.Component.
func (s *tcpSink) InputSpec() typespec.Typespec { return typespec.New(ItemTypeWire) }

// Push implements core.Consumer.  A closed link propagates core.ErrStopped
// so the pipeline learns the connection is gone instead of pumping items
// into the void.
func (s *tcpSink) Push(ctx *core.Ctx, it *item.Item) error {
	data, ok := it.Payload.([]byte)
	if !ok {
		return fmt.Errorf("netpipe: tcp sink %q: payload %T is not []byte (insert a marshal filter)", s.Name(), it.Payload)
	}
	// The sender's effective priority (the tenant priority carried by the
	// pump constraint) rides the wire when it is non-default, so the
	// receiving scheduler enqueues at the sender's priority.
	prio := uthread.PriorityNormal
	if ctx != nil {
		prio = core.SenderPriority(ctx.Thread())
	}
	var err error
	if s.link.dur != nil {
		// The marshal filter preserved the item's origin and sequence — the
		// durable lane journals and dedups on the pair end to end.
		err = s.link.sendDurable(ctx.Thread(), ctx.Stopping, ctx.Detaching, dataHeader(prio).withSeq(it.Origin, it.Seq), data)
	} else {
		// Outside a pipeline no batch end will come: write at once.
		err = s.link.send(dataHeader(prio), data, ctx == nil)
	}
	if err == nil {
		it.Recycle() // wire item consumed: its bytes are on the network
	}
	return err
}

// HandleEOS implements core.EOSSink.
func (s *tcpSink) HandleEOS(*core.Ctx) { s.sendEOS() }

// BatchEnd implements core.BatchEnder: the sending pump's thread gives up
// the CPU, so the frames its batch staged go out in one write.
func (s *tcpSink) BatchEnd() {
	s.link.mu.Lock()
	_ = s.link.flushLocked() // a failure is flushLocked's policy
	s.link.mu.Unlock()
}

// HandleEvent implements core.Component.
func (s *tcpSink) HandleEvent(_ *core.Ctx, ev events.Event) {
	if ev.Type == events.Stop {
		s.sendEOS()
	}
}

func (s *tcpSink) sendEOS() {
	if s.link.dur != nil {
		_ = s.link.sendEOSDurable()
		return
	}
	_ = s.link.send(frameHeader{kind: kindEOS}, nil, true)
}

// NewSource returns the consumer-side endpoint component.
func (l *TCPLink) NewSource(name string) core.Component {
	return &tcpSource{Base: core.Base{CompName: name}, link: l}
}

type tcpSource struct {
	core.Base
	link *TCPLink
}

var _ core.Producer = (*tcpSource)(nil)

// Style implements core.Component.
func (s *tcpSource) Style() core.Style { return core.StyleProducer }

// TransformSpec implements core.Component: the location property changes
// at the netpipe (§2.4).
func (s *tcpSource) TransformSpec(in typespec.Typespec) typespec.Typespec {
	out := in.Clone()
	out.ItemType = ItemTypeWire
	if s.link.rxNode != "" {
		out.Location = s.link.rxNode
	}
	return out
}

// Pull implements core.Producer.
func (s *tcpSource) Pull(ctx *core.Ctx) (*item.Item, error) {
	var e frameEntry
	var err error
	if s.link.dur != nil {
		e, err = s.link.popDurable(ctx.Thread(), ctx.Stopping)
	} else {
		e, err = s.link.inbox.pop(ctx.Thread(), ctx.Stopping)
	}
	if err != nil {
		return nil, err
	}
	// Plain lanes carry neither field: the entry's zeros are the item's.
	it := item.New(e.data, e.seq, ctx.Now()).WithSize(len(e.data))
	it.Origin = e.origin
	return it, nil
}

// SenderStages returns the canonical producer-side tail for this link —
// marshal filter plus sink — wired to the default binary codec with the
// streaming gob fallback (TCP is reliable and ordered, so gob type
// descriptors cross the wire once per connection).
func (l *TCPLink) SenderStages(name string) []core.Stage {
	return []core.Stage{
		core.Comp(NewMarshalFilter(name+"/marshal", NewStreamingBinaryMarshaller())),
		core.Comp(l.NewSink(name + "/sink")),
	}
}

// ReceiverStages returns the canonical consumer-side head for this link —
// source plus unmarshal filter — wired to the default binary codec.
func (l *TCPLink) ReceiverStages(name string) []core.Stage {
	return []core.Stage{
		core.Comp(l.NewSource(name + "/source")),
		core.Comp(NewUnmarshalFilter(name+"/unmarshal", NewBinaryMarshaller())),
	}
}

// Listen accepts exactly one inbound connection on addr — the simple
// rendezvous used by the examples and tests.
func Listen(addr string) (net.Conn, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("netpipe: listen %s: %w", addr, err)
	}
	defer ln.Close()
	conn, err := ln.Accept()
	if err != nil {
		return nil, nil, fmt.Errorf("netpipe: accept on %s: %w", addr, err)
	}
	return conn, ln.Addr(), nil
}

// Dial connects to a listening peer.
func Dial(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netpipe: dial %s: %w", addr, err)
	}
	if w := dialWrap.Load(); w != nil {
		conn = (*w)(conn)
	}
	return conn, nil
}

// dialWrap is the fault-injection seam on outbound data lanes: when set,
// every connection Dial establishes is passed through the wrapper (chaos
// tests install NewChaosConn here to run whole deployments over
// misbehaving lanes).  Nil — a plain passthrough — in production.
var dialWrap atomic.Pointer[func(net.Conn) net.Conn]

// SetDialWrapper installs (or, with nil, removes) the wrapper Dial applies
// to every outbound data-lane connection.  Install before the lanes dial;
// the wrapper must be safe for concurrent use.
func SetDialWrapper(f func(net.Conn) net.Conn) {
	if f == nil {
		dialWrap.Store(nil)
		return
	}
	dialWrap.Store(&f)
}

// ErrNoConn is returned by helpers when no connection is available.
var ErrNoConn = errors.New("netpipe: no connection")
