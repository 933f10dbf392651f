package netpipe

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"

	"infopipes/internal/uthread"
)

// The wire format of a TCP lane lives in this file and nowhere else:
//
//	[u32 len][tag][prio 1B?][origin 8B BE?][seq 8B BE?][payload]
//
// len counts everything after itself.  tag carries the frame kind in its low
// nibble and one presence bit per optional field in its high nibble; the
// fields that are present follow in the fixed order above, each fixed-width.
// A plain lane's data and EOS frames set no bit, so their header is the bare
// kind byte.

// Frame kinds (low nibble of the tag).
const (
	kindData byte = 1
	// kindEOS ends the stream.  On a durable lane it carries the last data
	// sequence, so the receiver can tell a complete stream from a truncated
	// one.
	kindEOS byte = 2
	// kindAck flows receiver→sender on the same connection (TCP is full
	// duplex) and carries the cumulative highest (origin, seq) the receiver
	// has durably consumed.
	kindAck byte = 3
)

// Presence bits (high nibble of the tag).
const (
	// flagPrio: one byte, the SENDER's effective priority, so a lane relay
	// stops being pass-through — the receiving scheduler wakes its consumer at
	// the sender's priority and a tenant's priority survives the hop.
	flagPrio byte = 0x10
	// flagOrigin: the item's merge provenance.  A merge interleaves its
	// branches' sequence numbers, so below one the lane journals and
	// acknowledges the (origin, seq) PAIR instead of the bare sequence.
	flagOrigin byte = 0x20
	// flagSeq: the item's source-assigned sequence — every data, EOS and ack
	// frame of a durable lane, and none of a plain one.
	flagSeq byte = 0x40

	flagMask = flagPrio | flagOrigin | flagSeq
)

// maxFrame bounds the length prefix a reader accepts.
const maxFrame = 64 << 20

// ackAll is the cumulative ack value meaning "everything, including the
// EOS frame, has been delivered and drained".
const ackAll int64 = 1<<63 - 1

// ErrMalformedFrame reports bytes on a lane that are not a frame this end
// can accept: a bad length prefix, an unknown tag, a body shorter than the
// fields its tag announces, or a frame kind the link's role or durability
// rules out.  It is a connection failure, never an end of stream.
var ErrMalformedFrame = errors.New("netpipe: malformed frame")

// frameHeader is everything a frame says besides its payload.  A field is
// meaningful only when its presence bit is set in flags.
type frameHeader struct {
	kind, flags, prio byte
	origin, seq       int64
}

// dataHeader starts a data frame sent at prio.  Only a non-default priority
// rides the wire, so default-tenant traffic pays no priority byte.
func dataHeader(prio uthread.Priority) frameHeader {
	if prio == uthread.PriorityNormal {
		return frameHeader{kind: kindData}
	}
	return frameHeader{kind: kindData, flags: flagPrio, prio: prioByte(prio)}
}

// withSeq adds the durable-lane (origin, seq) pair.  Origin 0 — no merge
// upstream — is left off the wire.
func (h frameHeader) withSeq(origin, seq int64) frameHeader {
	h.flags |= flagSeq
	h.seq = seq
	if origin != 0 {
		h.flags |= flagOrigin
		h.origin = origin
	}
	return h
}

// fromSender reports whether h is a frame a sender may put on a lane of the
// given durability: data or EOS, sequenced exactly when the lane is durable,
// an origin only ever qualifying a sequence.
func (h frameHeader) fromSender(durable bool) bool {
	if h.kind == kindAck {
		return false
	}
	if durable {
		return h.flags&flagSeq != 0
	}
	return h.flags&(flagSeq|flagOrigin) == 0
}

// prioByte encodes a scheduling priority into the wire's one-byte field
// (clamped; every standard level fits).
func prioByte(p uthread.Priority) byte {
	if p < 0 {
		return 0
	}
	if p > 255 {
		return 255
	}
	return byte(p)
}

// appendFrame appends the length-prefixed frame for h and payload to dst and
// returns the extended buffer.  Senders keep one transmit buffer per
// connection and pass it re-sliced to zero length, so steady-state framing
// reuses the same allocation.
//
//ipvet:hotpath per-item wire framing; reuses the caller's transmit buffer
func appendFrame(dst []byte, h frameHeader, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, h.kind|h.flags)
	if h.flags&flagPrio != 0 {
		dst = append(dst, h.prio)
	}
	if h.flags&flagOrigin != 0 {
		dst = binary.BigEndian.AppendUint64(dst, uint64(h.origin))
	}
	if h.flags&flagSeq != 0 {
		dst = binary.BigEndian.AppendUint64(dst, uint64(h.seq))
	}
	dst = append(dst, payload...)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// parseFrame splits a frame body (the bytes after the length prefix) into
// header and payload; the payload aliases body.  ok is false for an unknown
// kind or flag bit and for a body shorter than the fields its tag announces.
func parseFrame(body []byte) (h frameHeader, payload []byte, ok bool) {
	if len(body) == 0 {
		return h, nil, false
	}
	h.kind, h.flags = body[0]&0x0f, body[0]&0xf0
	if h.kind < kindData || h.kind > kindAck || h.flags&^flagMask != 0 {
		return h, nil, false
	}
	body = body[1:]
	if h.flags&flagPrio != 0 {
		if len(body) < 1 {
			return h, nil, false
		}
		h.prio, body = body[0], body[1:]
	}
	if h.flags&flagOrigin != 0 {
		if len(body) < 8 {
			return h, nil, false
		}
		h.origin, body = int64(binary.BigEndian.Uint64(body[:8])), body[8:]
	}
	if h.flags&flagSeq != 0 {
		if len(body) < 8 {
			return h, nil, false
		}
		h.seq, body = int64(binary.BigEndian.Uint64(body[:8])), body[8:]
	}
	return h, body, true
}

// readFrame reads one length-prefixed frame body off r.  lenBuf is the
// caller's per-connection scratch for the prefix, so reading it does not
// allocate per frame.  An I/O error is returned as is (the connection is
// gone); a length outside (0, maxFrame] is ErrMalformedFrame.
func readFrame(r io.Reader, lenBuf *[4]byte) ([]byte, error) {
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > maxFrame {
		return nil, ErrMalformedFrame
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// frameBuffered reports whether r's buffer already holds a whole frame, so
// that reading it costs no syscall.  A length prefix no frame can have
// counts as whole: readFrame reports it without reading further.
func frameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < 4 {
		return false
	}
	p, _ := r.Peek(4)
	n := binary.BigEndian.Uint32(p)
	return n == 0 || n > maxFrame || r.Buffered()-4 >= int(n)
}
