package netpipe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
)

// frameCase is one of the 3 kinds × 8 flag combinations, with the frame
// bytes spelled out by hand — the wire contract between nodes, independent
// of appendFrame.
type frameCase struct {
	name    string
	hdr     frameHeader
	payload []byte
	wire    []byte
}

func frameCases() []frameCase {
	const (
		prio   = byte(0xab)
		origin = int64(0x0102030405060708)
		seq    = int64(0x1112131415161718)
	)
	payload := []byte("media")
	var cases []frameCase
	for _, kind := range []byte{kindData, kindEOS, kindAck} {
		for bits := byte(0); bits < 8; bits++ {
			flags := bits << 4
			h := frameHeader{kind: kind, flags: flags}
			fields := []byte{kind | flags}
			if flags&flagPrio != 0 {
				h.prio = prio
				fields = append(fields, prio)
			}
			if flags&flagOrigin != 0 {
				h.origin = origin
				fields = append(fields, 1, 2, 3, 4, 5, 6, 7, 8)
			}
			if flags&flagSeq != 0 {
				h.seq = seq
				fields = append(fields, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18)
			}
			body := append(fields, payload...)
			wire := append([]byte{0, 0, 0, byte(len(body))}, body...)
			cases = append(cases, frameCase{
				name:    fmt.Sprintf("kind%d/flags%#02x", kind, flags),
				hdr:     h,
				payload: payload,
				wire:    wire,
			})
		}
	}
	return cases
}

// headerLenBeforeFlags is the header size (tag + fields) of each of the ten
// tag-per-combination frame kinds the flag bits replaced, keyed by the tag
// that now spells the same combination.  Every combination's frame must stay
// exactly as long as it was.
var headerLenBeforeFlags = map[byte]int{
	kindData:                                   1,  // frameData
	kindData | flagPrio:                        2,  // frameDataPrio
	kindData | flagSeq:                         9,  // frameDataSeq
	kindData | flagSeq | flagPrio:              10, // frameDataSeqPrio
	kindData | flagSeq | flagOrigin:            17, // frameDataOSeq
	kindData | flagSeq | flagOrigin | flagPrio: 18, // frameDataOSeqPrio
	kindEOS:                        1,  // frameEOS
	kindEOS | flagSeq:              9,  // frameEOSSeq
	kindAck | flagSeq:              9,  // frameAck
	kindAck | flagSeq | flagOrigin: 17, // frameAckO
}

// TestFrameLayoutRoundTrip pins the byte layout of every kind × flag
// combination and takes each through appendFrame → readFrame → parseFrame.
func TestFrameLayoutRoundTrip(t *testing.T) {
	for _, c := range frameCases() {
		t.Run(c.name, func(t *testing.T) {
			got := appendFrame(nil, c.hdr, c.payload)
			if !bytes.Equal(got, c.wire) {
				t.Fatalf("appendFrame = % x\nwant          % x", got, c.wire)
			}
			if n := binary.BigEndian.Uint32(got[:4]); int(n) != len(got)-4 {
				t.Fatalf("length prefix %d, want %d", n, len(got)-4)
			}
			if want, ok := headerLenBeforeFlags[c.hdr.kind|c.hdr.flags]; ok && len(got) != 4+want+len(c.payload) {
				t.Fatalf("frame is %d bytes, was %d before the flag bits", len(got), 4+want+len(c.payload))
			}
			// Appending after existing bytes leaves them alone and prefixes
			// the right length.
			if two := appendFrame(got, c.hdr, c.payload); !bytes.Equal(two[len(got):], c.wire) || !bytes.Equal(two[:len(got)], c.wire) {
				t.Fatalf("second frame in one buffer = % x", two)
			}

			var lenBuf [4]byte
			body, err := readFrame(bytes.NewReader(got), &lenBuf)
			if err != nil {
				t.Fatalf("readFrame: %v", err)
			}
			h, payload, ok := parseFrame(body)
			if !ok || h != c.hdr || !bytes.Equal(payload, c.payload) {
				t.Fatalf("parseFrame = %+v %q ok=%v, want %+v %q", h, payload, ok, c.hdr, c.payload)
			}
			// Each optional field is required once announced.
			if hdrLen := len(body) - len(c.payload); hdrLen > 1 {
				if _, _, ok := parseFrame(body[:hdrLen-1]); ok {
					t.Fatalf("parseFrame accepted a body one byte short of its header")
				}
			}
		})
	}
}

// TestAppendFrameReusesBuffer: framing into a sized transmit buffer does not
// allocate, whatever the header carries.
func TestAppendFrameReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, c := range frameCases() {
		if got := testing.AllocsPerRun(100, func() {
			buf = appendFrame(buf[:0], c.hdr, c.payload)
		}); got != 0 {
			t.Errorf("%s: appendFrame into a sized buffer allocated %v/op", c.name, got)
		}
	}
}

func TestParseFrameRejects(t *testing.T) {
	for _, body := range [][]byte{
		nil,
		{0x00},       // kind 0
		{0x04},       // kind past ack
		{0x0f, 1, 2}, // kind past ack
		{0x81, 'x'},  // reserved flag bit
	} {
		if h, _, ok := parseFrame(body); ok {
			t.Errorf("parseFrame(% x) = %+v, want rejected", body, h)
		}
	}
}

func TestReadFrameErrors(t *testing.T) {
	var lenBuf [4]byte
	for _, wire := range [][]byte{
		{0, 0, 0, 0},          // empty body
		{0x04, 0, 0, 1, 0x01}, // 64 MiB + 1
	} {
		if _, err := readFrame(bytes.NewReader(wire), &lenBuf); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("readFrame(% x) = %v, want ErrMalformedFrame", wire, err)
		}
	}
	// A connection that dies mid-frame is an I/O error, not a malformed frame.
	for _, wire := range [][]byte{nil, {0, 0}, {0, 0, 0, 3, 0x01}} {
		if _, err := readFrame(bytes.NewReader(wire), &lenBuf); err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Errorf("readFrame(% x) = %v, want EOF", wire, err)
		}
	}
}

// TestFrameRoles: which parsed frames each end accepts.  Senders emit data
// and EOS, sequenced exactly when the lane is durable.
func TestFrameRoles(t *testing.T) {
	plain, durable := dataHeader(0), dataHeader(0).withSeq(0, 7)
	merged := dataHeader(0).withSeq(3, 7)
	for _, c := range []struct {
		h              frameHeader
		plain, durable bool
	}{
		{plain, true, false},
		{durable, false, true},
		{merged, false, true},
		{frameHeader{kind: kindData, flags: flagOrigin}, false, false},
		{frameHeader{kind: kindEOS}, true, false},
		{frameHeader{kind: kindEOS}.withSeq(0, 7), false, true},
		{frameHeader{kind: kindAck}.withSeq(0, 7), false, false},
	} {
		if got := c.h.fromSender(false); got != c.plain {
			t.Errorf("%+v on a plain lane: accepted=%v, want %v", c.h, got, c.plain)
		}
		if got := c.h.fromSender(true); got != c.durable {
			t.Errorf("%+v on a durable lane: accepted=%v, want %v", c.h, got, c.durable)
		}
	}
	// The one-byte priority field clamps instead of wrapping.
	if prioByte(-3) != 0 || prioByte(1000) != 255 {
		t.Fatalf("prioByte clamps: got %d/%d, want 0/255", prioByte(-3), prioByte(1000))
	}
}

// FuzzParseFrame: parseFrame never panics, and whatever it accepts is
// canonical — re-encoding the header and payload reproduces the input.
func FuzzParseFrame(f *testing.F) {
	for _, c := range frameCases() {
		f.Add(c.wire[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{0x7f})
	f.Fuzz(func(t *testing.T, body []byte) {
		h, payload, ok := parseFrame(body)
		if !ok {
			return
		}
		if again := appendFrame(nil, h, payload); !bytes.Equal(again[4:], body) {
			t.Fatalf("parse(% x) = %+v %x re-encodes to % x", body, h, payload, again[4:])
		}
	})
}
