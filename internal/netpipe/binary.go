package netpipe

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"time"

	"infopipes/internal/item"
)

// This file implements the hand-rolled binary wire codec that replaces gob
// on the marshalling hot path.  Gob spends most of its per-item budget
// re-emitting type descriptors and reflecting over the payload; for the
// payloads that actually cross netpipes (media frames, MIDI events, byte
// slices, scalars) a length-prefixed binary layout with pooled scratch
// buffers encodes in a handful of allocations.  Exotic payloads fall back
// to gob — either self-contained per item (loss-tolerant, the default) or
// as one streaming encoder per connection, which sends type descriptors
// once instead of per item and therefore requires a reliable, ordered
// transport such as TCP.

// Wire-format tags discriminating the three frame encodings.
const (
	wireBinary byte = 'B' // hand-rolled binary layout, self-contained
	wireGobOne byte = 'G' // self-contained gob (one encoder per item)
	wireGobStr byte = 'S' // chunk of a per-connection gob stream
)

// Attribute/payload scalar type codes used by the binary layout.
const (
	binNil    byte = 0
	binBytes  byte = 1
	binString byte = 2
	binInt64  byte = 3
	binInt    byte = 4
	binFloat  byte = 5
	binBool   byte = 6
	// binCustomBase is the first payload code available to codecs installed
	// with RegisterBinaryPayload.
	binCustomBase byte = 32
)

// PayloadAppender appends the binary encoding of v to dst.
type PayloadAppender func(dst []byte, v any) []byte

// PayloadParser decodes a payload produced by the matching appender,
// returning the value and the unconsumed remainder of src.
type PayloadParser func(src []byte) (v any, rest []byte, err error)

// binCodec is one registered payload codec.
type binCodec struct {
	id     byte
	append PayloadAppender
	parse  PayloadParser
}

var (
	binMu      sync.RWMutex
	binByType  = map[reflect.Type]*binCodec{}
	binByID    [256]*binCodec
	errBinSkip = fmt.Errorf("netpipe: payload not binary-codable")
)

// The decoder's malformed-frame errors that carry no detail: sentinels, so
// the per-item decode path allocates nothing even when it fails.
var (
	errEmptyFrame         = errors.New("netpipe: unmarshal: empty frame")
	errTruncatedTimeFlag  = errors.New("netpipe: binary decode: truncated time flag")
	errTruncatedTimestamp = errors.New("netpipe: binary decode: truncated timestamp")
)

// RegisterBinaryPayload installs a binary codec for the concrete type of
// prototype under the given code (>= 32).  Both peers of a link must
// register the same codecs; unregistered payload types transparently fall
// back to gob.  Re-registering a code or type replaces the previous codec.
func RegisterBinaryPayload(code byte, prototype any, app PayloadAppender, parse PayloadParser) {
	if code < binCustomBase {
		panic(fmt.Sprintf("netpipe: RegisterBinaryPayload code %d is reserved (must be >= %d)", code, binCustomBase))
	}
	c := &binCodec{id: code, append: app, parse: parse}
	binMu.Lock()
	binByType[reflect.TypeOf(prototype)] = c
	binByID[code] = c
	binMu.Unlock()
}

// lookupByType finds the codec for v's concrete type, or nil.
func lookupByType(v any) *binCodec {
	binMu.RLock()
	c := binByType[reflect.TypeOf(v)]
	binMu.RUnlock()
	return c
}

// lookupByID finds the codec for a wire code, or nil.
func lookupByID(id byte) *binCodec {
	binMu.RLock()
	c := binByID[id]
	binMu.RUnlock()
	return c
}

// ---------------------------------------------------------- scratch pools

// scratchPool recycles marshal scratch buffers so encoding allocates only
// the final exact-size output slice.
var scratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// bufferPool recycles bytes.Buffers for the self-contained gob fallback.
var bufferPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ------------------------------------------------------- field primitives

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }
func appendVarint(dst []byte, v int64) []byte   { return binary.AppendVarint(dst, v) }

func appendBytes(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func parseUvarint(src []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, nil, fmt.Errorf("netpipe: binary decode: truncated uvarint")
	}
	return v, src[n:], nil
}

func parseVarint(src []byte) (int64, []byte, error) {
	v, n := binary.Varint(src)
	if n <= 0 {
		return 0, nil, fmt.Errorf("netpipe: binary decode: truncated varint")
	}
	return v, src[n:], nil
}

func parseBytes(src []byte) ([]byte, []byte, error) {
	n, rest, err := parseUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(rest)) < n {
		return nil, nil, fmt.Errorf("netpipe: binary decode: truncated bytes (want %d, have %d)", n, len(rest))
	}
	return rest[:n:n], rest[n:], nil
}

func parseString(src []byte) (string, []byte, error) {
	b, rest, err := parseBytes(src)
	return string(b), rest, err
}

// appendValue appends one scalar/bytes value with its type code, or reports
// that the value needs the gob fallback.
func appendValue(dst []byte, v any) ([]byte, bool) {
	switch x := v.(type) {
	case nil:
		return append(dst, binNil), true
	case []byte:
		return appendBytes(append(dst, binBytes), x), true
	case string:
		return appendString(append(dst, binString), x), true
	case int64:
		return appendVarint(append(dst, binInt64), x), true
	case int:
		return appendVarint(append(dst, binInt), int64(x)), true
	case float64:
		return binary.BigEndian.AppendUint64(append(dst, binFloat), math.Float64bits(x)), true
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		return append(dst, binBool, b), true
	}
	if c := lookupByType(v); c != nil {
		return c.append(append(dst, c.id), v), true
	}
	return dst, false
}

// parseValue decodes one value written by appendValue.
func parseValue(src []byte) (any, []byte, error) {
	if len(src) == 0 {
		return nil, nil, fmt.Errorf("netpipe: binary decode: missing value code")
	}
	code, rest := src[0], src[1:]
	switch code {
	case binNil:
		return nil, rest, nil
	case binBytes:
		return parseBytesAny(rest)
	case binString:
		s, rest, err := parseString(rest)
		return s, rest, err
	case binInt64:
		v, rest, err := parseVarint(rest)
		return v, rest, err
	case binInt:
		v, rest, err := parseVarint(rest)
		return int(v), rest, err
	case binFloat:
		if len(rest) < 8 {
			return nil, nil, fmt.Errorf("netpipe: binary decode: truncated float64")
		}
		return math.Float64frombits(binary.BigEndian.Uint64(rest)), rest[8:], nil
	case binBool:
		if len(rest) < 1 {
			return nil, nil, fmt.Errorf("netpipe: binary decode: truncated bool")
		}
		return rest[0] != 0, rest[1:], nil
	}
	if c := lookupByID(code); c != nil {
		return c.parse(rest)
	}
	return nil, nil, fmt.Errorf("netpipe: binary decode: unknown payload code %d (peer registered a codec this side lacks?)", code)
}

func parseBytesAny(src []byte) (any, []byte, error) {
	b, rest, err := parseBytes(src)
	if err != nil {
		return nil, nil, err
	}
	return b, rest, nil
}

// ---------------------------------------------------------- the marshaller

// BinaryMarshaller is the default wire codec: a length-prefixed binary
// layout for the common payloads with pooled scratch buffers, falling back
// to gob for payload or attribute types it cannot encode.  Construct with
// NewBinaryMarshaller (self-contained gob fallback, safe on lossy links) or
// NewStreamingBinaryMarshaller (one gob stream per connection — type
// descriptors cross the wire once, but frames must arrive reliably and in
// order, e.g. over TCP).  A marshaller instance belongs to one link
// direction; the decode side understands all three frame encodings
// regardless of which constructor built it.
type BinaryMarshaller struct {
	stream bool

	encMu  sync.Mutex
	encBuf bytes.Buffer
	genc   *gob.Encoder

	decMu  sync.Mutex
	decBuf bytes.Buffer
	gdec   *gob.Decoder
}

var _ Marshaller = (*BinaryMarshaller)(nil)

// NewBinaryMarshaller returns a binary codec whose gob fallback is
// self-contained per item: any frame can be decoded in isolation, so lossy
// links (SimLink with LossProb > 0) stay safe even for exotic payloads.
func NewBinaryMarshaller() *BinaryMarshaller {
	return &BinaryMarshaller{}
}

// NewStreamingBinaryMarshaller returns a binary codec whose gob fallback
// shares one encoder for the life of the marshaller, so gob type
// descriptors are transmitted once per connection instead of once per item.
// Use it on reliable, ordered links (TCP); on a lossy link a dropped
// fallback frame would desynchronise the peer's decoder.
func NewStreamingBinaryMarshaller() *BinaryMarshaller {
	return &BinaryMarshaller{stream: true}
}

// Marshal implements Marshaller.
//
//ipvet:hotpath per-item wire encoding on the send side
func (m *BinaryMarshaller) Marshal(it *item.Item) ([]byte, error) {
	sp := scratchPool.Get().(*[]byte)
	buf, err := m.appendItem((*sp)[:0], it)
	if err == nil {
		//ipvet:allow hotalloc the Marshaller contract hands the frame to the caller; one owned slice per frame is the interface's floor
		out := make([]byte, len(buf))
		copy(out, buf)
		*sp = buf[:0]
		scratchPool.Put(sp)
		return out, nil
	}
	*sp = (*sp)[:0]
	scratchPool.Put(sp)
	if err != errBinSkip {
		return nil, err
	}
	return m.marshalFallback(it)
}

// appendItem appends the binary encoding of it, or errBinSkip when a
// payload or attribute type needs the gob fallback.
//
//ipvet:hotpath binary encoder body; appends into a pooled scratch buffer
func (m *BinaryMarshaller) appendItem(dst []byte, it *item.Item) ([]byte, error) {
	dst = append(dst, wireBinary)
	dst = appendVarint(dst, it.Seq)
	// One flags byte: bit 0 = timestamp follows, bit 1 = merge origin
	// follows.  Items that never crossed a merge (Origin == 0) keep the
	// pre-origin encoding byte-for-byte.
	flag := byte(0)
	if !it.Created.IsZero() {
		flag |= 1
	}
	if it.Origin != 0 {
		flag |= 2
	}
	dst = append(dst, flag)
	if flag&1 != 0 {
		dst = binary.BigEndian.AppendUint64(dst, uint64(it.Created.UnixNano()))
	}
	if flag&2 != 0 {
		dst = appendVarint(dst, it.Origin)
	}
	dst = appendUvarint(dst, uint64(it.Size))
	dst = appendUvarint(dst, uint64(len(it.Attrs)))
	for k, v := range it.Attrs {
		dst = appendString(dst, k)
		var ok bool
		if dst, ok = appendValue(dst, v); !ok {
			return nil, errBinSkip
		}
	}
	var ok bool
	if dst, ok = appendValue(dst, it.Payload); !ok {
		return nil, errBinSkip
	}
	return dst, nil
}

// marshalFallback gob-encodes the item, streaming or self-contained.
func (m *BinaryMarshaller) marshalFallback(it *item.Item) ([]byte, error) {
	w := wireItem{Seq: it.Seq, Origin: it.Origin, Created: it.Created, Size: it.Size, Attrs: it.Attrs, Payload: it.Payload}
	if m.stream {
		m.encMu.Lock()
		defer m.encMu.Unlock()
		if m.genc == nil {
			m.genc = gob.NewEncoder(&m.encBuf)
		}
		m.encBuf.Reset()
		if err := m.genc.Encode(&w); err != nil {
			return nil, fmt.Errorf("netpipe: marshal item seq %d: %w", it.Seq, err)
		}
		out := make([]byte, 1+m.encBuf.Len())
		out[0] = wireGobStr
		copy(out[1:], m.encBuf.Bytes())
		return out, nil
	}
	buf := bufferPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.WriteByte(wireGobOne)
	if err := gob.NewEncoder(buf).Encode(&w); err != nil {
		bufferPool.Put(buf)
		return nil, fmt.Errorf("netpipe: marshal item seq %d: %w", it.Seq, err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	bufferPool.Put(buf)
	return out, nil
}

// Unmarshal implements Marshaller.
//
//ipvet:hotpath per-item wire decoding on the receive side
func (m *BinaryMarshaller) Unmarshal(data []byte) (*item.Item, error) {
	if len(data) == 0 {
		return nil, errEmptyFrame
	}
	switch data[0] {
	case wireBinary:
		return parseItem(data[1:])
	case wireGobOne:
		var w wireItem
		if err := gob.NewDecoder(bytes.NewReader(data[1:])).Decode(&w); err != nil {
			return nil, fmt.Errorf("netpipe: unmarshal: %w", err) //ipvet:allow hotalloc malformed-frame error path
		}
		return itemFromWire(&w), nil
	case wireGobStr:
		m.decMu.Lock()
		defer m.decMu.Unlock()
		if m.gdec == nil {
			m.gdec = gob.NewDecoder(&m.decBuf)
		}
		m.decBuf.Write(data[1:])
		var w wireItem
		if err := m.gdec.Decode(&w); err != nil {
			return nil, fmt.Errorf("netpipe: unmarshal (gob stream): %w", err) //ipvet:allow hotalloc malformed-frame error path
		}
		return itemFromWire(&w), nil
	default:
		return nil, fmt.Errorf("netpipe: unmarshal: unknown frame encoding %#x", data[0]) //ipvet:allow hotalloc malformed-frame error path
	}
}

// parseItem decodes a wireBinary body into a pooled item.
//
//ipvet:hotpath binary decoder body; fills a freelist item in place
func parseItem(src []byte) (*item.Item, error) {
	seq, src, err := parseVarint(src)
	if err != nil {
		return nil, err
	}
	var created time.Time
	if len(src) == 0 {
		return nil, errTruncatedTimeFlag
	}
	flag := src[0]
	src = src[1:]
	if flag&1 != 0 {
		if len(src) < 8 {
			return nil, errTruncatedTimestamp
		}
		created = time.Unix(0, int64(binary.BigEndian.Uint64(src)))
		src = src[8:]
	}
	var origin int64
	if flag&2 != 0 {
		if origin, src, err = parseVarint(src); err != nil {
			return nil, err
		}
	}
	size, src, err := parseUvarint(src)
	if err != nil {
		return nil, err
	}
	nattrs, src, err := parseUvarint(src)
	if err != nil {
		return nil, err
	}
	it := item.New(nil, seq, created).WithSize(int(size))
	it.Origin = origin
	for i := uint64(0); i < nattrs; i++ {
		var k string
		if k, src, err = parseString(src); err != nil {
			it.Recycle()
			return nil, err
		}
		var v any
		if v, src, err = parseValue(src); err != nil {
			it.Recycle()
			return nil, err
		}
		it.SetAttr(k, v)
	}
	payload, _, err := parseValue(src)
	if err != nil {
		it.Recycle()
		return nil, err
	}
	it.Payload = payload
	return it, nil
}

// itemFromWire converts a gob wireItem into a pooled item.
func itemFromWire(w *wireItem) *item.Item {
	it := item.New(w.Payload, w.Seq, w.Created).WithSize(w.Size)
	it.Origin = w.Origin
	it.Attrs = w.Attrs
	return it
}
