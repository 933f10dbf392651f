package netpipe

import (
	"math"
	"reflect"
	"testing"
	"time"

	"infopipes/internal/item"
	"infopipes/internal/media"
)

var bt0 = time.Date(2001, 11, 12, 13, 14, 15, 161718, time.UTC)

func roundTrip(t *testing.T, m Marshaller, it *item.Item) *item.Item {
	t.Helper()
	data, err := m.Marshal(it)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := m.Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return got
}

func TestBinaryRoundTripFrame(t *testing.T) {
	m := NewBinaryMarshaller()
	f := &media.Frame{Type: media.FrameP, Seq: 42, PTS: 350 * time.Millisecond,
		Bytes: 6000, Refs: []int64{40, 37}, Decoded: false}
	it := item.New(f, 42, bt0).WithSize(6000).WithAttr("frametype", "P").WithAttr("prio", 3)
	got := roundTrip(t, m, it)
	if got.Seq != 42 || !got.Created.Equal(bt0) || got.Size != 6000 {
		t.Errorf("header fields wrong: %+v", got)
	}
	gf, ok := got.Payload.(*media.Frame)
	if !ok {
		t.Fatalf("payload is %T, want *media.Frame", got.Payload)
	}
	if gf.Type != media.FrameP || gf.Seq != 42 || gf.PTS != 350*time.Millisecond ||
		gf.Bytes != 6000 || len(gf.Refs) != 2 || gf.Refs[0] != 40 || gf.Refs[1] != 37 || gf.Decoded {
		t.Errorf("frame fields wrong: %+v", gf)
	}
	if got.AttrString("frametype") != "P" || got.AttrInt("prio") != 3 {
		t.Errorf("attrs wrong: %v", got.Attrs)
	}
}

// scalarPayloads is one payload per binary value code, plus a registered
// payload codec.
func scalarPayloads() []any {
	return []any{
		nil,
		[]byte{1, 2, 3},
		"hello",
		int64(-77),
		int(12345),
		3.25,
		true,
		&media.MidiEvent{Channel: 3, Note: 64, Velocity: 100},
	}
}

func TestBinaryRoundTripScalars(t *testing.T) {
	m := NewBinaryMarshaller()
	for _, payload := range scalarPayloads() {
		it := item.New(payload, 1, time.Time{})
		got := roundTrip(t, m, it)
		switch want := payload.(type) {
		case nil:
			if got.Payload != nil {
				t.Errorf("nil payload became %v", got.Payload)
			}
		case []byte:
			gb, ok := got.Payload.([]byte)
			if !ok || string(gb) != string(want) {
				t.Errorf("bytes payload became %v", got.Payload)
			}
		case *media.MidiEvent:
			ge, ok := got.Payload.(*media.MidiEvent)
			if !ok || *ge != *want {
				t.Errorf("midi payload became %v", got.Payload)
			}
		default:
			if got.Payload != payload {
				t.Errorf("payload %v (%T) became %v (%T)", payload, payload, got.Payload, got.Payload)
			}
		}
		if !got.Created.IsZero() {
			t.Errorf("zero Created became %v", got.Created)
		}
	}
}

// exoticPayload has no binary codec, forcing the gob fallback.
type exoticPayload struct {
	Name string
	N    int
}

func TestBinaryGobFallbackSelfContained(t *testing.T) {
	RegisterPayload(exoticPayload{})
	m := NewBinaryMarshaller()
	it := item.New(exoticPayload{Name: "x", N: 9}, 7, bt0).WithSize(11)
	data, err := m.Marshal(it)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != wireGobOne {
		t.Fatalf("fallback frame tag = %#x, want %#x", data[0], wireGobOne)
	}
	// Self-contained frames must decode on a fresh marshaller (loss safety).
	got, err := NewBinaryMarshaller().Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := got.Payload.(exoticPayload); !ok || p.Name != "x" || p.N != 9 {
		t.Errorf("payload became %v (%T)", got.Payload, got.Payload)
	}
	if got.Seq != 7 || got.Size != 11 {
		t.Errorf("header wrong: %+v", got)
	}
}

func TestBinaryGobFallbackStreaming(t *testing.T) {
	RegisterPayload(exoticPayload{})
	enc := NewStreamingBinaryMarshaller()
	dec := NewBinaryMarshaller() // decode side understands all encodings
	var frames [][]byte
	for i := 1; i <= 3; i++ {
		it := item.New(exoticPayload{Name: "s", N: i}, int64(i), bt0)
		data, err := enc.Marshal(it)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != wireGobStr {
			t.Fatalf("frame %d tag = %#x, want %#x", i, data[0], wireGobStr)
		}
		frames = append(frames, data)
	}
	// Type descriptors ride only in the first frame: later ones are smaller.
	if len(frames[1]) >= len(frames[0]) {
		t.Errorf("second frame (%dB) not smaller than first (%dB): descriptors resent?",
			len(frames[1]), len(frames[0]))
	}
	for i, data := range frames {
		got, err := dec.Unmarshal(data)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if p, ok := got.Payload.(exoticPayload); !ok || p.N != i+1 {
			t.Errorf("frame %d payload became %v", i, got.Payload)
		}
	}
}

func TestBinaryMixedFallbackAndFastPath(t *testing.T) {
	// A flow can interleave binary-codable and exotic payloads freely.
	RegisterPayload(exoticPayload{})
	enc := NewStreamingBinaryMarshaller()
	dec := NewBinaryMarshaller()
	payloads := []any{int64(1), exoticPayload{N: 2}, "three", exoticPayload{N: 4}}
	for i, p := range payloads {
		got := roundTripVia(t, enc, dec, item.New(p, int64(i), time.Time{}))
		if ep, ok := p.(exoticPayload); ok {
			if gp, ok2 := got.Payload.(exoticPayload); !ok2 || gp.N != ep.N {
				t.Errorf("payload %d became %v", i, got.Payload)
			}
		} else if got.Payload != p {
			t.Errorf("payload %d became %v", i, got.Payload)
		}
	}
}

func roundTripVia(t *testing.T, enc, dec Marshaller, it *item.Item) *item.Item {
	t.Helper()
	data, err := enc.Marshal(it)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestBinaryUnmarshalErrors(t *testing.T) {
	m := NewBinaryMarshaller()
	if _, err := m.Unmarshal(nil); err == nil {
		t.Error("empty frame must fail")
	}
	if _, err := m.Unmarshal([]byte{0xFF, 1, 2}); err == nil {
		t.Error("unknown encoding must fail")
	}
	if _, err := m.Unmarshal([]byte{wireBinary}); err == nil {
		t.Error("truncated binary frame must fail")
	}
}

// TestMarshalAllocs guards the hot-path allocation budget: a frame item
// round trip through the binary codec must stay an order of magnitude under
// the gob baseline (~277 allocs at seed).
func TestMarshalAllocs(t *testing.T) {
	m := NewBinaryMarshaller()
	f := &media.Frame{Type: media.FrameI, Seq: 1, Bytes: 12000}
	it := item.New(f, 1, time.Time{}).WithSize(12000).WithAttr("frametype", "I")
	marshalOnly := testing.AllocsPerRun(200, func() {
		data, err := m.Marshal(it)
		if err != nil {
			t.Fatal(err)
		}
		_ = data
	})
	if marshalOnly > 2 {
		t.Errorf("Marshal allocates %v/op, want <= 2 (output slice)", marshalOnly)
	}
	roundTrip := testing.AllocsPerRun(200, func() {
		data, err := m.Marshal(it)
		if err != nil {
			t.Fatal(err)
		}
		out, err := m.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		out.Recycle()
	})
	if roundTrip > 12 {
		t.Errorf("round trip allocates %v/op, want <= 12", roundTrip)
	}
}

// sameWireValue compares two decoded payload or attribute values; a NaN
// equals the NaN with the same bits, which reflect.DeepEqual denies.
func sameWireValue(a, b any) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return reflect.DeepEqual(a, b)
}

// FuzzBinaryUnmarshal feeds arbitrary bytes to the item decoder, the parser
// every byte a peer sends ends up in.  It must never panic, and whatever it
// accepts must be an item the codec can carry: marshalled again and decoded
// again it is the same item.  (Not the same BYTES: varints have more than
// one spelling, attributes are a map, and bytes after the payload are
// ignored.)  Seeded with the round-trip tables above.
func FuzzBinaryUnmarshal(f *testing.F) {
	RegisterPayload(exoticPayload{})
	seed := func(m Marshaller, it *item.Item) {
		data, err := m.Marshal(it)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for i, p := range scalarPayloads() {
		seed(NewBinaryMarshaller(), item.New(p, int64(i), time.Time{}))
	}
	seed(NewBinaryMarshaller(), item.New(&media.Frame{Type: media.FrameP, Seq: 42, PTS: 350 * time.Millisecond,
		Bytes: 6000, Refs: []int64{40, 37}}, 42, bt0).WithSize(6000).WithAttr("frametype", "P").WithAttr("prio", 3))
	seed(NewBinaryMarshaller(), item.New(exoticPayload{Name: "x", N: 9}, 7, bt0).WithSize(11))
	seed(NewStreamingBinaryMarshaller(), item.New(exoticPayload{Name: "s", N: 1}, 1, bt0))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 1, 2})
	f.Add([]byte{wireBinary})
	f.Fuzz(func(t *testing.T, data []byte) {
		// A fresh codec per input: the streaming gob decoder keeps state.
		it, err := NewBinaryMarshaller().Unmarshal(data)
		if err != nil {
			return
		}
		m := NewBinaryMarshaller()
		again, err := m.Marshal(it)
		if err != nil {
			t.Fatalf("decoded % x to %+v, which does not marshal: %v", data, it, err)
		}
		it2, err := m.Unmarshal(again)
		if err != nil {
			t.Fatalf("decoded % x to %+v; its encoding % x does not decode: %v", data, it, again, err)
		}
		if it2.Seq != it.Seq || it2.Origin != it.Origin || it2.Size != it.Size || !it2.Created.Equal(it.Created) ||
			len(it2.Attrs) != len(it.Attrs) || !sameWireValue(it2.Payload, it.Payload) {
			t.Fatalf("% x decodes to %+v but re-marshals to %+v", data, it, it2)
		}
		for k, v := range it.Attrs {
			if v2, ok := it2.Attrs[k]; !ok || !sameWireValue(v, v2) {
				t.Fatalf("% x: attribute %q = %v re-marshals to %v", data, k, v, v2)
			}
		}
	})
}
