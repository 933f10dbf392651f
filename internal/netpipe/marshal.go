// Package netpipe integrates transport protocols into the Infopipe
// framework (§2.4): netpipes support plain data flows and manage low-level
// properties such as bandwidth and latency, while marshalling filters on
// either side translate between the raw data flow and the higher-level
// information flow.  The location property of the Typespec is changed only
// by netpipes.
//
// Two transports are provided: an in-process simulated best-effort network
// (SimLink) with configurable bandwidth, propagation delay, jitter, loss
// and a drop-tail queue — the reproducible substitute for the paper's
// best-effort UDP path — and a real TCP transport (TCPLink) for
// distributed pipelines on loopback or LAN.
package netpipe

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/item"
	"infopipes/internal/typespec"
)

// ItemTypeWire is the Typespec item type of marshalled flows between the
// marshalling filters and the netpipe.
const ItemTypeWire = "net/bytes"

// Marshaller converts items to wire frames and back.
type Marshaller interface {
	Marshal(it *item.Item) ([]byte, error)
	Unmarshal(data []byte) (*item.Item, error)
}

// wireItem is the gob representation of an item.
type wireItem struct {
	Seq     int64
	Origin  int64
	Created time.Time
	Size    int
	Attrs   map[string]any
	Payload any
}

// DefaultMarshaller returns the codec netpipes use unless told otherwise:
// the binary wire codec with a self-contained gob fallback (safe on lossy
// links).  Reliable ordered transports (TCP) upgrade the fallback to a
// per-connection gob stream via NewStreamingBinaryMarshaller.
func DefaultMarshaller() Marshaller { return NewBinaryMarshaller() }

// GobMarshaller marshals items with encoding/gob, prefixed by a length and
// suitable for any payload registered with RegisterPayload.  It is the
// compatibility codec; BinaryMarshaller is the default and the fast path.
type GobMarshaller struct{}

var _ Marshaller = GobMarshaller{}

// RegisterPayload registers a concrete payload type with the gob layer.
// Call it once per payload type before marshalling (e.g. in package init of
// the application).
func RegisterPayload(v any) { gob.Register(v) }

// Marshal implements Marshaller.
func (GobMarshaller) Marshal(it *item.Item) ([]byte, error) {
	var buf bytes.Buffer
	w := wireItem{Seq: it.Seq, Origin: it.Origin, Created: it.Created, Size: it.Size, Attrs: it.Attrs, Payload: it.Payload}
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("netpipe: marshal item seq %d: %w", it.Seq, err)
	}
	return buf.Bytes(), nil
}

// Unmarshal implements Marshaller.
func (GobMarshaller) Unmarshal(data []byte) (*item.Item, error) {
	var w wireItem
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("netpipe: unmarshal: %w", err)
	}
	return &item.Item{Seq: w.Seq, Origin: w.Origin, Created: w.Created, Size: w.Size, Attrs: w.Attrs, Payload: w.Payload}, nil
}

// NewMarshalFilter returns the producer-side marshalling filter (§2.4): a
// function-style component converting the information flow into the plain
// data flow the netpipe carries.  The marshalled frame keeps the original
// item's sequence and creation time so end-to-end latency remains
// measurable downstream.
func NewMarshalFilter(name string, m Marshaller) core.Function {
	return &marshalFilter{Base: core.Base{CompName: name}, m: m}
}

type marshalFilter struct {
	core.Base
	m Marshaller
}

// Style implements core.Component.
func (f *marshalFilter) Style() core.Style { return core.StyleFunction }

// TransformSpec implements core.Component: the flow becomes a plain byte
// flow; all other properties ride along for the peer's unmarshaller.
func (f *marshalFilter) TransformSpec(in typespec.Typespec) typespec.Typespec {
	out := in.Clone()
	if out.Props == nil {
		out.Props = map[string]string{}
	}
	out.Props["carried-item-type"] = in.ItemType
	out.ItemType = ItemTypeWire
	return out
}

// Convert implements core.Function.
func (f *marshalFilter) Convert(_ *core.Ctx, it *item.Item) (*item.Item, error) {
	data, err := f.m.Marshal(it)
	if err != nil {
		return nil, err
	}
	out := item.New(data, it.Seq, it.Created).WithSize(len(data))
	out.Origin = it.Origin // durable lanes journal on the (Origin, Seq) pair
	// Synthetic payloads declare a nominal byte size without carrying the
	// bytes; keep the larger figure so netpipes account bandwidth for the
	// flow the payload represents.
	if it.Size > out.Size {
		out.Size = it.Size
	}
	it.Recycle() // the information item ends here; its bytes travel on
	return out, nil
}

// NewUnmarshalFilter returns the consumer-side marshalling filter,
// restoring the higher-level information flow from the netpipe's byte flow.
func NewUnmarshalFilter(name string, m Marshaller) core.Function {
	return &unmarshalFilter{Base: core.Base{CompName: name}, m: m}
}

type unmarshalFilter struct {
	core.Base
	m Marshaller
}

// Style implements core.Component.
func (f *unmarshalFilter) Style() core.Style { return core.StyleFunction }

// InputSpec implements core.Component.
func (f *unmarshalFilter) InputSpec() typespec.Typespec { return typespec.New(ItemTypeWire) }

// TransformSpec implements core.Component: restores the carried item type.
func (f *unmarshalFilter) TransformSpec(in typespec.Typespec) typespec.Typespec {
	out := in.Clone()
	out.ItemType = ""
	if out.Props != nil {
		out.ItemType = out.Props["carried-item-type"]
		delete(out.Props, "carried-item-type")
	}
	return out
}

// Convert implements core.Function.
func (f *unmarshalFilter) Convert(_ *core.Ctx, it *item.Item) (*item.Item, error) {
	data, ok := it.Payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("netpipe: unmarshal filter %q: payload %T is not []byte", f.Name(), it.Payload)
	}
	out, err := f.m.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	it.Recycle() // the wire item ends here; the information item travels on
	return out, nil
}
