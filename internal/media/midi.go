package media

import (
	"fmt"
	"math/rand"

	"infopipes/internal/core"
	"infopipes/internal/item"
	"infopipes/internal/trace"
	"infopipes/internal/typespec"
)

// This file provides the MIDI-mixer workload of §4: "the approach ... in
// which threads and coroutines are introduced only when necessary is mostly
// important for pipelines that handle many control events or many small
// data items such as a MIDI mixer."  MIDI events are tiny (3 bytes), so
// per-item overhead dominates: experiment E8 compares the minimal-thread
// plan against a coroutine per component on exactly this flow.

// ItemTypeMIDI is the Typespec item type of MIDI event flows.
const ItemTypeMIDI = "midi/events"

// MidiEvent is the payload of one MIDI item.
type MidiEvent struct {
	Channel  uint8
	Note     uint8
	Velocity uint8
}

// NewMidiSource produces limit pseudo-random note events on the given
// channel; tiny items exercising per-item pipeline overhead.
func NewMidiSource(name string, channel uint8, seed, limit int64) *core.Stage {
	rng := rand.New(rand.NewSource(seed))
	src := pipesSource(name, typespec.New(ItemTypeMIDI), limit,
		func(ctx *core.Ctx, seq int64) (*item.Item, error) {
			ev := &MidiEvent{
				Channel:  channel,
				Note:     uint8(36 + rng.Intn(48)),
				Velocity: uint8(32 + rng.Intn(96)),
			}
			return item.New(ev, seq, ctx.Now()).WithSize(3), nil
		})
	st := core.Comp(src)
	return &st
}

// pipesSource mirrors pipes.NewGeneratorSource without importing pipes
// (media must stay independent of the standard component library so either
// can be used without the other).
type generatorSource struct {
	core.Base
	spec  typespec.Typespec
	limit int64
	gen   func(ctx *core.Ctx, seq int64) (*item.Item, error)
	seq   int64
}

var _ core.Producer = (*generatorSource)(nil)

func pipesSource(name string, spec typespec.Typespec, limit int64,
	gen func(ctx *core.Ctx, seq int64) (*item.Item, error)) *generatorSource {
	return &generatorSource{Base: core.Base{CompName: name}, spec: spec, limit: limit, gen: gen}
}

// Style implements core.Component.
func (s *generatorSource) Style() core.Style { return core.StyleProducer }

// TransformSpec implements core.Component.
func (s *generatorSource) TransformSpec(typespec.Typespec) typespec.Typespec { return s.spec }

// Pull implements core.Producer.
func (s *generatorSource) Pull(ctx *core.Ctx) (*item.Item, error) {
	if s.limit > 0 && s.seq >= s.limit {
		return nil, core.ErrEOS
	}
	s.seq++
	return s.gen(ctx, s.seq)
}

// NewTranspose returns a function-style MIDI stage shifting notes by delta
// semitones — a typical tiny per-item transformation for the E8 pipelines.
func NewTranspose(name string, delta int) core.Component {
	return &midiFunc{
		Base: core.Base{CompName: name},
		fn: func(ev *MidiEvent) *MidiEvent {
			n := int(ev.Note) + delta
			if n < 0 {
				n = 0
			}
			if n > 127 {
				n = 127
			}
			out := *ev
			out.Note = uint8(n)
			return &out
		},
	}
}

// NewVelocityScale returns a function-style MIDI stage scaling velocity.
func NewVelocityScale(name string, factor float64) core.Component {
	return &midiFunc{
		Base: core.Base{CompName: name},
		fn: func(ev *MidiEvent) *MidiEvent {
			v := float64(ev.Velocity) * factor
			if v > 127 {
				v = 127
			}
			out := *ev
			out.Velocity = uint8(v)
			return &out
		},
	}
}

// midiFunc adapts a pure MidiEvent transformation to a component.
type midiFunc struct {
	core.Base
	fn func(*MidiEvent) *MidiEvent
}

var _ core.Function = (*midiFunc)(nil)

// Style implements core.Component.
func (m *midiFunc) Style() core.Style { return core.StyleFunction }

// InputSpec implements core.Component.
func (m *midiFunc) InputSpec() typespec.Typespec { return typespec.New(ItemTypeMIDI) }

// Convert implements core.Function.
func (m *midiFunc) Convert(_ *core.Ctx, it *item.Item) (*item.Item, error) {
	ev, ok := it.Payload.(*MidiEvent)
	if !ok {
		return nil, fmt.Errorf("midi stage %q: payload %T is not a *media.MidiEvent", m.Name(), it.Payload)
	}
	out := it.Clone()
	out.Payload = m.fn(ev)
	return out, nil
}

// MidiSink counts and checksums the received events so benchmark results
// cannot be optimised away.
type MidiSink struct {
	core.Base
	count    trace.Counter
	checksum uint64
}

var _ core.Consumer = (*MidiSink)(nil)

// NewMidiSink builds the sink.
func NewMidiSink(name string) *MidiSink {
	return &MidiSink{Base: core.Base{CompName: name}}
}

// Style implements core.Component.
func (s *MidiSink) Style() core.Style { return core.StyleConsumer }

// Push implements core.Consumer.
func (s *MidiSink) Push(_ *core.Ctx, it *item.Item) error {
	ev, ok := it.Payload.(*MidiEvent)
	if !ok {
		return fmt.Errorf("midi sink %q: payload %T is not a *media.MidiEvent", s.Name(), it.Payload)
	}
	s.count.Inc()
	s.checksum = s.checksum*31 + uint64(ev.Note)<<8 + uint64(ev.Velocity)
	it.Recycle() // terminal sink: the item's journey ends here
	return nil
}

// Count reports the number of received events.
func (s *MidiSink) Count() int64 { return s.count.Value() }

// Checksum reports the running checksum.
func (s *MidiSink) Checksum() uint64 { return s.checksum }
