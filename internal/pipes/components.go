package pipes

import (
	"sync"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/item"
	"infopipes/internal/trace"
	"infopipes/internal/typespec"
)

// GeneratorSource is a passive producer-style source: each pull produces
// the next item from a generator function.
type GeneratorSource struct {
	core.Base
	spec  typespec.Typespec
	limit int64
	gen   func(ctx *core.Ctx, seq int64) (*item.Item, error)
	seq   int64
}

var _ core.Producer = (*GeneratorSource)(nil)

// NewGeneratorSource builds a source producing items from gen.  A limit of
// 0 means unbounded; otherwise the source ends the stream after limit
// items.  spec describes the flow the source supplies (§2.3: properties
// originate from sources).
func NewGeneratorSource(name string, spec typespec.Typespec, limit int64,
	gen func(ctx *core.Ctx, seq int64) (*item.Item, error)) *GeneratorSource {
	return &GeneratorSource{Base: core.Base{CompName: name}, spec: spec, limit: limit, gen: gen}
}

// NewCounterSource produces limit items whose payloads are their sequence
// numbers — the workhorse of tests and microbenchmarks.
func NewCounterSource(name string, limit int64) *GeneratorSource {
	return NewGeneratorSource(name, typespec.New("test/counter"), limit,
		func(ctx *core.Ctx, seq int64) (*item.Item, error) {
			return item.New(seq, seq, ctx.Now()).WithSize(8), nil
		})
}

// Style implements core.Component.
func (s *GeneratorSource) Style() core.Style { return core.StyleProducer }

// TransformSpec implements core.Component: the source originates the flow
// properties.
func (s *GeneratorSource) TransformSpec(typespec.Typespec) typespec.Typespec { return s.spec }

// Pull implements core.Producer.
func (s *GeneratorSource) Pull(ctx *core.Ctx) (*item.Item, error) {
	if s.limit > 0 && s.seq >= s.limit {
		return nil, core.ErrEOS
	}
	s.seq++
	return s.gen(ctx, s.seq)
}

// Produced reports how many items the source has produced.
func (s *GeneratorSource) Produced() int64 { return s.seq }

// CollectSink is a passive consumer-style sink that retains items and
// computes arrival statistics (latency from item creation, inter-arrival
// jitter) — the measuring endpoint of most experiments.
type CollectSink struct {
	core.Base
	mu       sync.Mutex
	items    []*item.Item
	latency  trace.Series
	arrivals trace.Series
	eos      bool
}

var (
	_ core.Consumer = (*CollectSink)(nil)
	_ core.EOSSink  = (*CollectSink)(nil)
)

// NewCollectSink builds an empty collecting sink.
func NewCollectSink(name string) *CollectSink {
	return &CollectSink{Base: core.Base{CompName: name}}
}

// Style implements core.Component.
func (s *CollectSink) Style() core.Style { return core.StyleConsumer }

// Push implements core.Consumer.
func (s *CollectSink) Push(ctx *core.Ctx, it *item.Item) error {
	now := ctx.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items = append(s.items, it)
	s.latency.ObserveDuration(it.Age(now))
	s.arrivals.Observe(float64(now.UnixNano()) / 1e9)
	return nil
}

// HandleEOS implements core.EOSSink.
func (s *CollectSink) HandleEOS(*core.Ctx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eos = true
}

// SawEOS reports whether end-of-stream reached the sink.
func (s *CollectSink) SawEOS() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eos
}

// Items returns the collected items.
func (s *CollectSink) Items() []*item.Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*item.Item, len(s.items))
	copy(out, s.items)
	return out
}

// Count reports the number of collected items.
func (s *CollectSink) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// Latency exposes the per-item latency series (seconds).
func (s *CollectSink) Latency() *trace.Series { return &s.latency }

// ArrivalJitter reports the mean absolute deviation of inter-arrival
// spacing in seconds: the display-jitter metric of experiment E10.
func (s *CollectSink) ArrivalJitter() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.arrivals.Snapshot()
	if len(snap) < 3 {
		return 0
	}
	var gaps trace.Series
	for i := 1; i < len(snap); i++ {
		gaps.Observe(snap[i] - snap[i-1])
	}
	return gaps.Jitter()
}

// FuncSink is a consumer-style sink calling fn per item.
type FuncSink struct {
	core.Base
	fn func(ctx *core.Ctx, it *item.Item) error
}

var _ core.Consumer = (*FuncSink)(nil)

// NewFuncSink builds a sink around fn.
func NewFuncSink(name string, fn func(ctx *core.Ctx, it *item.Item) error) *FuncSink {
	return &FuncSink{Base: core.Base{CompName: name}, fn: fn}
}

// Style implements core.Component.
func (s *FuncSink) Style() core.Style { return core.StyleConsumer }

// Push implements core.Consumer.
func (s *FuncSink) Push(ctx *core.Ctx, it *item.Item) error { return s.fn(ctx, it) }

// NullSink discards items, recycling them to the freelist (benchmark
// baseline).
func NullSink(name string) *FuncSink {
	return NewFuncSink(name, func(_ *core.Ctx, it *item.Item) error {
		it.Recycle()
		return nil
	})
}

// FuncFilter is a function-style component built from a conversion
// closure: the paper's item fct(item) style, directly usable in both push
// and pull mode.  Returning (nil, nil) filters the item out.
type FuncFilter struct {
	core.Base
	input typespec.Typespec
	xform typespec.Transform
	fn    func(ctx *core.Ctx, it *item.Item) (*item.Item, error)
}

var _ core.Function = (*FuncFilter)(nil)

// NewFuncFilter builds a function-style filter.
func NewFuncFilter(name string, fn func(ctx *core.Ctx, it *item.Item) (*item.Item, error)) *FuncFilter {
	return &FuncFilter{Base: core.Base{CompName: name}, fn: fn}
}

// WithInputSpec declares the filter's input requirements (builder style).
func (f *FuncFilter) WithInputSpec(ts typespec.Typespec) *FuncFilter {
	f.input = ts
	return f
}

// WithTransform declares the filter's Typespec transformation.
func (f *FuncFilter) WithTransform(tr typespec.Transform) *FuncFilter {
	f.xform = tr
	return f
}

// Style implements core.Component.
func (f *FuncFilter) Style() core.Style { return core.StyleFunction }

// InputSpec implements core.Component.
func (f *FuncFilter) InputSpec() typespec.Typespec { return f.input }

// TransformSpec implements core.Component.
func (f *FuncFilter) TransformSpec(in typespec.Typespec) typespec.Typespec {
	return f.xform.Apply(in)
}

// Convert implements core.Function.
func (f *FuncFilter) Convert(ctx *core.Ctx, it *item.Item) (*item.Item, error) {
	return f.fn(ctx, it)
}

// CountingProbe is a transparent function-style stage counting items and
// bytes — the measurement probe of the experiments.
type CountingProbe struct {
	core.Base
	items trace.Counter
	bytes trace.Counter
}

var _ core.Function = (*CountingProbe)(nil)

// NewCountingProbe builds a probe.
func NewCountingProbe(name string) *CountingProbe {
	return &CountingProbe{Base: core.Base{CompName: name}}
}

// Style implements core.Component.
func (p *CountingProbe) Style() core.Style { return core.StyleFunction }

// Convert implements core.Function.
func (p *CountingProbe) Convert(_ *core.Ctx, it *item.Item) (*item.Item, error) {
	p.items.Inc()
	p.bytes.Add(int64(it.Size))
	return it, nil
}

// Items reports the number of items seen.
func (p *CountingProbe) Items() int64 { return p.items.Value() }

// Bytes reports the number of payload bytes seen.
func (p *CountingProbe) Bytes() int64 { return p.bytes.Value() }

// DelayFilter is a function-style stage that models per-item processing
// cost (a decoder's decode time) by sleeping on the scheduler clock.
type DelayFilter struct {
	core.Base
	cost func(it *item.Item) (d int64)
}

var _ core.Function = (*DelayFilter)(nil)

// NewDelayFilter builds a stage whose per-item cost in nanoseconds is
// computed by cost.
func NewDelayFilter(name string, cost func(it *item.Item) int64) *DelayFilter {
	return &DelayFilter{Base: core.Base{CompName: name}, cost: cost}
}

// Style implements core.Component.
func (d *DelayFilter) Style() core.Style { return core.StyleFunction }

// Convert implements core.Function.
func (d *DelayFilter) Convert(ctx *core.Ctx, it *item.Item) (*item.Item, error) {
	if ns := d.cost(it); ns > 0 {
		ctx.Thread().SleepFor(time.Duration(ns))
	}
	return it, nil
}

// DropFilter drops items according to an adjustable drop level, consulting
// a policy function.  The level is set by drop-level control events from a
// feedback controller (§2.1: "the dropping is controlled by a feedback
// mechanism ... this lets us control which data is dropped rather than
// incurring arbitrary dropping in the network").
type DropFilter struct {
	core.Base
	mu      sync.Mutex
	level   int
	policy  func(it *item.Item, level int) bool // true = drop
	dropped trace.Counter
	passed  trace.Counter
}

var _ core.Function = (*DropFilter)(nil)

// NewDropFilter builds a drop filter.  policy reports whether an item
// should be dropped at a given level; level 0 conventionally drops nothing.
func NewDropFilter(name string, policy func(it *item.Item, level int) bool) *DropFilter {
	return &DropFilter{Base: core.Base{CompName: name}, policy: policy}
}

// Style implements core.Component.
func (f *DropFilter) Style() core.Style { return core.StyleFunction }

// SetLevel adjusts the dropping aggressiveness.
func (f *DropFilter) SetLevel(level int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.level = max(level, 0)
}

// Level reports the current drop level.
func (f *DropFilter) Level() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.level
}

// Dropped reports the number of dropped items.
func (f *DropFilter) Dropped() int64 { return f.dropped.Value() }

// Passed reports the number of forwarded items.
func (f *DropFilter) Passed() int64 { return f.passed.Value() }

// HandleEvent implements core.Component: drop-level events carry an int.
func (f *DropFilter) HandleEvent(_ *core.Ctx, ev events.Event) {
	if ev.Type != events.DropLevel {
		return
	}
	if lvl, ok := ev.Data.(int); ok {
		f.SetLevel(lvl)
	}
}

// Convert implements core.Function.
func (f *DropFilter) Convert(_ *core.Ctx, it *item.Item) (*item.Item, error) {
	if f.policy != nil && f.policy(it, f.Level()) {
		f.dropped.Inc()
		it.Recycle() // dropped: this filter is the item's terminal owner
		return nil, nil
	}
	f.passed.Inc()
	return it, nil
}
