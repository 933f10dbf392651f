package pipes

import (
	"time"

	"infopipes/internal/core"
	"infopipes/internal/item"
)

// This file implements the paper's running example (§3.3, Figs 4, 6, 8):
// a defragmenter that combines two data items into one, written in each of
// the activity styles the middleware supports, plus the fragmenter duals.
// Experiment E3 verifies that all implementations exhibit identical
// external activity regardless of the pipeline position they are used in.

// Assemble combines two items into one, the paper's y = assemble(x1, x2).
type Assemble func(a, b *item.Item) *item.Item

// PairAssemble is the default assembly: the payloads are paired into a
// []any, sizes add, and the sequence number of the first part is kept.
func PairAssemble(a, b *item.Item) *item.Item {
	out := item.New([]any{a.Payload, b.Payload}, a.Seq, earlier(a.Created, b.Created))
	out.Size = a.Size + b.Size
	return out
}

// orAssemble returns a, or PairAssemble when a is nil.
func orAssemble(a Assemble) Assemble {
	if a == nil {
		return PairAssemble
	}
	return a
}

func earlier(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}

// DefragConsumer is the passive push-style defragmenter of Fig 4a: the
// programmer explicitly maintains state between invocations via the saved
// variable.
type DefragConsumer struct {
	core.Base
	assemble Assemble
	saved    *item.Item
}

var _ core.Consumer = (*DefragConsumer)(nil)

// NewDefragConsumer builds the push-style defragmenter.  A nil assemble
// uses PairAssemble.
func NewDefragConsumer(name string, assemble Assemble) *DefragConsumer {
	return &DefragConsumer{Base: core.Base{CompName: name}, assemble: orAssemble(assemble)}
}

// Style implements core.Component.
func (d *DefragConsumer) Style() core.Style { return core.StyleConsumer }

// Push implements core.Consumer, exactly as in Fig 4a: every other call
// causes a downstream push; otherwise the item is saved and the call
// returns directly.
func (d *DefragConsumer) Push(ctx *core.Ctx, x *item.Item) error {
	if d.saved != nil {
		y := d.assemble(d.saved, x)
		d.saved = nil
		return ctx.PushDownstream(y)
	}
	d.saved = x
	return nil
}

// DefragProducer is the passive pull-style defragmenter of Fig 4b: each
// invocation travels all the way through the code, triggering two upstream
// pulls — no state between invocations is needed.
type DefragProducer struct {
	core.Base
	assemble Assemble
}

var _ core.Producer = (*DefragProducer)(nil)

// NewDefragProducer builds the pull-style defragmenter.
func NewDefragProducer(name string, assemble Assemble) *DefragProducer {
	return &DefragProducer{Base: core.Base{CompName: name}, assemble: orAssemble(assemble)}
}

// Style implements core.Component.
func (d *DefragProducer) Style() core.Style { return core.StyleProducer }

// Pull implements core.Producer, exactly as in Fig 4b.
func (d *DefragProducer) Pull(ctx *core.Ctx) (*item.Item, error) {
	x1, err := ctx.PullUpstream()
	if err != nil {
		return nil, err
	}
	if x1 == nil {
		return nil, nil
	}
	x2, err := ctx.PullUpstream()
	if err != nil {
		return nil, err
	}
	if x2 == nil {
		return nil, nil
	}
	return d.assemble(x1, x2), nil
}

// DefragActive is the active-object defragmenter of Fig 6: a main loop
// freely mixing receive and send, the style the paper notes most
// programmers are familiar with.
type DefragActive struct {
	core.Base
	assemble Assemble
}

var _ core.Active = (*DefragActive)(nil)

// NewDefragActive builds the active defragmenter.
func NewDefragActive(name string, assemble Assemble) *DefragActive {
	return &DefragActive{Base: core.Base{CompName: name}, assemble: orAssemble(assemble)}
}

// Style implements core.Component.
func (d *DefragActive) Style() core.Style { return core.StyleActive }

// Run implements core.Active, exactly as in Fig 6:
//
//	while (running) { x1=pull(); x2=pull(); y=assemble(x1,x2); push(y); }
func (d *DefragActive) Run(ctx *core.Ctx) error {
	for !ctx.Stopping() {
		x1, err := ctx.PullUpstream()
		if err != nil {
			return err
		}
		if x1 == nil {
			continue
		}
		x2, err := ctx.PullUpstream()
		if err != nil {
			return err
		}
		if x2 == nil {
			continue
		}
		if err := ctx.PushDownstream(d.assemble(x1, x2)); err != nil {
			return err
		}
	}
	return nil
}

// Fragment splits one item into parts, the fragmenter's dual of Assemble.
type Fragment func(it *item.Item) []*item.Item

// PairFragment splits an item whose payload is a []any pair back into its
// two halves (the inverse of PairAssemble).
func PairFragment(it *item.Item) []*item.Item {
	pair, ok := it.Payload.([]any)
	if !ok || len(pair) != 2 {
		return []*item.Item{it}
	}
	half := it.Size / 2
	a := item.New(pair[0], it.Seq, it.Created).WithSize(half)
	b := item.New(pair[1], it.Seq+1, it.Created).WithSize(it.Size - half)
	return []*item.Item{a, b}
}

// orFragment returns f, or PairFragment when f is nil.
func orFragment(f Fragment) Fragment {
	if f == nil {
		return PairFragment
	}
	return f
}

// FragConsumer is the push-style fragmenter: for a fragmenter, push is the
// simpler operation (the paper's observation inverted from the
// defragmenter).
type FragConsumer struct {
	core.Base
	fragment Fragment
}

var _ core.Consumer = (*FragConsumer)(nil)

// NewFragConsumer builds the push-style fragmenter.
func NewFragConsumer(name string, fragment Fragment) *FragConsumer {
	return &FragConsumer{Base: core.Base{CompName: name}, fragment: orFragment(fragment)}
}

// Style implements core.Component.
func (f *FragConsumer) Style() core.Style { return core.StyleConsumer }

// Push implements core.Consumer: one incoming item yields several
// downstream pushes.
func (f *FragConsumer) Push(ctx *core.Ctx, it *item.Item) error {
	for _, part := range f.fragment(it) {
		if err := ctx.PushDownstream(part); err != nil {
			return err
		}
	}
	return nil
}

// FragProducer is the pull-style fragmenter: it must maintain the pending
// parts between invocations, the mirror image of the defragmenter's saved
// variable.
type FragProducer struct {
	core.Base
	fragment Fragment
	pending  []*item.Item
}

var _ core.Producer = (*FragProducer)(nil)

// NewFragProducer builds the pull-style fragmenter.
func NewFragProducer(name string, fragment Fragment) *FragProducer {
	return &FragProducer{Base: core.Base{CompName: name}, fragment: orFragment(fragment)}
}

// Style implements core.Component.
func (f *FragProducer) Style() core.Style { return core.StyleProducer }

// Pull implements core.Producer.
func (f *FragProducer) Pull(ctx *core.Ctx) (*item.Item, error) {
	if len(f.pending) > 0 {
		it := f.pending[0]
		f.pending = f.pending[1:]
		return it, nil
	}
	in, err := ctx.PullUpstream()
	if err != nil {
		return nil, err
	}
	if in == nil {
		return nil, nil
	}
	parts := f.fragment(in)
	if len(parts) == 0 {
		return nil, nil
	}
	f.pending = parts[1:]
	return parts[0], nil
}

// FragActive is the active-object fragmenter.
type FragActive struct {
	core.Base
	fragment Fragment
}

var _ core.Active = (*FragActive)(nil)

// NewFragActive builds the active fragmenter.
func NewFragActive(name string, fragment Fragment) *FragActive {
	return &FragActive{Base: core.Base{CompName: name}, fragment: orFragment(fragment)}
}

// Style implements core.Component.
func (f *FragActive) Style() core.Style { return core.StyleActive }

// Run implements core.Active.
func (f *FragActive) Run(ctx *core.Ctx) error {
	for !ctx.Stopping() {
		in, err := ctx.PullUpstream()
		if err != nil {
			return err
		}
		if in == nil {
			continue
		}
		for _, part := range f.fragment(in) {
			if err := ctx.PushDownstream(part); err != nil {
				return err
			}
		}
	}
	return nil
}
