package main

import (
	"bytes"
	"math/rand"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/typespec"
)

// generator makes every input of a run from the seed: payload words and
// bytes, route keys, the constants of the chain filters and the start value
// of the spin work.  The runtime under test only ever sees the items.
type generator struct {
	block     []byte // 1 MiB of seeded bytes; frame payloads are slices of it
	stride    uint64 // odd step between consecutive frame offsets
	wordSalt  uint64
	routeSalt uint64
	spinSalt  uint64
	mul, add  [4]uint64 // chain_local's four filters: x -> x*mul[i] + add[i]
}

const blockSize = 1 << 20

func newGenerator(seed int64) *generator {
	r := rand.New(rand.NewSource(seed))
	g := &generator{
		block:     make([]byte, blockSize),
		stride:    r.Uint64() | 1,
		wordSalt:  r.Uint64(),
		routeSalt: r.Uint64(),
		spinSalt:  r.Uint64(),
	}
	r.Read(g.block)
	for i := range g.mul {
		g.mul[i] = r.Uint64() | 1
		g.add[i] = r.Uint64()
	}
	return g
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// word is the 8-byte payload of item seq on the in-process workloads.
func (g *generator) word(seq int64) int64 { return int64(splitmix(uint64(seq) ^ g.wordSalt)) }

// route is the branch item seq takes at the fan-out.
func (g *generator) route(seq int64) int { return int(splitmix(uint64(seq)^g.routeSalt) & 1) }

// frame is the size-byte payload of item seq on the lane workloads: a slice
// of the seeded block, so the source allocates nothing per item.
func (g *generator) frame(seq int64, size int) []byte {
	off := (uint64(seq) * g.stride) % uint64(blockSize-size)
	return g.block[off : off+uint64(size)]
}

// chain applies filter i of chain_local.
func (g *generator) chain(i int, x int64) int64 { return int64(uint64(x)*g.mul[i] + g.add[i]) }

// spin is the per-item CPU work of fanout_shards: rounds of xorshift64
// folded into the payload so the work cannot be optimised away.
func (g *generator) spin(x int64, rounds int) int64 {
	v := uint64(x) ^ g.spinSalt
	if v == 0 {
		v = 1
	}
	for i := 0; i < rounds; i++ {
		v ^= v << 13
		v ^= v >> 7
		v ^= v << 17
	}
	return int64(v)
}

// wordSource produces items 1..limit carrying gen.word(seq).
func wordSource(name string, g *generator, limit int64) *pipes.GeneratorSource {
	return pipes.NewGeneratorSource(name, typespec.New("bench/word"), limit,
		func(ctx *core.Ctx, seq int64) (*item.Item, error) {
			return item.New(g.word(seq), seq, ctx.Now()).WithSize(8), nil
		})
}

// frameSource produces items 1..limit carrying gen.frame(seq, size).
func frameSource(name string, g *generator, limit int64, size int) *pipes.GeneratorSource {
	return pipes.NewGeneratorSource(name, typespec.New("bench/frame"), limit,
		func(ctx *core.Ctx, seq int64) (*item.Item, error) {
			return item.New(g.frame(seq, size), seq, ctx.Now()).WithSize(size), nil
		})
}

// sourcePump is the pump that generates the load: free-running for the
// saturated regime, clock-driven at rate items/s for the paced one.
func sourcePump(name string, rate float64) core.Pump {
	if rate > 0 {
		return pipes.NewClockedPump(name, rate)
	}
	return pipes.NewFreePump(name)
}

// relay is the benchmark's active-style identity component: a main loop
// that pulls and pushes.  An active object always runs as a coroutine, so
// placing one in a chain forces a coroutine set (one switch each way per
// item) where function-style stages would be direct calls.
type relay struct{ core.Base }

var _ core.Active = (*relay)(nil)

func newRelay(name string) *relay { return &relay{core.Base{CompName: name}} }

func (*relay) Style() core.Style { return core.StyleActive }

func (*relay) Run(ctx *core.Ctx) error {
	for !ctx.Stopping() {
		it, err := ctx.PullUpstream()
		if err != nil {
			return err
		}
		if it == nil {
			continue
		}
		if err := ctx.PushDownstream(it); err != nil {
			return err
		}
	}
	return nil
}

// oracle is the checking sink of one trial.  It verifies exactly-once
// delivery, per-branch monotone order (strict 1..N order when there is one
// branch) and the payload of every item, and records when each item was
// created and when it arrived, as nanoseconds since the trial's base, in
// arrays allocated before the flow starts.  It retains no item.
type oracle struct {
	core.Base
	base    time.Time
	offered int64
	// verify checks one payload; nil when the payload is checked by sum.
	verify func(seq int64, payload any) bool
	// branchOf names the branch an item travelled; nil for one branch.
	branchOf func(seq int64) int
	// wantSum is the expected wrapping sum of all int64 payloads; checked
	// after the stream when verify is nil.
	wantSum func() uint64

	created []int64
	arrived []int64
	seen    []uint8 // 0 not seen, then one of the marks below
	last    [2]int64
	good    int64
	sum     uint64
	eosAt   time.Time
	eos     chan struct{}
}

var (
	_ core.Consumer = (*oracle)(nil)
	_ core.EOSSink  = (*oracle)(nil)
)

func newOracle(name string, offered int64) *oracle {
	return &oracle{
		Base:    core.Base{CompName: name},
		offered: offered,
		created: make([]int64, offered),
		arrived: make([]int64, offered),
		seen:    make([]uint8, offered),
		eos:     make(chan struct{}),
	}
}

func (*oracle) Style() core.Style { return core.StyleConsumer }

// Marks of oracle.seen.
const (
	seenGood uint8 = iota + 1 // arrived once, in order, right payload
	seenBad                   // arrived once, out of order or wrong payload
	seenDup                   // arrived more than once
)

func (o *oracle) Push(_ *core.Ctx, it *item.Item) error {
	now := time.Now()
	seq := it.Seq
	switch {
	case seq < 1 || seq > o.offered:
		// Not an item of this stream; the missing one it stands for fails.
	case o.seen[seq-1] != 0:
		if o.seen[seq-1] == seenGood {
			o.good--
		}
		o.seen[seq-1] = seenDup
	default:
		i := seq - 1
		o.created[i] = int64(it.Created.Sub(o.base))
		o.arrived[i] = int64(now.Sub(o.base))
		b := 0
		if o.branchOf != nil {
			b = o.branchOf(seq)
		}
		ok := seq > o.last[b]
		if ok {
			o.last[b] = seq
		}
		if o.verify != nil {
			ok = ok && o.verify(seq, it.Payload)
		} else if v, isWord := it.Payload.(int64); isWord {
			o.sum += uint64(v)
		} else {
			ok = false
		}
		o.seen[i] = seenBad
		if ok {
			o.seen[i] = seenGood
			o.good++
		}
	}
	it.Recycle()
	return nil
}

func (o *oracle) HandleEOS(*core.Ctx) {
	o.eosAt = time.Now()
	close(o.eos)
}

// failed counts the offered items that were not delivered exactly once, in
// order, with the right payload.  A wrong payload sum cannot be pinned on
// an item, so it fails the whole trial.
func (o *oracle) failed() int64 {
	if o.wantSum != nil && o.good == o.offered && o.sum != o.wantSum() {
		return o.offered
	}
	return o.offered - o.good
}

// frameVerifier checks the first and last 8 bytes of every frame and the
// whole frame of one item in 64.
func frameVerifier(g *generator, size int) func(int64, any) bool {
	return func(seq int64, payload any) bool {
		got, ok := payload.([]byte)
		if !ok || len(got) != size {
			return false
		}
		want := g.frame(seq, size)
		if size <= 16 || seq%64 == 0 {
			return bytes.Equal(got, want)
		}
		return bytes.Equal(got[:8], want[:8]) && bytes.Equal(got[size-8:], want[size-8:])
	}
}
