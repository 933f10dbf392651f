package netpipe

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/item"
	"infopipes/internal/trace"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// SimConfig parameterises the simulated best-effort network.
type SimConfig struct {
	// BandwidthBps is the link bandwidth in bytes per second (0 = inf).
	BandwidthBps float64
	// PropDelay is the one-way propagation delay.
	PropDelay time.Duration
	// Jitter adds a uniform random delay in [0, Jitter] per packet.
	Jitter time.Duration
	// LossProb drops packets at random (congestion-independent loss).
	LossProb float64
	// QueueBytes bounds the sender-side drop-tail queue (0 = unlimited):
	// packets arriving while QueueBytes are already in flight are dropped,
	// which is how congestion manifests (§2.1 "the filter drops when the
	// network is congested" is the application-level answer to this).
	QueueBytes int
	// RxNode names the receiving node for the Typespec location property.
	RxNode string
	// Seed makes loss and jitter reproducible.
	Seed int64
}

// SimLink is one unidirectional simulated network path.  The sender-side
// endpoint (NewSink) pushes marshalled frames in; a delivery thread on the
// receiving scheduler matures them after transmission, propagation and
// jitter delays; the receiver-side endpoint (NewSource) pulls them out.
// With a virtual clock the whole link is deterministic.
//
// Both schedulers must share one clock; the common case is a single
// scheduler hosting both "nodes".
type SimLink struct {
	name string
	cfg  SimConfig

	rxSched *uthread.Scheduler
	inbox   *inbox
	thread  *uthread.Thread

	mu        sync.Mutex
	rng       *rand.Rand
	busyUntil time.Time
	inFlight  int
	pending   arrivalHeap
	seqCtr    uint64
	eosSent   bool
	done      bool

	sent      trace.Counter
	lost      trace.Counter
	queueDrop trace.Counter
	delivered trace.Counter
	sentBytes trace.Counter
}

type arrival struct {
	at   time.Time
	seq  uint64
	data []byte
	size int
	eos  bool
}

type arrivalHeap []arrival

func (h arrivalHeap) Len() int { return len(h) }
func (h arrivalHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h arrivalHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x any)   { *h = append(*h, x.(arrival)) }
func (h *arrivalHeap) Pop() any {
	old := *h
	n := len(old)
	a := old[n-1]
	*h = old[:n-1]
	return a
}

// NewSimLink creates a link delivering into rxSched.  The link owns a
// delivery thread on rxSched which terminates once end-of-stream has been
// delivered (or the link is closed).
func NewSimLink(name string, rxSched *uthread.Scheduler, cfg SimConfig) *SimLink {
	l := &SimLink{
		name:    name,
		cfg:     cfg,
		rxSched: rxSched,
		inbox:   newInbox(0),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	l.thread = rxSched.Spawn("simnet/"+name, uthread.PriorityHigh, l.deliveryCode)
	rxSched.AddExternalSource()
	return l
}

// Stats reports (sent, lost, queueDropped, delivered) packet counts.
func (l *SimLink) Stats() (sent, lost, queueDropped, delivered int64) {
	return l.sent.Value(), l.lost.Value(), l.queueDrop.Value(), l.delivered.Value()
}

// SentBytes reports the bytes accepted onto the link.
func (l *SimLink) SentBytes() int64 { return l.sentBytes.Value() }

// QueueFill reports the sender-queue occupancy in [0, 1] (0 when the queue
// is unbounded) — the congestion signal consumer-side feedback sensors
// watch (§2.1).
func (l *SimLink) QueueFill() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cfg.QueueBytes <= 0 {
		return 0
	}
	f := float64(l.inFlight) / float64(l.cfg.QueueBytes)
	if f > 1 {
		f = 1
	}
	return f
}

// send queues one frame for delivery, applying loss, queue overflow,
// transmission and propagation delays.  now must come from the shared
// clock.  size is the nominal wire size used for bandwidth and queue
// accounting — synthetic payloads (e.g. media frames) declare their real
// byte size without carrying the bytes.
func (l *SimLink) send(now time.Time, data []byte, size int, eos bool) {
	if size < len(data) {
		size = len(data)
	}
	l.mu.Lock()
	if l.done {
		l.mu.Unlock()
		return
	}
	if eos {
		if l.eosSent {
			l.mu.Unlock()
			return
		}
		l.eosSent = true
	} else {
		if l.cfg.LossProb > 0 && l.rng.Float64() < l.cfg.LossProb {
			l.mu.Unlock()
			l.lost.Inc()
			return
		}
		if l.cfg.QueueBytes > 0 && l.inFlight+size > l.cfg.QueueBytes {
			l.mu.Unlock()
			l.queueDrop.Inc()
			return
		}
	}
	start := now
	if l.busyUntil.After(start) {
		start = l.busyUntil
	}
	var txDur time.Duration
	if l.cfg.BandwidthBps > 0 {
		txDur = time.Duration(float64(size) / l.cfg.BandwidthBps * float64(time.Second))
	}
	l.busyUntil = start.Add(txDur)
	at := l.busyUntil.Add(l.cfg.PropDelay)
	if l.cfg.Jitter > 0 {
		at = at.Add(time.Duration(l.rng.Float64() * float64(l.cfg.Jitter)))
	}
	l.inFlight += size
	l.seqCtr++
	heap.Push(&l.pending, arrival{at: at, seq: l.seqCtr, data: data, size: size, eos: eos})
	if !eos {
		l.sent.Inc()
		l.sentBytes.Add(int64(size))
	}
	l.mu.Unlock()
	l.rxSched.TimerAt(at, l.thread)
}

// deliveryCode runs on the receiving scheduler: each timer matures due
// packets into the inbox.  After EOS delivery the thread terminates.
func (l *SimLink) deliveryCode(t *uthread.Thread, m uthread.Message) uthread.Disposition {
	if m.Kind != uthread.KindTimer {
		if events.IsControl(m) {
			if ev, ok := events.FromMessage(m); ok && ev.Type == events.Stop {
				l.shutdown()
				return uthread.Terminate
			}
		}
		return uthread.Continue
	}
	now := l.rxSched.Now()
	finished := false
	for {
		l.mu.Lock()
		if len(l.pending) == 0 || l.pending[0].at.After(now) {
			empty := len(l.pending) == 0
			sawEOS := l.eosSent
			l.mu.Unlock()
			finished = empty && sawEOS
			break
		}
		a := heap.Pop(&l.pending).(arrival)
		l.inFlight -= a.size
		l.mu.Unlock()
		if a.eos {
			l.inbox.close(core.ErrEOS)
		} else {
			l.delivered.Inc()
			l.inbox.inject(frameEntry{data: a.data}, uthread.PriorityHigh)
		}
	}
	if finished {
		l.shutdown()
		return uthread.Terminate
	}
	return uthread.Continue
}

// shutdown closes the inbox and releases the external-source reference.
func (l *SimLink) shutdown() {
	l.mu.Lock()
	if l.done {
		l.mu.Unlock()
		return
	}
	l.done = true
	l.mu.Unlock()
	l.inbox.close(core.ErrEOS)
	l.rxSched.ReleaseExternalSource()
}

// Close tears the link down from the application (idempotent); normally
// the sender's EOS does this.
func (l *SimLink) Close() {
	l.rxSched.Post(l.thread, events.NewMessage(events.Event{Type: events.Stop}))
}

// NewSink returns the producer-side endpoint: a consumer-style component
// that pushes marshalled frames onto the link.  It is the sink of the
// producer node's pipeline (Fig 3 left half).
func (l *SimLink) NewSink(name string) core.Component {
	return &simSink{Base: core.Base{CompName: name}, link: l}
}

type simSink struct {
	core.Base
	link *SimLink
}

var (
	_ core.Consumer = (*simSink)(nil)
	_ core.EOSSink  = (*simSink)(nil)
)

// Style implements core.Component.
func (s *simSink) Style() core.Style { return core.StyleConsumer }

// InputSpec implements core.Component: netpipes carry plain byte flows.
func (s *simSink) InputSpec() typespec.Typespec { return typespec.New(ItemTypeWire) }

// Push implements core.Consumer.
func (s *simSink) Push(ctx *core.Ctx, it *item.Item) error {
	data, ok := it.Payload.([]byte)
	if !ok {
		return fmt.Errorf("netpipe: sink %q: payload %T is not []byte (insert a marshal filter)", s.Name(), it.Payload)
	}
	s.link.send(ctx.Now(), data, it.Size, false)
	it.Recycle() // the payload bytes live on in the link's flight queue
	return nil
}

// HandleEOS implements core.EOSSink: end of the producer stream is
// signalled through the link.
func (s *simSink) HandleEOS(ctx *core.Ctx) { s.link.send(ctx.Now(), nil, 0, true) }

// HandleEvent implements core.Component: a stop on the producer side also
// ends the wire stream so the consumer node can finish.
func (s *simSink) HandleEvent(ctx *core.Ctx, ev events.Event) {
	if ev.Type == events.Stop {
		s.link.send(ctx.Now(), nil, 0, true)
	}
}

// SenderStages returns the canonical producer-side tail for this link —
// marshal filter plus sink — wired to the default binary codec.  The gob
// fallback stays self-contained per item: a simulated link may drop frames,
// and a per-connection gob stream does not survive loss.
func (l *SimLink) SenderStages(name string) []core.Stage {
	return []core.Stage{
		core.Comp(NewMarshalFilter(name+"/marshal", DefaultMarshaller())),
		core.Comp(l.NewSink(name + "/sink")),
	}
}

// ReceiverStages returns the canonical consumer-side head for this link —
// source plus unmarshal filter — wired to the default binary codec.
func (l *SimLink) ReceiverStages(name string) []core.Stage {
	return []core.Stage{
		core.Comp(l.NewSource(name + "/source")),
		core.Comp(NewUnmarshalFilter(name+"/unmarshal", DefaultMarshaller())),
	}
}

// NewSource returns the consumer-side endpoint: a producer-style component
// pulling frames off the link (Fig 3 right half).  Its Typespec
// transformation applies the link's QoS (bandwidth, latency) and changes
// the location property — the only stage kind allowed to do so (§2.4).
func (l *SimLink) NewSource(name string) core.Component {
	return &simSource{Base: core.Base{CompName: name}, link: l}
}

type simSource struct {
	core.Base
	link *SimLink
}

var _ core.Producer = (*simSource)(nil)

// Style implements core.Component.
func (s *simSource) Style() core.Style { return core.StyleProducer }

// TransformSpec implements core.Component.
func (s *simSource) TransformSpec(in typespec.Typespec) typespec.Typespec {
	out := in.Clone()
	out.ItemType = ItemTypeWire
	if s.link.cfg.RxNode != "" {
		out.Location = s.link.cfg.RxNode
	}
	if bw := s.link.cfg.BandwidthBps; bw > 0 {
		out = out.WithQoS("bandwidth", typespec.AtMost(bw))
	}
	if d := s.link.cfg.PropDelay; d > 0 {
		out = out.WithQoS("latency", typespec.AtLeast(d.Seconds()))
	}
	return out
}

// Pull implements core.Producer.
func (s *simSource) Pull(ctx *core.Ctx) (*item.Item, error) {
	e, err := s.link.inbox.pop(ctx.Thread(), ctx.Stopping)
	if err != nil {
		return nil, err
	}
	return item.New(e.data, 0, ctx.Now()).WithSize(len(e.data)), nil
}
