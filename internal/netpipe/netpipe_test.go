package netpipe_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/item"
	"infopipes/internal/media"
	"infopipes/internal/netpipe"
	"infopipes/internal/pipes"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

func init() {
	netpipe.RegisterPayload(int64(0))
	netpipe.RegisterPayload(&media.Frame{})
}

func TestGobMarshallerRoundTrip(t *testing.T) {
	m := netpipe.GobMarshaller{}
	orig := item.New(int64(42), 7, vclock.Epoch.Add(time.Second)).
		WithSize(100).
		WithAttr("frametype", "I")
	data, err := m.Marshal(orig)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	back, err := m.Unmarshal(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Seq != 7 || back.Size != 100 || !back.Created.Equal(orig.Created) {
		t.Errorf("metadata mismatch: %+v", back)
	}
	if back.Payload.(int64) != 42 {
		t.Errorf("payload = %v, want 42", back.Payload)
	}
	if back.AttrString("frametype") != "I" {
		t.Errorf("attr lost")
	}
}

func TestGobMarshallerErrors(t *testing.T) {
	m := netpipe.GobMarshaller{}
	if _, err := m.Unmarshal([]byte("garbage")); err == nil {
		t.Error("unmarshal of garbage succeeded")
	}
}

// buildWirePipelines composes the Fig 3 structure on one scheduler:
// producer pipeline (source -> pump -> marshal -> netsink) and consumer
// pipeline (netsource -> unmarshal -> pump -> sink) joined by a SimLink.
func buildWirePipelines(t *testing.T, s *uthread.Scheduler, cfg netpipe.SimConfig, n int64) (*core.Pipeline, *core.Pipeline, *pipes.CollectSink, *netpipe.SimLink) {
	t.Helper()
	link := netpipe.NewSimLink("wire", s, cfg)
	prod, err := core.Compose("producer", s, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", n)),
		core.Pmp(pipes.NewFreePump("txpump")),
		core.Comp(netpipe.NewMarshalFilter("marshal", netpipe.GobMarshaller{})),
		core.Comp(link.NewSink("netsink")),
	})
	if err != nil {
		t.Fatalf("compose producer: %v", err)
	}
	sink := pipes.NewCollectSink("sink")
	cons, err := core.Compose("consumer", s, prod.Bus(), []core.Stage{
		core.Comp(link.NewSource("netsource")),
		core.Comp(netpipe.NewUnmarshalFilter("unmarshal", netpipe.GobMarshaller{})),
		core.Pmp(pipes.NewFreePump("rxpump")),
		core.Comp(sink),
	})
	if err != nil {
		t.Fatalf("compose consumer: %v", err)
	}
	return prod, cons, sink, link
}

func TestSimLinkDeliversAll(t *testing.T) {
	s := uthread.New()
	prod, _, sink, link := buildWirePipelines(t, s, netpipe.SimConfig{
		PropDelay: 10 * time.Millisecond,
		RxNode:    "consumer-node",
	}, 25)
	prod.Start()
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := sink.Count(); got != 25 {
		t.Fatalf("sink received %d items, want 25", got)
	}
	for i, it := range sink.Items() {
		if it.Seq != int64(i+1) {
			t.Errorf("item %d seq = %d, want %d (ordering)", i, it.Seq, i+1)
		}
		if it.Payload.(int64) != int64(i+1) {
			t.Errorf("item %d payload mismatch", i)
		}
	}
	sent, lost, qdrop, delivered := link.Stats()
	if sent != 25 || lost != 0 || qdrop != 0 || delivered != 25 {
		t.Errorf("link stats sent=%d lost=%d qdrop=%d delivered=%d", sent, lost, qdrop, delivered)
	}
}

func TestSimLinkLatencyAtLeastPropDelay(t *testing.T) {
	s := uthread.New()
	const prop = 40 * time.Millisecond
	prod, _, sink, _ := buildWirePipelines(t, s, netpipe.SimConfig{PropDelay: prop}, 10)
	prod.Start()
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if sink.Count() != 10 {
		t.Fatalf("sink received %d items", sink.Count())
	}
	if min := sink.Latency().Min(); min < prop.Seconds() {
		t.Errorf("min latency %.4fs < propagation delay %.4fs", min, prop.Seconds())
	}
}

func TestSimLinkLossDropsPackets(t *testing.T) {
	s := uthread.New()
	prod, _, sink, link := buildWirePipelines(t, s, netpipe.SimConfig{
		LossProb: 0.5,
		Seed:     7,
	}, 200)
	prod.Start()
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	sent, lost, _, delivered := link.Stats()
	if lost == 0 {
		t.Fatal("no packets lost at 50% loss")
	}
	if sent+lost != 200 {
		t.Errorf("sent %d + lost %d != 200", sent, lost)
	}
	if int64(sink.Count()) != delivered {
		t.Errorf("sink %d != delivered %d", sink.Count(), delivered)
	}
	// Roughly half should survive (binomial, generous bounds).
	if sink.Count() < 60 || sink.Count() > 140 {
		t.Errorf("survivors = %d, want ~100", sink.Count())
	}
}

func TestSimLinkBandwidthQueueDropsUnderCongestion(t *testing.T) {
	// A fast producer into a slow link with a small queue: drop-tail
	// congestion loss — the environment of experiment E9.
	s := uthread.New()
	prod, _, sink, link := buildWirePipelines(t, s, netpipe.SimConfig{
		BandwidthBps: 10_000, // very slow
		QueueBytes:   2_000,
		RxNode:       "rx",
	}, 100)
	prod.Start()
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	_, _, qdrop, delivered := link.Stats()
	if qdrop == 0 {
		t.Fatal("no queue drops under congestion")
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if int64(sink.Count()) != delivered {
		t.Errorf("sink %d != delivered %d", sink.Count(), delivered)
	}
}

func TestSimSourceChangesLocation(t *testing.T) {
	s := uthread.New()
	link := netpipe.NewSimLink("wire", s, netpipe.SimConfig{RxNode: "nodeB", BandwidthBps: 1e6, PropDelay: time.Millisecond})
	src := link.NewSource("netsource")
	in := typespec.New(netpipe.ItemTypeWire).WithLocation("nodeA")
	out := src.TransformSpec(in)
	if out.Location != "nodeB" {
		t.Errorf("location = %q, want nodeB (only netpipes change location)", out.Location)
	}
	if out.QoSRange("bandwidth").Hi != 1e6 {
		t.Errorf("bandwidth QoS not applied: %v", out.QoSRange("bandwidth"))
	}
	link.Close()
	go func() {
		// drain the delivery thread so Run exits
	}()
	s.Stop()
	_ = s.Run()
}

func TestTCPLinkEndToEnd(t *testing.T) {
	// Real TCP on loopback with real clocks: producer scheduler and
	// consumer scheduler in one process, like the paper's two nodes.
	txSched := uthread.New(uthread.WithClock(vclock.Real{}))
	rxSched := uthread.New(uthread.WithClock(vclock.Real{}))

	serverConn, clientConn := makeLoopbackPair(t)

	txLink := netpipe.NewTCPSenderLink(clientConn)
	rxLink := netpipe.NewTCPReceiverLink(serverConn, rxSched, "rx-node", 0)

	prod, err := core.Compose("producer", txSched, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", 30)),
		core.Pmp(pipes.NewFreePump("txpump")),
		core.Comp(netpipe.NewMarshalFilter("marshal", netpipe.GobMarshaller{})),
		core.Comp(txLink.NewSink("netsink")),
	})
	if err != nil {
		t.Fatalf("compose producer: %v", err)
	}
	sink := pipes.NewCollectSink("sink")
	cons, err := core.Compose("consumer", rxSched, nil, []core.Stage{
		core.Comp(rxLink.NewSource("netsource")),
		core.Comp(netpipe.NewUnmarshalFilter("unmarshal", netpipe.GobMarshaller{})),
		core.Pmp(pipes.NewFreePump("rxpump")),
		core.Comp(sink),
	})
	if err != nil {
		t.Fatalf("compose consumer: %v", err)
	}

	txDone := txSched.RunBackground()
	rxDone := rxSched.RunBackground()
	prod.Start()
	cons.Start()

	waitErr := func(name string, ch <-chan error) {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not finish", name)
		}
	}
	waitErr("producer scheduler", txDone)
	waitErr("consumer scheduler", rxDone)
	if got := sink.Count(); got != 30 {
		t.Fatalf("sink received %d items, want 30", got)
	}
	if !errors.Is(prod.Err(), nil) || !errors.Is(cons.Err(), nil) {
		t.Fatalf("pipeline errors: %v / %v", prod.Err(), cons.Err())
	}
	_ = txLink.Close()
	_ = rxLink.Close()
}

// TestTCPMalformedFrameFailsPipeline: a corrupt frame on a link nobody can
// redial is a failure the puller hears about, not a clean end of stream.
// The parent reported it as core.ErrEOS — silent truncation counted as
// success.  Both non-resumable receive paths are covered: a link wrapped
// around an established connection, and a one-shot listener.
func TestTCPMalformedFrameFailsPipeline(t *testing.T) {
	for _, listener := range []bool{false, true} {
		name := "receiver"
		if listener {
			name = "listener"
		}
		t.Run(name, func(t *testing.T) {
			rxSched := uthread.New(uthread.WithClock(vclock.Real{}))
			var rxLink *netpipe.TCPLink
			var client net.Conn
			if listener {
				var addr string
				var err error
				rxLink, addr, err = netpipe.NewTCPListenerLink("127.0.0.1:0", rxSched, "rx-node", 0)
				if err != nil {
					t.Fatalf("listen: %v", err)
				}
				if client, err = netpipe.Dial(addr); err != nil {
					t.Fatalf("dial: %v", err)
				}
				defer client.Close()
			} else {
				var server net.Conn
				server, client = makeLoopbackPair(t)
				rxLink = netpipe.NewTCPReceiverLink(server, rxSched, "rx-node", 0)
			}
			defer rxLink.Close()
			sink := pipes.NewCollectSink("sink")
			cons, err := core.Compose("consumer", rxSched, nil, []core.Stage{
				core.Comp(rxLink.NewSource("netsource")),
				core.Pmp(pipes.NewFreePump("rxpump")),
				core.Comp(sink),
			})
			if err != nil {
				t.Fatalf("compose consumer: %v", err)
			}
			rxDone := rxSched.RunBackground()
			cons.Start()

			// One good plain data frame, then a frame with an unknown tag.
			if _, err := client.Write([]byte{0, 0, 0, 4, 0x01, 'a', 'b', 'c', 0, 0, 0, 1, 0x7f}); err != nil {
				t.Fatalf("write: %v", err)
			}
			select {
			case <-rxDone:
			case <-time.After(10 * time.Second):
				t.Fatal("consumer scheduler did not finish")
			}
			if !errors.Is(cons.Err(), netpipe.ErrMalformedFrame) {
				t.Fatalf("pipeline Err() = %v, want ErrMalformedFrame", cons.Err())
			}
			if cons.ReachedEOS() {
				t.Fatal("a corrupt frame was reported as end of stream")
			}
			if got := sink.Count(); got != 1 {
				t.Fatalf("sink received %d items, want the 1 good frame", got)
			}
		})
	}
}
