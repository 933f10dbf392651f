package netpipe

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// countingConn counts a lane's syscalls on one end of a net.Pipe: writes,
// reads, and the frames each carried.  A TCPLink writes whole frames, and
// over a pipe every read returns one write's bytes whole (the reader's
// buffer is larger than any batch), so both sides can be parsed into frames.
type countingConn struct {
	net.Conn
	mu                    sync.Mutex
	dataWrites, dataReads int // writes / reads that carried a data frame
	dataFrames            int // data frames written
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	data := countDataFrames(p[:n])
	c.mu.Lock()
	c.dataFrames += data
	if data > 0 {
		c.dataWrites++
	}
	c.mu.Unlock()
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if countDataFrames(p[:n]) > 0 {
		c.mu.Lock()
		c.dataReads++
		c.mu.Unlock()
	}
	return n, err
}

// socketPipe is net.Pipe with a send buffer at each end, as a kernel socket
// has: a write returns once queued, and the peer reads each write's bytes
// whole.  (A bare pipe blocks a writer until the peer reads, so a durable
// sender writing under its link's lock and a receiver writing an ack under
// its own would wait for each other.)
func socketPipe() (net.Conn, net.Conn) {
	a, b := net.Pipe()
	return newSendBuffered(a), newSendBuffered(b)
}

type sendBuffered struct {
	net.Conn
	mu     sync.Mutex
	q      chan []byte
	closed bool
}

func newSendBuffered(c net.Conn) *sendBuffered {
	// Room for every write of a row (a few hundred), so a write never
	// blocks, not even under s.mu.
	s := &sendBuffered{Conn: c, q: make(chan []byte, 1<<14)}
	go func() {
		for p := range s.q {
			if _, err := c.Write(p); err != nil {
				break
			}
		}
		c.Close()
	}()
	return s
}

func (s *sendBuffered) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, net.ErrClosed
	}
	s.q <- append([]byte(nil), p...)
	return len(p), nil
}

// Close lets the queued writes go out first.
func (s *sendBuffered) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.q)
	}
	return nil
}

// countDataFrames parses a run of whole frames and counts the data frames.
func countDataFrames(p []byte) (data int) {
	for len(p) >= 5 {
		n := int(binary.BigEndian.Uint32(p))
		if p[4]&0x0f == kindData {
			data++
		}
		if n+4 > len(p) {
			break
		}
		p = p[n+4:]
	}
	return data
}

// laneWork is one row of TestLaneWorkPerItem: the syscalls per item a lane
// spends, measured at the sender's writes and the receiver's reads.
type laneWork struct {
	writesPerItem, readsPerItem, framesPerWrite float64
}

// runCountedLane streams n 8-byte items through a TCPLink over net.Pipe —
// a free pump, or one clocked at 1 kHz on a virtual clock — and counts the
// lane's syscalls.  A durable receiver is the listener link's reader and
// inbox on an established connection.
func runCountedLane(t *testing.T, n int64, durable, paced bool) laneWork {
	t.Helper()
	c1, c2 := socketPipe()
	txConn, rxConn := &countingConn{Conn: c1}, &countingConn{Conn: c2}
	txClock := vclock.Clock(vclock.Real{})
	if paced {
		txClock = vclock.NewVirtual()
	}
	txS := uthread.New(uthread.WithClock(txClock))
	rxS := uthread.New(uthread.WithClock(vclock.Real{}))
	var tx, rx *TCPLink
	if durable {
		tx = NewDurableTCPSenderLink(txConn, DurableConfig{})
		rx = &TCPLink{conn: rxConn, dur: newDurable(DurableConfig{}), rxSched: rxS,
			inbox: newInbox(64), readerDone: make(chan struct{})}
		rx.inbox.blockFull = true
		rxS.AddExternalSource()
		go rx.readLoop()
	} else {
		tx = NewTCPSenderLink(txConn)
		rx = NewTCPReceiverLink(rxConn, rxS, "rx", 0)
	}
	defer rx.Close()
	defer tx.Close()

	pump := pipes.NewFreePump("pump")
	if paced {
		pump = pipes.NewClockedPump("pump", 1000)
	}
	payload := make([]byte, 8)
	var seq int64
	src := pipes.NewPullSwitch("src", func(ctx *core.Ctx) (*item.Item, error) {
		if seq == n {
			return nil, core.ErrEOS
		}
		seq++
		return item.New(payload, seq, ctx.Now()), nil
	})
	prod, err := core.Compose("producer", txS, nil, append([]core.Stage{core.Comp(src.Out(0)), core.Pmp(pump)},
		tx.SenderStages("lane")...))
	if err != nil {
		t.Fatalf("compose producer: %v", err)
	}
	var got int64
	cons, err := core.Compose("consumer", rxS, nil, append(rx.ReceiverStages("lane"),
		core.Pmp(pipes.NewFreePump("out")),
		core.Comp(pipes.NewFuncSink("sink", func(_ *core.Ctx, it *item.Item) error {
			got++
			it.Recycle()
			return nil
		}))))
	if err != nil {
		t.Fatalf("compose consumer: %v", err)
	}
	txDone, rxDone := txS.RunBackground(), rxS.RunBackground()
	cons.Start()
	prod.Start()
	for _, done := range []<-chan error{txDone, rxDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("scheduler: %v", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("lane did not drain")
		}
	}
	if got != n {
		t.Fatalf("delivered %d of %d items", got, n)
	}
	txConn.mu.Lock()
	defer txConn.mu.Unlock()
	rxConn.mu.Lock()
	defer rxConn.mu.Unlock()
	if txConn.dataFrames != int(n) {
		t.Fatalf("%d data frames written for %d items", txConn.dataFrames, n)
	}
	return laneWork{
		writesPerItem:  float64(txConn.dataWrites) / float64(n),
		readsPerItem:   float64(rxConn.dataReads) / float64(n),
		framesPerWrite: float64(txConn.dataFrames) / float64(txConn.dataWrites),
	}
}

// TestLaneWorkPerItem pins the syscalls a TCP lane item costs, as exact
// counts over net.Pipe.  A saturated pump's 16-cycle batch is one write
// and, on the receiving side, one read; a paced pump gives the CPU up after
// every item, so each item is its own write and waits for nothing.
func TestLaneWorkPerItem(t *testing.T) {
	rows := []struct {
		name           string
		n              int64
		durable, paced bool
		want           laneWork
	}{
		{"plain_saturated", 4096, false, false, laneWork{1.0 / 16, 1.0 / 16, 16}},
		{"durable_saturated", 4096, true, false, laneWork{1.0 / 16, 1.0 / 16, 16}},
		{"plain_paced", 64, false, true, laneWork{1, 1, 1}},
	}
	for _, r := range rows {
		got := runCountedLane(t, r.n, r.durable, r.paced)
		t.Logf("%-18s writes_per_item %.4f  reads_per_item %.4f  frames_per_write %.2f",
			r.name, got.writesPerItem, got.readsPerItem, got.framesPerWrite)
		if got != r.want {
			t.Errorf("%s: %+v, golden %+v", r.name, got, r.want)
		}
		if !r.paced && got.writesPerItem > 1.0/8 {
			t.Errorf("%s: %.4f writes per item, above the 1/8 bound", r.name, got.writesPerItem)
		}
	}
}
