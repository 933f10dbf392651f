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

// runCountedLane streams n items of size bytes through a TCPLink over a bare
// net.Pipe — a free pump, or one clocked at 1 kHz on a virtual clock — and
// counts the lane's syscalls.  A pipe has no send buffer: every write waits
// for the peer's read, so a lane that wrote while holding the lock its own
// readers need would stall here.  A durable receiver is the listener link's
// reader and inbox (inbox frames deep) on an established connection.
func runCountedLane(t *testing.T, n int64, size int, durable, paced bool, inbox int) laneWork {
	t.Helper()
	c1, c2 := net.Pipe()
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
			inbox: newInbox(inbox), readerDone: make(chan struct{})}
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
	payload := make([]byte, size)
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
// counts over a bare net.Pipe.  A saturated pump's 16-cycle batch is one
// write and, on the receiving side, one read; a paced pump gives the CPU up
// after every item, so each item is its own write and waits for nothing.
func TestLaneWorkPerItem(t *testing.T) {
	rows := []struct {
		name           string
		n              int64
		size           int
		durable, paced bool
		want           laneWork
	}{
		{"plain_saturated", 4096, 8, false, false, laneWork{1.0 / 16, 1.0 / 16, 16}},
		{"durable_saturated", 4096, 8, true, false, laneWork{1.0 / 16, 1.0 / 16, 16}},
		{"plain_paced", 64, 8, false, true, laneWork{1, 1, 1}},
		{"plain_4k_saturated", 1024, 4096, false, false, laneWork{1.0 / 16, 1.0 / 16, 16}},
	}
	for _, r := range rows {
		got := runCountedLane(t, r.n, r.size, r.durable, r.paced, 64)
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

// TestDurableLaneOneSlotInboxOverBarePipe runs a durable lane to completion
// with a one-frame inbox over a bare pipe.  The receiver's reader then
// waits for the consumer at almost every frame, and the consumer writes an
// ack every 64 items, so the sender's data writes and the receiver's ack
// writes wait on each other's readers all the time: a lane that writes
// under the lock its reader needs stalls until the write deadline parks it.
func TestDurableLaneOneSlotInboxOverBarePipe(t *testing.T) {
	const n = 4096
	got := runCountedLane(t, n, 8, true, false, 1)
	t.Logf("writes_per_item %.4f  reads_per_item %.4f  frames_per_write %.2f",
		got.writesPerItem, got.readsPerItem, got.framesPerWrite)
}
