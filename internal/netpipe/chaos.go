package netpipe

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Chaos is a seeded, deterministic fault injector for TCP lanes: it wraps a
// connection's producer side and misbehaves per write.  A TCPLink write is a
// batch — the frames its sending pump staged since it last gave up the CPU,
// one frame on a paced lane — so the fault rates below are per write, and a
// fault hits every frame of the batch.  The faults model what real TCP can
// do to a lane:
//
//   - drop: the write is swallowed and the connection severed — the tail of
//     a stream lost inside a dying socket.  Durable lanes recover it from
//     the journal after a Redial.
//   - dup: the write is sent twice — a replay overlap.  The receiver's
//     dedup watermark must drop the second copy of each frame.
//   - delay: the write goes out after a bounded, seeded pause.
//   - stall: writes freeze for a window (a short partition), then heal.
//   - kill: half the write's bytes go out, then the connection is severed —
//     the receiver sees a short read mid-frame, which must park the lane,
//     not terminate the stream.
//
// All decisions come from one seeded PRNG, so a failing run replays
// identically from its seed.
type Chaos struct {
	// OneIn frequencies: a fault fires when rng.Intn(N) == 0; zero disables
	// that fault.
	DropOneIn  int
	DupOneIn   int
	DelayOneIn int
	StallOneIn int
	KillOneIn  int

	MaxDelay time.Duration // per-write delay bound (default 2ms)
	StallFor time.Duration // partition window (default 20ms)
}

// ChaosStats counts the faults a chaos connection actually injected.
type ChaosStats struct {
	Writes, Drops, Dups, Delays, Stalls, Kills int64
}

// ChaosConn wraps a net.Conn with seeded per-write fault injection on the
// write side; reads pass through untouched.
type ChaosConn struct {
	net.Conn
	cfg Chaos

	mu      sync.Mutex
	rng     *rand.Rand
	stats   ChaosStats
	severed bool
	closed  chan struct{}
}

// NewChaosConn wraps conn; all faults draw from the given seed.
func NewChaosConn(conn net.Conn, seed int64, cfg Chaos) *ChaosConn {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	if cfg.StallFor <= 0 {
		cfg.StallFor = 20 * time.Millisecond
	}
	return &ChaosConn{
		Conn:   conn,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(seed)),
		closed: make(chan struct{}),
	}
}

// ChaosDial dials addr and wraps the connection.
func ChaosDial(addr string, seed int64, cfg Chaos) (*ChaosConn, error) {
	conn, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	return NewChaosConn(conn, seed, cfg), nil
}

// Stats snapshots the injected-fault counters.
func (c *ChaosConn) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Severed reports whether a drop/kill fault tore the connection down.
func (c *ChaosConn) Severed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.severed
}

// Close implements net.Conn, additionally interrupting a stall in progress.
func (c *ChaosConn) Close() error {
	c.mu.Lock()
	if !c.severed {
		c.severed = true
		close(c.closed)
	}
	c.mu.Unlock()
	return c.Conn.Close()
}

// sever tears the underlying connection down without marking the wrapper
// closed by the user: subsequent writes fail like on a broken socket.
func (c *ChaosConn) severLocked() {
	if !c.severed {
		c.severed = true
		close(c.closed)
	}
	c.Conn.Close()
}

// roll draws one fault decision; must hold c.mu.
func (c *ChaosConn) roll(oneIn int) bool {
	return oneIn > 0 && c.rng.Intn(oneIn) == 0
}

// Write implements net.Conn with per-write fault injection.
func (c *ChaosConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.severed {
		c.mu.Unlock()
		return 0, fmt.Errorf("netpipe: chaos: connection severed")
	}
	c.stats.Writes++
	drop := c.roll(c.cfg.DropOneIn)
	dup := !drop && c.roll(c.cfg.DupOneIn)
	delay := time.Duration(0)
	if !drop && c.roll(c.cfg.DelayOneIn) {
		delay = time.Duration(c.rng.Int63n(int64(c.cfg.MaxDelay)))
		c.stats.Delays++
	}
	stall := !drop && c.roll(c.cfg.StallOneIn)
	kill := !drop && !dup && c.roll(c.cfg.KillOneIn)
	if drop {
		c.stats.Drops++
		c.severLocked()
		c.mu.Unlock()
		// The write vanished inside the socket: report success, like a
		// kernel that buffered bytes the peer never got.
		return len(p), nil
	}
	if dup {
		c.stats.Dups++
	}
	if stall {
		c.stats.Stalls++
	}
	if kill {
		c.stats.Kills++
	}
	closed := c.closed
	c.mu.Unlock()

	if stall {
		select {
		//ipvet:allow wallclock fault injection stalls a real socket by design
		case <-time.After(c.cfg.StallFor):
		case <-closed:
			return 0, fmt.Errorf("netpipe: chaos: closed during stall")
		}
	}
	if delay > 0 {
		time.Sleep(delay) //ipvet:allow wallclock fault injection delays a real socket by design
	}
	if kill && len(p) > 1 {
		n, _ := c.Conn.Write(p[:len(p)/2])
		c.mu.Lock()
		c.severLocked()
		c.mu.Unlock()
		return n, fmt.Errorf("netpipe: chaos: killed mid-write after %d bytes", n)
	}
	n, err := c.Conn.Write(p)
	if err != nil {
		return n, err
	}
	if dup {
		if _, derr := c.Conn.Write(p); derr != nil {
			return n, nil // the duplicate died with the conn; original stands
		}
	}
	return n, nil
}
