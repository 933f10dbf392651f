package control_test

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"infopipes/internal/control"
	"infopipes/internal/events"
	"infopipes/internal/remote"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// The control transport is written once (remote.Server / remote.Conn) and
// instantiated twice; these tests are written once too and run against both
// instantiations: a node and a deployment operator.

// ctlClient is one endpoint's dialing side, reduced to what the transport
// tests exercise.
type ctlClient struct {
	conn interface {
		Reconnect() error
		SetCallTimeout(time.Duration)
		Close() error
	}
	ping func() error // a call the peer answers at once
	slow func() error // a call whose handler parks until the peer's park channel closes
}

// ctlEndpoint serves one kind of control endpoint on addr.  Handlers of the
// slow call announce themselves on entered and park until park closes; kill
// takes the endpoint down the way a process exit would (it returns once the
// handlers have).
type ctlEndpoint struct {
	name  string
	serve func(t *testing.T, addr string, entered chan<- struct{}, park <-chan struct{}) (bound string, kill func())
	dial  func(addr string) (ctlClient, error)
}

// parkingCluster is a ClusterOps whose membership query parks.
type parkingCluster struct {
	entered chan<- struct{}
	park    <-chan struct{}
}

func (p parkingCluster) NodeRows() []control.OpNode {
	p.entered <- struct{}{}
	<-p.park
	return nil
}
func (parkingCluster) Drain(string) error                         { return nil }
func (parkingCluster) ClusterEvents(int) []control.OpClusterEvent { return nil }

var ctlEndpoints = []ctlEndpoint{
	{
		name: "node",
		serve: func(t *testing.T, addr string, entered chan<- struct{}, park <-chan struct{}) (string, func()) {
			node := remote.NewNode("n", uthread.New(uthread.WithClock(vclock.Real{})), &events.Bus{})
			node.HandleLanes(func(remote.LaneRequest) (remote.LaneReply, error) {
				entered <- struct{}{}
				<-park
				return remote.LaneReply{}, nil
			})
			bound, err := node.Serve(addr)
			if err != nil {
				t.Fatalf("node serve %s: %v", addr, err)
			}
			return bound, node.Close
		},
		dial: func(addr string) (ctlClient, error) {
			c, err := remote.Dial(addr)
			if err != nil {
				return ctlClient{}, err
			}
			return ctlClient{conn: c,
				ping: func() error { _, err := c.Ping(); return err },
				slow: func() error { _, err := c.Lane(remote.LaneRequest{}); return err }}, nil
		},
	},
	{
		name: "operator",
		serve: func(t *testing.T, addr string, entered chan<- struct{}, park <-chan struct{}) (string, func()) {
			op := control.NewOperator().WithCluster(parkingCluster{entered, park})
			bound, err := op.Serve(addr)
			if err != nil {
				t.Fatalf("operator serve %s: %v", addr, err)
			}
			return bound, op.Close
		},
		dial: func(addr string) (ctlClient, error) {
			c, err := control.DialOperator(addr)
			if err != nil {
				return ctlClient{}, err
			}
			return ctlClient{conn: c,
				ping: func() error { _, err := c.Deployments(); return err },
				slow: func() error { _, err := c.Nodes(); return err }}, nil
		},
	},
}

// TestControlPeerKilledMidCall: a peer dying under a call in flight fails
// the call with ErrNodeUnreachable and latches the client broken — later
// calls fail fast WITHOUT touching the socket, even when a fresh peer is
// already listening on the same address — until Reconnect heals the same
// client in place.
func TestControlPeerKilledMidCall(t *testing.T) {
	for _, ep := range ctlEndpoints {
		t.Run(ep.name, func(t *testing.T) {
			entered, park := make(chan struct{}, 1), make(chan struct{})
			addr, kill := ep.serve(t, "127.0.0.1:0", entered, park)
			c, err := ep.dial(addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.conn.Close()
			if err := c.ping(); err != nil {
				t.Fatalf("ping a live peer: %v", err)
			}

			called := make(chan error, 1)
			go func() { called <- c.slow() }()
			<-entered
			killed := make(chan struct{})
			go func() { kill(); close(killed) }()
			select {
			case err := <-called:
				if !errors.Is(err, remote.ErrNodeUnreachable) {
					t.Fatalf("call across the kill = %v, want wrapped ErrNodeUnreachable", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("call in flight outlived its peer")
			}
			close(park)
			<-killed

			open := make(chan struct{})
			close(open)
			_, kill2 := ep.serve(t, addr, entered, open)
			defer kill2()
			if err := c.ping(); !errors.Is(err, remote.ErrNodeUnreachable) {
				t.Fatalf("call on a broken client = %v, want the latched ErrNodeUnreachable (it must not redial by itself)", err)
			}
			if err := c.conn.Reconnect(); err != nil {
				t.Fatalf("reconnect to the fresh peer: %v", err)
			}
			if err := c.ping(); err != nil {
				t.Fatalf("ping after reconnect: %v", err)
			}
			if err := c.slow(); err != nil {
				t.Fatalf("slow call after reconnect: %v", err)
			}
		})
	}
}

// TestControlCallTimeout: a peer that accepts connections but never answers
// makes calls fail with the wrapped ErrNodeUnreachable after the per-call
// deadline, instead of hanging forever — and the client stays broken.
func TestControlCallTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Wedged peer: read requests, answer nothing.
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	for _, ep := range ctlEndpoints {
		t.Run(ep.name, func(t *testing.T) {
			c, err := ep.dial(ln.Addr().String())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.conn.Close()
			c.conn.SetCallTimeout(100 * time.Millisecond)
			start := time.Now()
			if err := c.ping(); !errors.Is(err, remote.ErrNodeUnreachable) {
				t.Fatalf("ping of a wedged peer = %v, want wrapped ErrNodeUnreachable", err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("call took %v, deadline not applied", elapsed)
			}
			c.conn.SetCallTimeout(time.Minute)
			start = time.Now()
			if err := c.ping(); !errors.Is(err, remote.ErrNodeUnreachable) {
				t.Fatalf("second ping = %v, want the latched ErrNodeUnreachable", err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("call on a broken client took %v, want fail-fast", elapsed)
			}
		})
	}
}

// TestControlCloseRacesReconnect: Directory.Leave closes a node's client
// while the heartbeat's probe may be inside Reconnect on the same client.
// Whichever wins, the client ends up closed for good.  Run under -race.
func TestControlCloseRacesReconnect(t *testing.T) {
	for _, ep := range ctlEndpoints {
		t.Run(ep.name, func(t *testing.T) {
			open := make(chan struct{})
			close(open)
			addr, kill := ep.serve(t, "127.0.0.1:0", make(chan struct{}, 1), open)
			defer kill()
			for i := 0; i < 50; i++ {
				c, err := ep.dial(addr)
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); _ = c.conn.Reconnect() }()
				go func() { defer wg.Done(); c.conn.Close() }()
				wg.Wait()
				if err := c.ping(); !errors.Is(err, remote.ErrNodeUnreachable) {
					t.Fatalf("ping after Close = %v, want wrapped ErrNodeUnreachable", err)
				}
				if err := c.conn.Reconnect(); !errors.Is(err, remote.ErrNodeUnreachable) {
					t.Fatalf("Reconnect after Close = %v, want it refused", err)
				}
			}
		})
	}
}
