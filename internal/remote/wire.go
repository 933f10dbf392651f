package remote

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"
)

// This file is the one control transport of the system: a gob
// request/response stream over TCP, calls answered in order on each
// connection.  The node endpoint (Node / Client) and the deployment
// operator endpoint (control.Operator / control.OperatorClient) are both a
// Server and a Conn instantiated with their own request and response types;
// nothing else in the repository encodes gob on a control socket.

// ErrNodeUnreachable wraps every transport-level failure of a control call —
// dial errors, send/receive errors, per-call deadline expiry on a wedged
// peer, and calls on a closed client.  Application-level errors (a factory
// rejecting a spec, an unknown pipeline) are NOT wrapped: reaching the peer
// and being told no is not unreachability — unless the peer could not reach a
// third node (a sender dialing a dead listener), which it reports wrapped,
// and the wire keeps.  Inspect with errors.Is.
var ErrNodeUnreachable = errors.New("remote: node unreachable")

// DefaultCallTimeout bounds each control call unless the caller overrides
// it with SetCallTimeout.  Control operations are small request/response
// exchanges; a peer that cannot answer within this window is treated as
// unreachable rather than letting Start/Stop/Wait hang forever.
const DefaultCallTimeout = 10 * time.Second

// reply is the response envelope: the handler's error travels as text
// beside the typed body, so the two endpoints' response types carry only
// their own fields.  Wraps names the sentinel the error wraps (1 + its
// index in sentinels; 0 for none), so errors.Is still sees it on the caller.
type reply[Resp any] struct {
	Err   string
	Wraps int
	Body  Resp
}

// sentinels are the errors a handler's error keeps across the wire.
var sentinels = []error{ErrNodeUnreachable, ErrUnknownFactory, ErrUnknownPipeline}

// remoteError is a handler's error as the caller sees it: the handler's
// text, wrapping the sentinel the handler's error wrapped.
type remoteError struct {
	msg      string
	sentinel error
}

func (e remoteError) Error() string { return e.msg }
func (e remoteError) Unwrap() error { return e.sentinel }

// Server is the serving half of the control transport: it listens, accepts,
// tracks live connections, and answers each decoded request with the
// handler's response until Close.
type Server[Req, Resp any] struct {
	handle func(Req) (Resp, error)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a server around handle, which runs on the connection's
// goroutine: requests on one connection are answered in order, requests on
// different connections concurrently.
func NewServer[Req, Resp any](handle func(Req) (Resp, error)) *Server[Req, Resp] {
	return &Server[Req, Resp]{handle: handle, conns: make(map[net.Conn]struct{})}
}

// Serve binds addr ("host:0" picks a port) and answers calls until Close.
// It returns the bound address.
func (s *Server[Req, Resp]) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server[Req, Resp]) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server[Req, Resp]) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req Req
		if err := dec.Decode(&req); err != nil {
			return
		}
		var out reply[Resp]
		var err error
		if out.Body, err = s.handle(req); err != nil {
			out.Err = err.Error()
			out.Wraps = 1 + slices.IndexFunc(sentinels, func(s error) bool { return errors.Is(err, s) })
		}
		if err := enc.Encode(&out); err != nil {
			return
		}
	}
}

// stop closes the listener and every live connection — peers see EOF at
// once — without waiting for handlers still inside a request.  It reports
// whether the server was serving (first stop of a served server).
func (s *Server[Req, Resp]) stop() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	if s.ln == nil {
		return false
	}
	s.ln.Close()
	return true
}

// Close stops serving, tears down open connections and waits for their
// handlers to return.  Closing twice is harmless.
func (s *Server[Req, Resp]) Close() {
	s.stop()
	s.wg.Wait()
}

// Conn is the dialing half of the control transport.  Calls are serialized
// internally (one request/response exchange at a time), so a Conn may be
// shared between a deployment's Wait poller and a telemetry or balancer
// loop.
type Conn[Req, Resp any] struct {
	mu      sync.Mutex
	addr    string
	conn    net.Conn
	enc     *gob.Encoder
	dec     *gob.Decoder
	timeout time.Duration
	// broken latches the first transport failure.  A timed-out or
	// interrupted exchange leaves the shared gob stream desynchronized —
	// the server's stale response would pair with the NEXT request — so
	// the connection is closed and every later call fails fast with the
	// latched error instead of silently decoding the wrong response.
	// Reconnect clears it; Close latches it for good.
	broken error
	closed bool
}

// DialConn connects to a Server's address.  Calls carry the default
// per-call deadline (DefaultCallTimeout); adjust with SetCallTimeout.
func DialConn[Req, Resp any](addr string) (*Conn[Req, Resp], error) {
	c := &Conn[Req, Resp]{addr: addr, timeout: DefaultCallTimeout}
	if err := c.Reconnect(); err != nil {
		return nil, err
	}
	return c, nil
}

// Addr returns the control address the connection was dialed against.
func (c *Conn[Req, Resp]) Addr() string { return c.addr }

// Reconnect re-dials the control address in place, clearing a broken latch:
// a transport blip (a timed-out probe, a severed connection) poisons the
// connection permanently, but the peer behind it may be perfectly healthy —
// and the same client is held by deployments, so healing must happen here,
// not by swapping in a fresh client.  On failure the connection stays
// broken; after Close it stays closed.
func (c *Conn[Req, Resp]) Reconnect() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.broken
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("%w: dial %s: %v", ErrNodeUnreachable, c.addr, err)
	}
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn = conn
	c.enc = gob.NewEncoder(conn)
	c.dec = gob.NewDecoder(conn)
	c.broken = nil
	return nil
}

// SetCallTimeout bounds each control call: a peer that does not answer
// within d makes the call fail with a wrapped ErrNodeUnreachable instead of
// hanging forever.  Zero disables the deadline.
func (c *Conn[Req, Resp]) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// Close releases the control connection for good: later calls and
// Reconnects fail fast instead of resurrecting it.  It waits for a call in
// flight (bounded by the per-call deadline).
func (c *Conn[Req, Resp]) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.broken = fmt.Errorf("%w: client for %s closed", ErrNodeUnreachable, c.addr)
	return c.conn.Close()
}

// Call performs one request/response exchange.  A transport failure is
// returned wrapped in ErrNodeUnreachable and poisons the connection (see
// broken); an error the peer's handler returned comes back with its text
// and the sentinel it wrapped (see sentinels) — a handler's
// ErrNodeUnreachable names a peer the handler could not reach, not the one
// called.
func (c *Conn[Req, Resp]) Call(req Req) (Resp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var zero Resp
	if c.broken != nil {
		return zero, c.broken
	}
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout)) //ipvet:allow wallclock per-call I/O deadline on the control socket
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := c.enc.Encode(&req); err != nil {
		return zero, c.breakConn("send", err)
	}
	var in reply[Resp]
	if err := c.dec.Decode(&in); err != nil {
		return zero, c.breakConn("receive", err)
	}
	if in.Err != "" {
		if in.Wraps > 0 && in.Wraps <= len(sentinels) {
			return zero, remoteError{in.Err, sentinels[in.Wraps-1]}
		}
		return zero, errors.New(in.Err)
	}
	return in.Body, nil
}

// breakConn (mu held) poisons the connection after a transport failure and
// closes it, so no later call can pair with a stale response.
func (c *Conn[Req, Resp]) breakConn(stage string, err error) error {
	c.broken = fmt.Errorf("%w: %s: %v", ErrNodeUnreachable, stage, err)
	c.conn.Close()
	return c.broken
}
