package remote

import (
	"bytes"
	"encoding/gob"
	"io"
	"net"
	"testing"
	"time"

	"infopipes/internal/events"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// FuzzControlConn feeds arbitrary bytes to the control server's decode loop
// (a bare node: no factories, no lane handler).  The server must never panic,
// and every connection must end the same way: a well-formed reply for each
// request it could decode, then a close at the first thing it could not (or
// at end of input) — never a wedged socket.
func FuzzControlConn(f *testing.F) {
	seed := func(reqs ...request) []byte {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		for _, r := range reqs {
			if err := enc.Encode(&r); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	f.Add(seed(request{Op: "ping"}))
	f.Add(seed(request{Op: "compose", Pipeline: "p", Stages: []StageSpec{{Kind: "nope", Name: "x"}}},
		request{Op: "stats", Prefix: "p"}, request{Op: "detach", Pipeline: "p"}))
	// One seed per typed lane op: the bare node answers each with a
	// well-formed error reply, as it does the unknown op that follows.
	for _, lane := range []LaneRequest{
		{Kind: LaneListen, Lane: "l", Durable: true, Chained: true},
		{Kind: LaneDrop, Lane: "l", Side: SenderSide},
		{Kind: LaneRedial, Lane: "l", Addr: "127.0.0.1:1"},
		{Kind: LaneDropTee, Tee: "g/t"},
		{Kind: LaneAbort, Prefix: "g/"},
	} {
		f.Add(seed(request{Op: "lane", Lane: lane}, request{Op: "lookup"}))
	}
	f.Add(seed(request{Op: "rebind"}, request{Op: "event", Event: events.Event{Type: events.Stop}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})

	sched := uthread.New(uthread.WithClock(vclock.Real{}))
	node := NewNode("fuzz", sched, &events.Bus{})
	addr, err := node.Serve("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	sched.RunBackground()
	f.Cleanup(func() { node.Close(); sched.Stop() })

	f.Fuzz(func(t *testing.T, wire []byte) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Thousands of connections a second: close with a reset, so none of
		// them lingers in TIME_WAIT holding an ephemeral port.
		_ = conn.(*net.TCPConn).SetLinger(0)
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		// A write error means the server already hung up on garbage: fine.
		_, _ = conn.Write(wire)
		_ = conn.(*net.TCPConn).CloseWrite()
		out, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("server neither answered nor closed the connection: %v", err)
		}
		dec := gob.NewDecoder(bytes.NewReader(out))
		for {
			var r reply[response]
			if err := dec.Decode(&r); err == io.EOF {
				return
			} else if err != nil {
				t.Fatalf("server sent a malformed reply: %v (% x)", err, out)
			}
		}
	})
}
