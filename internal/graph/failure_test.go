package graph_test

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/leakcheck"
	"infopipes/internal/pipes"
	"infopipes/internal/remote"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
)

// TestFailedGroupDeployLeavesNoGoroutine deploys a graph whose second
// segment cannot compose (two pumps in one section) onto a 2-shard group
// that is never started.  The first segment composed before the failure;
// the deploy must not leave a goroutine waiting for a pipeline that will
// never run.
func TestFailedGroupDeployLeavesNoGoroutine(t *testing.T) {
	leakcheck.Check(t)
	g := graph.New("leak")
	g.Add(core.Comp(pipes.NewCounterSource("src", 10)))
	g.Add(core.Pmp(pipes.NewFreePump("pump")))
	g.Add(core.Pmp(pipes.NewFreePump("p2")), graph.Place(1))
	g.Add(core.Pmp(pipes.NewFreePump("p3")), graph.Place(1))
	g.Add(core.Comp(pipes.NewCollectSink("sink")), graph.Place(1))
	g.Pipe("src", "pump")
	g.Cut("pump", "p2")
	g.Pipe("p2", "p3", "sink")
	if _, err := g.Deploy(graph.OnGroup(shard.NewGroup(shard.WithShardCount(2)))); err == nil {
		t.Fatal("a segment with two pumps in one section deployed")
	}
}

// TestFailedNodeComposeClosesLanes composes a part list whose last stage
// no factory builds, after an ip/tcpsend that has already dialed a
// listener.  The failed compose must close that connection and unregister
// the sender: the listener reads EOF, and the lane has no sender to redial.
func TestFailedNodeComposeClosesLanes(t *testing.T) {
	leakcheck.Check(t)
	n := startNode(t, "alpha", (&testCatalog{}).catalog())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn
		}
	}()
	const lane = "fc/cut0"
	_, err = n.client.ComposeTenantSegment("fc/up", []remote.StageSpec{
		{Kind: "ip/marshal", Name: lane + "/marshal"},
		{Kind: "ip/tcpsend", Name: lane + "/sink", Params: map[string]string{"addr": ln.Addr().String(), "lane": lane}},
		{Kind: "nope", Name: "nope"},
	}, typespec.Typespec{}, nil, false)
	if !errors.Is(err, remote.ErrUnknownFactory) {
		t.Fatalf("compose = %v, want ErrUnknownFactory", err)
	}
	conn := <-accepted
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("the dialed connection is still open after the failed compose: read = %v, want EOF", err)
	}
	if _, err := n.client.Lane(remote.LaneRequest{Kind: remote.LaneRedial, Lane: lane, Addr: ln.Addr().String()}); err == nil {
		t.Error("the failed compose's sender is still registered: redial succeeded")
	}
}
