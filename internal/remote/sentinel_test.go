package remote_test

import (
	"errors"
	"net"
	"testing"

	"infopipes/internal/graph"
	"infopipes/internal/remote"
)

// TestHandlerErrorsKeepTheirSentinel: an error a node's handler returns
// reaches the caller still wrapping the sentinel it wrapped on the node, so
// a deployer's errors.Is sees an unknown kind, an unknown pipeline, or a
// third node the handler could not reach — and the node it called stays
// reachable.
func TestHandlerErrorsKeepTheirSentinel(t *testing.T) {
	node, _, addr := newTestNode(t, "nodeA")
	graph.EnableNode(node, graph.Catalog{})
	c, err := remote.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := ln.Addr().String()
	ln.Close()

	for _, tc := range []struct {
		name string
		call func() error
		want error
	}{
		{"unknown kind", func() error {
			return c.Compose("g/x", []remote.StageSpec{{Kind: "no-such-kind", Name: "x"}})
		}, remote.ErrUnknownFactory},
		{"start of an unknown pipeline", func() error { return c.Start("g/none") }, remote.ErrUnknownPipeline},
		{"tcpsend to a closed port", func() error {
			return c.Compose("g/send", []remote.StageSpec{{Kind: "ip/tcpsend", Name: "g/cut0/sink",
				Params: map[string]string{"addr": closed, "lane": "g/cut0"}}})
		}, remote.ErrNodeUnreachable},
	} {
		if err := tc.call(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want one wrapping %v", tc.name, err, tc.want)
		}
	}
	if _, err := c.Ping(); err != nil {
		t.Fatalf("the node itself became unreachable: %v", err)
	}
}
