package graph_test

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/pipes"
)

// TestReplaceRefusesBufferedSelfAckingSegment: a buffered segment runs more
// than one pump-driven section, so its self-acking inbound lane's ack
// anchor (previous popped sequence, see netpipe's laneRx.pop) cannot prove
// end-of-segment consumption — items could still sit in the internal
// buffer when the anchor acks them, and a journal replay after a move
// would lose them.  Replace and Replaceable must refuse such a segment
// with ErrNotReplaceable, while the deployment itself still runs to
// completion on its durable lane.
func TestReplaceRefusesBufferedSelfAckingSegment(t *testing.T) {
	const items = 40
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()
	cat["buffer"] = func(name string, args []string, _ map[string]string) (core.Stage, error) {
		depth, err := strconv.Atoi(args[0])
		if err != nil {
			return core.Stage{}, err
		}
		return core.Buf(pipes.NewBuffer(name, depth)), nil
	}
	a := startNode(t, "alpha", cat)
	b := startNode(t, "beta", cat)
	c := startNode(t, "gamma", cat)

	g := graph.New("buffered")
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)), graph.Place(0))
	g.AddSpec("pump", "cpump", graph.WithArgs("800"), graph.Place(0))
	g.AddSpec("f", "probe", graph.Place(1))
	g.AddSpec("p1", "fpump", graph.Place(1))
	g.AddSpec("buf", "buffer", graph.WithArgs("4"), graph.Place(1))
	g.AddSpec("p2", "fpump", graph.Place(1))
	g.AddSpec("sink", "collect", graph.Place(1))
	g.Pipe("src", "pump")
	g.Cut("pump", "f")
	g.Pipe("f", "p1", "buf", "p2", "sink")

	d, err := g.Deploy(graph.OnNodes(a.client, b.client, c.client).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	seg := "f>>sink"
	if err := d.Replaceable(seg); !errors.Is(err, graph.ErrNotReplaceable) {
		t.Fatalf("Replaceable(%q) = %v, want ErrNotReplaceable for a buffered self-acking segment", seg, err)
	} else if !strings.Contains(err.Error(), "buffers items internally") {
		t.Fatalf("Replaceable(%q) = %v, want the buffered-segment reason", seg, err)
	}
	if err := d.Rebalance(map[string]int{seg: 2}); !errors.Is(err, graph.ErrNotReplaceable) {
		t.Fatalf("Replace(%q) = %v, want ErrNotReplaceable", seg, err)
	}

	d.Start()
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	tc.mu.Lock()
	sink := tc.sinks["sink"]
	tc.mu.Unlock()
	if sink.Count() != items {
		t.Fatalf("sink got %d items, want %d", sink.Count(), items)
	}
}
