package graph_test

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
)

// quietSource emits its counter's items and then, instead of ending the
// stream, parks its thread until the pipeline stops: a stream that goes
// quiet with no EOS.
type quietSource struct{ *pipes.GeneratorSource }

func (s quietSource) Pull(ctx *core.Ctx) (*item.Item, error) {
	it, err := s.GeneratorSource.Pull(ctx)
	if !errors.Is(err, core.ErrEOS) {
		return it, err
	}
	ctx.Thread().SleepUntilOr(ctx.Now().Add(time.Hour), ctx.Stopping)
	return nil, core.ErrStopped
}

// TestTCPSendFlushesBeforePark sends five items — less than a batch —
// across a cut between two nodes and then goes quiet with no EOS.  The
// node's ip/tcpsend stage wraps the lane's sink, so the sink's batch end has
// to reach it through the wrapper: otherwise the frames stay staged while
// the sending thread sleeps, and nothing arrives.
func TestTCPSendFlushesBeforePark(t *testing.T) {
	const n = 5
	for _, durable := range []bool{false, true} {
		t.Run("durable="+strconv.FormatBool(durable), func(t *testing.T) {
			tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
			cat := tc.catalog()
			cat["quiet"] = func(name string, args []string, _ map[string]string) (core.Stage, error) {
				limit, err := strconv.ParseInt(args[0], 10, 64)
				if err != nil {
					return core.Stage{}, err
				}
				return core.Comp(quietSource{pipes.NewCounterSource(name, limit)}), nil
			}
			a := startNode(t, "alpha", cat)
			b := startNode(t, "beta", cat)
			g := graph.New("quiet")
			g.AddSpec("src", "quiet", graph.WithArgs(strconv.Itoa(n)), graph.Place(0))
			g.AddSpec("pump", "fpump", graph.Place(0))
			g.AddSpec("out", "fpump", graph.Place(1))
			g.AddSpec("sink", "collect", graph.Place(1))
			g.Pipe("src", "pump")
			g.Cut("pump", "out")
			g.Pipe("out", "sink")
			target := graph.OnNodes(a.client, b.client)
			if durable {
				target = target.WithClusterLanes()
			}
			d, err := g.Deploy(target)
			if err != nil {
				t.Fatalf("deploy: %v", err)
			}
			defer d.Stop()
			d.Start()
			until(t, "every item across the lane with the sender idle", func() bool {
				tc.mu.Lock()
				sink := tc.sinks["sink"]
				tc.mu.Unlock()
				return sink != nil && sink.Count() == n
			})
		})
	}
}
