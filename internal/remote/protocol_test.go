package remote_test

import (
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/remote"
	"infopipes/internal/typespec"
)

// TestRemoteStatsAndHealthRoundTrip drives the new §2.4 ops over real TCP:
// health reports liveness counters, and stats snapshots the pump counters
// of hosted pipelines, prefix-filtered.
func TestRemoteStatsAndHealthRoundTrip(t *testing.T) {
	node, sink, addr := newTestNode(t, "nodeA")
	node.Scheduler().RunBackground()
	defer node.Scheduler().Stop()

	c, err := remote.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	h, err := c.Health()
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if h.Node != "nodeA" || h.Pipelines != 0 {
		t.Fatalf("health = %+v, want node nodeA with 0 pipelines", h)
	}

	if err := c.Compose("g/flow", []remote.StageSpec{
		{Kind: "counter-source", Name: "src", Params: map[string]string{"limit": "25"}},
		{Kind: "free-pump", Name: "pump"},
		{Kind: "collect-sink", Name: "sink"},
	}); err != nil {
		t.Fatalf("compose: %v", err)
	}
	if err := c.Start("g/flow"); err != nil {
		t.Fatalf("start: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sink.Count() < 25 {
		if time.Now().After(deadline) {
			t.Fatal("stream never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	rows, err := c.Stats("g/")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if len(rows) != 1 || rows[0].Name != "g/flow" {
		t.Fatalf("stats rows = %+v, want exactly g/flow", rows)
	}
	if rows[0].Items != 25 {
		t.Fatalf("items = %d, want 25", rows[0].Items)
	}
	if !rows[0].EOS {
		t.Fatal("finished pipeline not reported at EOS")
	}
	if rows, _ := c.Stats("other/"); len(rows) != 0 {
		t.Fatalf("prefix filter leaked rows: %+v", rows)
	}

	h, err = c.Health()
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if h.Pipelines != 1 || h.UptimeNanos <= 0 {
		t.Fatalf("health after compose = %+v, want 1 pipeline and positive uptime", h)
	}
}

// audioIn is a producer-style boundary stage requiring an "audio" inbound
// flow — the seeded compose merges the carried seed with its InputSpec,
// exactly as a graph segment's receiving boundary does.
type audioIn struct{ core.Base }

func (s *audioIn) Style() core.Style                  { return core.StyleProducer }
func (s *audioIn) InputSpec() typespec.Typespec       { return typespec.New("audio") }
func (s *audioIn) Pull(*core.Ctx) (*item.Item, error) { return nil, core.ErrEOS }

// TestRemoteSeededComposeChecksFlow: a seeded compose starts Typespec
// propagation from the carried upstream spec — an incompatible boundary
// stage is rejected, the §2.3 check crossing the wire.
func TestRemoteSeededComposeChecksFlow(t *testing.T) {
	node, _, addr := newTestNode(t, "nodeA")
	node.RegisterFactory("audio-in", func(n string, _ map[string]string) (core.Stage, error) {
		return core.Comp(&audioIn{Base: core.Base{CompName: n}}), nil
	})

	c, err := remote.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	stages := []remote.StageSpec{
		{Kind: "audio-in", Name: "in"},
		{Kind: "free-pump", Name: "pump"},
		{Kind: "collect-sink", Name: "sink"},
	}
	_, err = c.ComposeTenantSegment("g/seg", stages, typespec.New("video"), nil, false)
	if err == nil {
		t.Fatal("mistyped seeded compose succeeded")
	}
	if !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("error %q does not name the typespec incompatibility", err)
	}
	// The same compose with a compatible seed (or none) succeeds.
	if _, err := c.ComposeTenantSegment("g/seg", stages, typespec.New("audio"), nil, false); err != nil {
		t.Fatalf("compatible seeded compose: %v", err)
	}
}

// capsFilter passes items through and declares one local event it sends
// and one it handles.
type capsFilter struct{ *pipes.FuncFilter }

func (capsFilter) SendsLocalEvents() []events.Type   { return []events.Type{"tick"} }
func (capsFilter) HandlesLocalEvents() []events.Type { return []events.Type{"tock"} }

// TestRemoteCapsRoundTrip: a segment compose's reply carries the pipeline's
// event-capability sets, for the deployer's graph-wide §2.3 check.
func TestRemoteCapsRoundTrip(t *testing.T) {
	node, _, addr := newTestNode(t, "nodeA")
	node.RegisterFactory("caps", func(n string, _ map[string]string) (core.Stage, error) {
		return core.Comp(capsFilter{pipes.NewFuncFilter(n, func(_ *core.Ctx, it *item.Item) (*item.Item, error) { return it, nil })}), nil
	})
	c, err := remote.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	rep, err := c.ComposeTenantSegment("g/flow", []remote.StageSpec{
		{Kind: "counter-source", Name: "src", Params: map[string]string{"limit": "1"}},
		{Kind: "caps", Name: "caps"},
		{Kind: "free-pump", Name: "pump"},
		{Kind: "collect-sink", Name: "sink"},
	}, typespec.Typespec{}, nil, false)
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	if !slices.Equal(rep.Sends, []string{"tick"}) || !slices.Equal(rep.Handles, []string{"tock"}) {
		t.Fatalf("compose reply caps: sends=%v handles=%v, want [tick] and [tock]", rep.Sends, rep.Handles)
	}
}

// TestRemoteDialUnreachable: dial failures wrap ErrNodeUnreachable too.
func TestRemoteDialUnreachable(t *testing.T) {
	// Bind-then-close to get a port nobody listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := remote.Dial(addr); !errors.Is(err, remote.ErrNodeUnreachable) {
		t.Fatalf("dial err = %v, want wrapped ErrNodeUnreachable", err)
	}
}

// TestRemoteDetachOp: detach tears one pipeline down without touching its
// bus neighbours and frees the name.
func TestRemoteDetachOp(t *testing.T) {
	node, sink, addr := newTestNode(t, "nodeA")
	node.Scheduler().RunBackground()
	defer node.Scheduler().Stop()
	c, err := remote.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	compose := func(name string) {
		if err := c.Compose(name, []remote.StageSpec{
			{Kind: "counter-source", Name: "src", Params: map[string]string{"limit": "0"}},
			{Kind: "free-pump", Name: "pump"},
			{Kind: "collect-sink", Name: "sink"},
		}); err != nil {
			t.Fatalf("compose %s: %v", name, err)
		}
	}
	compose("g/a")
	if err := c.Start("g/a"); err != nil {
		t.Fatalf("start: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sink.Count() < 10 {
		if time.Now().After(deadline) {
			t.Fatal("stream never moved")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.Detach("g/a"); err != nil {
		t.Fatalf("detach: %v", err)
	}
	if _, err := c.Stats("g/a"); err != nil {
		t.Fatalf("stats after detach: %v", err)
	}
	if rows, _ := c.Stats("g/a"); len(rows) != 0 {
		t.Fatalf("detached pipeline still listed: %+v", rows)
	}
	// The name is free again.
	compose("g/a")
	if err := c.Detach("g/nope"); err == nil {
		t.Fatal("detach of unknown pipeline succeeded")
	}
}
