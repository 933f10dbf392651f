package control_test

import (
	"strings"
	"testing"
	"time"

	"infopipes/internal/control"
	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/leakcheck"
	"infopipes/internal/pipes"
	"infopipes/internal/qos"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
)

// TestOperatorEditEndToEnd drives the live-edit surface through the operator
// wire, the way ipctl edit does: a tenant rebind, then a batch of an
// insert and a detach, then a catalog-built attach, all against a running
// group deployment registered on an Operator.  The stream must keep its
// exactly-once guarantees across every op.
func TestOperatorEditEndToEnd(t *testing.T) {
	leakcheck.Check(t)
	const items = 4000
	ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}

	g := graph.New("opedit")
	sink0 := pipes.NewCollectSink("sink0")
	sink1 := pipes.NewCollectSink("sink1")
	g.Add(core.Comp(pipes.NewCounterSource("src", items)))
	g.Add(core.Pmp(pipes.NewClockedPump("pump", 5000)))
	// The group clock is virtual, but the operator calls arrive over real
	// TCP: throttle the stream in real time so the edits can land while
	// items are still in flight.
	g.Add(core.Comp(pipes.NewFuncFilter("slow", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		if it.Seq%4 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
		return it, nil
	})))
	g.Add(core.Comp(pipes.NewCountingProbe("f")))
	g.Split(pipes.NewCopyTee("cpy", 2, 8, typespec.Block, typespec.Block))
	g.Add(core.Pmp(pipes.NewFreePump("p0")))
	g.Add(core.Comp(sink0))
	g.Add(core.Pmp(pipes.NewFreePump("p1")))
	g.Add(core.Comp(sink1))
	g.Pipe("src", "pump", "slow", "f", "cpy")
	g.Pipe("cpy:0", "p0", "sink0")
	g.Pipe("cpy:1", "p1", "sink1")

	tn := qos.NewTenant("ops", qos.Weight(2))
	grp := shard.NewGroup(shard.WithShardCount(2))
	d, err := g.Deploy(graph.OnGroup(grp).WithTenant(tn))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}

	op := control.NewOperator().WithCatalog(ss.catalog())
	op.Register(d)
	addr, err := op.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("operator serve: %v", err)
	}
	defer op.Close()
	c, err := control.DialOperator(addr)
	if err != nil {
		t.Fatalf("dial operator: %v", err)
	}
	defer c.Close()

	grp.Start()
	d.Start()
	deadline := time.Now().Add(10 * time.Second)
	for sink0.Count() < items/40 {
		if time.Now().After(deadline) {
			t.Fatal("stream never got going")
		}
		time.Sleep(time.Millisecond)
	}

	// Tenant rebind: the only edit that needs no quiesce.
	if _, err := c.Edit("opedit", []control.OpEdit{{Kind: "rebind", Weight: 7}}); err != nil {
		t.Fatalf("rebind over the wire: %v", err)
	}
	if w := tn.Weight(); w != 7 {
		t.Fatalf("tenant weight %d after operator rebind, want 7", w)
	}

	// One transaction: splice a catalog-built probe into a live edge and
	// detach the second branch.
	placed, err := c.Edit("opedit", []control.OpEdit{
		{Kind: "insert", From: "slow", To: "f",
			Stages: []control.OpStage{{Name: "mid", Kind: "probe"}}},
		{Kind: "detach", Split: "cpy", Port: 1},
	})
	if err != nil {
		t.Fatalf("insert+detach over the wire: %v", err)
	}
	if len(placed) == 0 {
		t.Fatal("edit answered no placements")
	}

	// Catalog-built attach: a new subscriber branch joins the multicast.
	if _, err := c.Edit("opedit", []control.OpEdit{
		{Kind: "attach", Split: "cpy", Place: -1,
			Stages: []control.OpStage{{Name: "ap", Kind: "fpump"}, {Name: "as", Kind: "collect"}}},
	}); err != nil {
		t.Fatalf("attach over the wire: %v", err)
	}

	// A bad batch must be rejected whole, with the flow untouched.
	if _, err := c.Edit("opedit", []control.OpEdit{
		{Kind: "insert", From: "slow", To: "nosuch",
			Stages: []control.OpStage{{Name: "x", Kind: "probe"}}},
	}); err == nil {
		t.Fatal("insert onto a missing edge succeeded over the wire")
	}
	if _, err := c.Edit("nosuch", []control.OpEdit{{Kind: "rebind", Weight: 1}}); err == nil ||
		!strings.Contains(err.Error(), "unknown deployment") {
		t.Fatalf("edit against an unknown deployment: %v", err)
	}

	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := grp.Wait(); err != nil {
		t.Fatalf("group wait: %v", err)
	}

	// The surviving branch saw every item exactly once, in order.
	if sink0.Count() != items {
		t.Fatalf("surviving branch saw %d items, want %d", sink0.Count(), items)
	}
	for i, it := range sink0.Items() {
		if it.Seq != int64(i+1) {
			t.Fatalf("surviving branch item %d has seq %d", i, it.Seq)
		}
	}
	// The detached branch drained a contiguous prefix.
	prev := int64(0)
	for _, it := range sink1.Items() {
		if it.Seq != prev+1 {
			t.Fatalf("detached branch not a contiguous prefix: seq %d after %d", it.Seq, prev)
		}
		prev = it.Seq
	}
	if prev == 0 || prev > items {
		t.Fatalf("detached branch drained %d items, want a non-empty prefix of %d", prev, items)
	}
	// The attached subscriber collected a contiguous tail ending at EOS.
	ss.mu.Lock()
	as := ss.sinks["as"]
	ss.mu.Unlock()
	if as == nil {
		t.Fatal("attached collect sink was never built")
	}
	tail := as.Items()
	for i := 1; i < len(tail); i++ {
		if tail[i].Seq != tail[i-1].Seq+1 {
			t.Fatalf("attached branch not contiguous: seq %d after %d", tail[i].Seq, tail[i-1].Seq)
		}
	}
	if len(tail) > 0 && tail[len(tail)-1].Seq != items {
		t.Fatalf("attached branch tail ends at %d, want %d", tail[len(tail)-1].Seq, items)
	}
}
