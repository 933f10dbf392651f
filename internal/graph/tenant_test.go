package graph_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/qos"
	"infopipes/internal/remote"
	"infopipes/internal/shard"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// tenantSlot describes one tenant of the multi-tenant determinism run; the
// tenant object itself is built fresh per run (scheduling classes bind to one
// scheduler, and the shed comparison needs per-run counters).
type tenantSlot struct {
	seed int64
	mk   func() *qos.Tenant
}

func tenantSlots() []tenantSlot {
	return []tenantSlot{
		{seed: 11, mk: func() *qos.Tenant {
			return qos.NewTenant("gold", qos.Weight(4))
		}},
		{seed: 12, mk: func() *qos.Tenant {
			return qos.NewTenant("silver", qos.Weight(2))
		}},
		// Bronze is rate-limited below every generated source rate (the
		// generator draws 200..1000/s), so its run sheds — and the shed
		// pattern, a pure function of the source pump's tick times, must
		// reproduce across targets too.
		{seed: 13, mk: func() *qos.Tenant {
			return qos.NewTenant("bronze", qos.Weight(1),
				qos.RateLimit(100, 2), qos.Shed(qos.ShedDrop))
		}},
	}
}

// tenantRun holds one tenant's observable outcome on one target.
type tenantRun struct {
	trace           string
	admitted, sheds int64
}

// runTenantsOnScheduler deploys all slots' graphs on ONE scheduler, each
// bound to its own fresh tenant, and drains them together — the weighted-fair
// classes contend for every grant while the flows run.
func runTenantsOnScheduler(t *testing.T, slots []tenantSlot) []tenantRun {
	t.Helper()
	sched := uthread.New()
	gens := make([]*dagGen, len(slots))
	outs := make([]tenantRun, len(slots))
	tenants := make([]*qos.Tenant, len(slots))
	deps := make([]*graph.Deployment, len(slots))
	for i, sl := range slots {
		gens[i] = newDagGen(sl.seed, 1)
		gens[i].build()
		tenants[i] = sl.mk()
		d, err := gens[i].g.Deploy(graph.OnScheduler(sched).WithTenant(tenants[i]))
		if err != nil {
			t.Fatalf("tenant %s: scheduler deploy: %v", tenants[i].Name(), err)
		}
		deps[i] = d
	}
	for _, d := range deps {
		d.Start()
	}
	if err := sched.Run(); err != nil {
		t.Fatalf("scheduler run: %v", err)
	}
	for i, d := range deps {
		if err := d.Wait(); err != nil {
			t.Fatalf("tenant %s: wait: %v", tenants[i].Name(), err)
		}
		outs[i] = tenantRun{gens[i].trace(), tenants[i].Admitted(), tenants[i].Sheds()}
	}
	return outs
}

// runTenantsOnGroup is runTenantsOnScheduler on an n-shard group.  With
// stop >= 0 it stops that slot's deployment at the virtual instant its
// stream is a quarter through.
func runTenantsOnGroup(t *testing.T, slots []tenantSlot, shards, stop int) []tenantRun {
	t.Helper()
	grp := shard.NewGroup(shard.WithShardCount(shards))
	gens := make([]*dagGen, len(slots))
	outs := make([]tenantRun, len(slots))
	tenants := make([]*qos.Tenant, len(slots))
	deps := make([]*graph.Deployment, len(slots))
	for i, sl := range slots {
		gens[i] = newDagGen(sl.seed, shards)
		gens[i].build()
		tenants[i] = sl.mk()
		d, err := gens[i].g.Deploy(graph.OnGroup(grp).WithTenant(tenants[i]))
		if err != nil {
			t.Fatalf("tenant %s: %d-shard deploy: %v", tenants[i].Name(), shards, err)
		}
		deps[i] = d
	}
	if stop >= 0 {
		grp.At(gens[stop].midStream(), deps[stop].Stop)
	}
	grp.External(func() {
		grp.Start()
		for _, d := range deps {
			d.Start()
		}
	})
	for i, d := range deps {
		if err := d.Wait(); err != nil {
			t.Fatalf("tenant %s: %d-shard wait: %v", tenants[i].Name(), shards, err)
		}
	}
	if err := grp.Wait(); err != nil {
		t.Fatalf("%d-shard group wait: %v", shards, err)
	}
	for i := range slots {
		outs[i] = tenantRun{gens[i].trace(), tenants[i].Admitted(), tenants[i].Sheds()}
	}
	return outs
}

// TestMultiTenantGraphDeterminism extends the determinism harness to
// multi-tenant deployments: three tenants — distinct weights, one of them
// rate-limited into shedding — run their random DAGs concurrently on one
// scheduler and on 2- and 4-shard groups.  Weighted-fair scheduling and
// admission control may reorder WORK between tenants, but each tenant's
// per-sink trace, admitted count and shed count must stay byte-identical
// across all three targets.  In a last row the first tenant's deployment is
// stopped a quarter through its stream, and the others' traces and counts
// must not change: a deployment is its own event scope.
func TestMultiTenantGraphDeterminism(t *testing.T) {
	slots := tenantSlots()
	want := runTenantsOnScheduler(t, slots)
	for i, w := range want {
		if w.trace == "" || w.admitted == 0 {
			t.Fatalf("slot %d produced no flow (trace %q, admitted %d)", i, w.trace, w.admitted)
		}
	}
	// The harness must actually exercise shedding, or the bronze comparison
	// is vacuous.
	if want[2].sheds == 0 {
		t.Fatal("rate-limited tenant shed nothing; the harness is not exercising admission")
	}
	for _, shards := range []int{2, 4} {
		got := runTenantsOnGroup(t, slots, shards, -1)
		for i := range slots {
			if got[i].trace != want[i].trace {
				t.Fatalf("tenant slot %d: %d-shard trace diverged\n%s",
					i, shards, divergence(got[i].trace, want[i].trace))
			}
			if got[i].admitted != want[i].admitted || got[i].sheds != want[i].sheds {
				t.Fatalf("tenant slot %d: %d-shard admission diverged: admitted %d/sheds %d, want %d/%d",
					i, shards, got[i].admitted, got[i].sheds, want[i].admitted, want[i].sheds)
			}
		}
	}
	got := runTenantsOnGroup(t, slots, 2, 0)
	if len(got[0].trace) >= len(want[0].trace) {
		t.Fatal("the stopped tenant delivered its whole stream: the stop row shows nothing")
	}
	for i := 1; i < len(slots); i++ {
		if got[i] != want[i] {
			t.Fatalf("tenant slot %d changed when slot 0 was stopped mid-stream: admitted %d/sheds %d, want %d/%d\n%s",
				i, got[i].admitted, got[i].sheds, want[i].admitted, want[i].sheds, divergence(got[i].trace, want[i].trace))
		}
	}
}

// TestTenantFairShareUnderContention is the end-to-end isolation check on a
// local target: two continuously-ready single-segment flows share one shard,
// weight 3 against weight 1.  When the heavy tenant drains its stream, the
// light tenant must have made roughly a third of that progress — fairness as
// proportional progress, not starvation — and the deployments' stats rollups
// must show the grant shares in the same order.
func TestTenantFairShareUnderContention(t *testing.T) {
	const items = 3000
	grp := shard.NewGroup(shard.WithShardCount(1))

	mkFlow := func(name string, probe *pipes.FuncFilter) (*graph.Graph, *pipes.CollectSink) {
		g := graph.New(name)
		sink := pipes.NewCollectSink(name + "-sink")
		g.Add(core.Comp(pipes.NewCounterSource(name+"-src", items)))
		g.Add(core.Pmp(pipes.NewFreePump(name + "-p")))
		g.Add(core.Comp(sink))
		refs := []string{name + "-src", name + "-p"}
		if probe != nil {
			g.Add(core.Comp(probe))
			refs = append(refs, probe.Name())
		}
		g.Pipe(append(refs, name+"-sink")...)
		return g, sink
	}

	// The snapshot has to be taken in-band — from gold's own pipeline as its
	// last item passes — because the whole virtual-clock run completes in
	// real microseconds, far faster than a goroutine waiting on Done() can
	// observe it.  Both flows share one shard, so reading bronze's sink from
	// gold's pump thread is same-goroutine.
	var (
		dGold, dBrz *graph.Deployment
		brzSink     *pipes.CollectSink
		brzProgress int
		goldShare   float64
		brzShare    float64
	)
	probe := pipes.NewFuncFilter("gold-last", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		if it.Seq == items {
			brzProgress = brzSink.Count()
			goldShare = dGold.Stats().Tenants[0].Share
			brzShare = dBrz.Stats().Tenants[0].Share
		}
		return it, nil
	})
	gGold, _ := mkFlow("gold", probe)
	gBrz, bs := mkFlow("brz", nil)
	brzSink = bs

	gold := qos.NewTenant("gold", qos.Weight(3))
	bronze := qos.NewTenant("bronze", qos.Weight(1))
	var err error
	dGold, err = gGold.Deploy(graph.OnGroup(grp).WithTenant(gold))
	if err != nil {
		t.Fatalf("gold deploy: %v", err)
	}
	dBrz, err = gBrz.Deploy(graph.OnGroup(grp).WithTenant(bronze))
	if err != nil {
		t.Fatalf("bronze deploy: %v", err)
	}
	grp.Start()
	dGold.Start()
	dBrz.Start()

	if err := dGold.Wait(); err != nil {
		t.Fatalf("gold wait: %v", err)
	}
	if err := dBrz.Wait(); err != nil {
		t.Fatalf("bronze wait: %v", err)
	}
	if err := grp.Wait(); err != nil {
		t.Fatalf("group wait: %v", err)
	}

	// 3:1 weights → bronze at ≈ items/3 when gold finishes.  The band is
	// deliberately wide (the pump threads hold their run token across
	// uncontended stretches at start and drain), but it rules out both
	// starvation (≈0) and unweighted round-robin (≈items).
	if brzProgress < items*15/100 || brzProgress > items*60/100 {
		t.Fatalf("light tenant at %d of %d when heavy tenant drained; want ≈1/3 under 3:1 weights",
			brzProgress, items)
	}
	if brzSink.Count() != items {
		t.Fatalf("light tenant delivered %d of %d after the run", brzSink.Count(), items)
	}
	if goldShare <= brzShare || goldShare == 0 {
		t.Fatalf("grant shares gold=%.3f bronze=%.3f; the heavier tenant must hold the larger share",
			goldShare, brzShare)
	}
	if gold.Admitted() != items || bronze.Admitted() != items {
		t.Fatalf("admitted gold=%d bronze=%d, want %d each (no rate limit set)",
			gold.Admitted(), bronze.Admitted(), items)
	}
}

// TestTenantStatsRollup: a rate-limited shedding tenant's deployment reports
// the admission outcome and scheduling share through GraphStats, and the
// operator rendering carries the tnt row.
func TestTenantStatsRollup(t *testing.T) {
	const items = 200
	g := graph.New("roll")
	sink := pipes.NewCollectSink("sink")
	g.Add(core.Comp(pipes.NewCounterSource("src", items)))
	g.Add(core.Pmp(pipes.NewClockedPump("pump", 400)))
	g.Add(core.Comp(sink))
	g.Pipe("src", "pump", "sink")

	tn := qos.NewTenant("capped", qos.Weight(2), qos.RateLimit(100, 1))
	grp := shard.NewGroup(shard.WithShardCount(2))
	d, err := g.Deploy(graph.OnGroup(grp).WithTenant(tn))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	grp.Start()
	d.Start()
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := grp.Wait(); err != nil {
		t.Fatalf("group wait: %v", err)
	}

	st := d.Stats()
	if len(st.Tenants) != 1 {
		t.Fatalf("stats carry %d tenant rows, want 1", len(st.Tenants))
	}
	row := st.Tenants[0]
	if row.Tenant != "capped" || row.Weight != 2 {
		t.Fatalf("tenant row %+v, want name=capped weight=2", row)
	}
	if row.Admitted+row.Sheds != items {
		t.Fatalf("admitted %d + sheds %d != %d offered", row.Admitted, row.Sheds, items)
	}
	if row.Sheds == 0 {
		t.Fatal("a 400/s source through a 100/s tenant shed nothing")
	}
	if row.Admitted != int64(sink.Count()) {
		t.Fatalf("admitted %d but sink saw %d", row.Admitted, sink.Count())
	}
	if row.Share <= 0 || row.Share > 1 {
		t.Fatalf("share %.3f out of range (0,1]", row.Share)
	}
	if s := st.String(); !strings.Contains(s, "tnt capped") {
		t.Fatalf("stats rendering lacks the tenant row:\n%s", s)
	}
}

// TestRemoteTenantEndToEnd: a tenant bound to an OnNodes deployment rides
// the compose protocol — every node materialises the tenant and its
// scheduling class, the true-source segment gets the admission gate, the
// relay pumps run at the tenant's priority (here PriorityHigh, so the
// cross-node lanes carry the priority on the wire), and the per-node
// `tenants` op plus the deployment's Stats fold report the rollup.
func TestRemoteTenantEndToEnd(t *testing.T) {
	const items = 30
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()

	mkNode := func(name string) (*remote.Node, *uthread.Scheduler, *remote.Client) {
		sched := uthread.New(uthread.WithClock(vclock.Real{}))
		node := remote.NewNode(name, sched, &events.Bus{})
		graph.EnableNode(node, cat)
		addr, err := node.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatalf("node %s: %v", name, err)
		}
		client, err := remote.Dial(addr)
		if err != nil {
			t.Fatalf("dial %s: %v", name, err)
		}
		sched.RunBackground()
		return node, sched, client
	}
	nodeA, schedA, clientA := mkNode("alpha")
	defer func() { nodeA.Close(); schedA.Stop() }()
	nodeB, schedB, clientB := mkNode("beta")
	defer func() { nodeB.Close(); schedB.Stop() }()

	g := graph.New("qrd")
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)))
	g.AddSpec("pump", "cpump", graph.WithArgs("600"))
	g.SplitSpec("tee", "route", 2, graph.WithParam("sel", "mod"))
	g.AddSpec("fa", "probe")
	g.AddSpec("pa", "fpump")
	g.AddSpec("fb", "probe", graph.Place(1))
	g.AddSpec("pb", "fpump", graph.Place(1))
	g.MergeSpec("mrg", 2)
	g.AddSpec("po", "fpump")
	g.AddSpec("sink", "collect")
	g.Pipe("src", "pump", "tee")
	g.Pipe("tee:0", "fa", "pa", "mrg:0")
	g.Pipe("tee:1", "fb", "pb", "mrg:1")
	g.Pipe("mrg", "po", "sink")

	tn := qos.NewTenant("express", qos.Weight(3),
		qos.Priority(uthread.PriorityHigh))
	d, err := g.Deploy(graph.OnNodes(clientA, clientB).WithTenant(tn))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	d.Start()
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}

	tc.mu.Lock()
	sink := tc.sinks["sink"]
	tc.mu.Unlock()
	if sink == nil || sink.Count() != items {
		t.Fatalf("sink received %v items, want %d", sinkCount(sink), items)
	}
	seen := make(map[int64]bool, items)
	for _, it := range sink.Items() {
		if seen[it.Seq] {
			t.Fatalf("duplicate seq %d across the prioritised lanes", it.Seq)
		}
		seen[it.Seq] = true
	}

	// Both nodes materialised the tenant: alpha admitted the whole stream at
	// the trunk's source, beta only ran branch work under the class.
	rows := func(c *remote.Client, node string) map[string]remote.TenantStat {
		ts, err := c.Tenants()
		if err != nil {
			t.Fatalf("%s tenants op: %v", node, err)
		}
		m := make(map[string]remote.TenantStat, len(ts))
		for _, r := range ts {
			m[r.Name] = r
		}
		return m
	}
	ra, ok := rows(clientA, "alpha")["express"]
	if !ok {
		t.Fatal("node alpha has no express tenant row")
	}
	if ra.Admitted != items || ra.Sheds != 0 {
		t.Fatalf("alpha admitted=%d sheds=%d, want %d/0", ra.Admitted, ra.Sheds, items)
	}
	if ra.Weight != 3 || ra.Granted == 0 {
		t.Fatalf("alpha row %+v: want weight 3 and granted > 0", ra)
	}
	rb, ok := rows(clientB, "beta")["express"]
	if !ok {
		t.Fatal("node beta has no express tenant row")
	}
	if rb.Granted == 0 {
		t.Fatal("beta ran the tenant's branch but charged no grants to its class")
	}

	// The deployment folds the per-node rows into one GraphStats row.
	st := d.Stats()
	if len(st.Tenants) != 1 {
		t.Fatalf("deployment stats carry %d tenant rows, want 1", len(st.Tenants))
	}
	row := st.Tenants[0]
	if row.Tenant != "express" || row.Admitted != items || row.Sheds != 0 {
		t.Fatalf("folded row %+v, want express %d/0", row, items)
	}
	if row.Share <= 0 {
		t.Fatalf("folded share %.3f, want > 0", row.Share)
	}
}

// TestRemoteTenantCountersSurviveReplace pins the admission ledger across a
// live segment move on a cluster deployment: a rate-capped tenant sheds at
// the true-source node while the middle cut segment is Replaced onto
// another node mid-overload.  The fold across nodes must still satisfy
// admitted + sheds == offered, and every admitted item must reach the sink
// — the move may neither lose nor double-count admission decisions.
func TestRemoteTenantCountersSurviveReplace(t *testing.T) {
	const items = 240
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()
	a := startNode(t, "alpha", cat)
	b := startNode(t, "beta", cat)
	c := startNode(t, "gamma", cat)

	// src>>pump (n0, gate here) | cut | mid>>mp (n1) | cut | oc>>op>>sink (n2)
	g := graph.New("capmove")
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)), graph.Place(0))
	g.AddSpec("pump", "cpump", graph.WithArgs("400"), graph.Place(0))
	g.AddSpec("mid", "probe", graph.Place(1))
	g.AddSpec("mp", "fpump", graph.Place(1))
	g.AddSpec("oc", "probe", graph.Place(2))
	g.AddSpec("op", "fpump", graph.Place(2))
	g.AddSpec("sink", "collect", graph.Place(2))
	g.Pipe("src", "pump")
	g.Cut("pump", "mid")
	g.Pipe("mid", "mp")
	g.Cut("mp", "oc")
	g.Pipe("oc", "op", "sink")

	tn := qos.NewTenant("capped", qos.Weight(2), qos.RateLimit(100, 1))
	d, err := g.Deploy(graph.OnNodes(a.client, b.client, c.client).
		WithClusterLanes().WithTenant(tn))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	d.Start()

	// Wait until the capped stream is demonstrably mid-overload (items are
	// flowing, so the 400/s source is already outrunning the 100/s gate),
	// then move the middle segment from beta onto gamma.
	deadline := time.Now().Add(10 * time.Second)
	for {
		tc.mu.Lock()
		sink := tc.sinks["sink"]
		tc.mu.Unlock()
		if sink != nil && sink.Count() >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never got going")
		}
		time.Sleep(2 * time.Millisecond)
	}
	const mid = "mid>>mp"
	if err := d.Rebalance(map[string]int{mid: 2}); err != nil {
		t.Fatalf("replace %q: %v", mid, err)
	}
	if got := d.SegmentPlacements()[mid]; got != 2 {
		t.Fatalf("segment %q placed on node %d after replace, want 2", mid, got)
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}

	tc.mu.Lock()
	sink := tc.sinks["sink"]
	tc.mu.Unlock()
	st := d.Stats()
	if len(st.Tenants) != 1 {
		t.Fatalf("folded stats carry %d tenant rows, want 1", len(st.Tenants))
	}
	row := st.Tenants[0]
	if row.Tenant != "capped" || row.Weight != 2 {
		t.Fatalf("tenant row %+v, want name=capped weight=2", row)
	}
	if row.Admitted+row.Sheds != items {
		t.Fatalf("admission ledger broke across the move: admitted %d + sheds %d != %d offered",
			row.Admitted, row.Sheds, items)
	}
	if row.Sheds == 0 {
		t.Fatal("a 400/s source through a 100/s tenant shed nothing — the run was not overloaded")
	}
	if row.Admitted != int64(sink.Count()) {
		t.Fatalf("admitted %d items but the sink saw %d — the moved segment lost or duplicated admitted items",
			row.Admitted, sink.Count())
	}
	// Every admitted item arrived exactly once, in order.
	var last int64
	for _, it := range sink.Items() {
		if it.Seq <= last {
			t.Fatalf("sink stream not strictly increasing across the move: %d after %d", it.Seq, last)
		}
		last = it.Seq
	}
}

func sinkCount(s *pipes.CollectSink) interface{} {
	if s == nil {
		return "no sink"
	}
	return s.Count()
}
