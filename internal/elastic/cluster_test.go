package elastic_test

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infopipes/internal/control"
	"infopipes/internal/core"
	"infopipes/internal/elastic"
	"infopipes/internal/events"
	"infopipes/internal/graph"
	"infopipes/internal/leakcheck"
	"infopipes/internal/netpipe"
	"infopipes/internal/pipes"
	"infopipes/internal/remote"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

func init() {
	netpipe.RegisterPayload(int64(0))
}

// sinkStore captures collect sinks built on in-process remote nodes.
type sinkStore struct {
	mu    sync.Mutex
	sinks map[string]*pipes.CollectSink
}

func (ss *sinkStore) get(name string) *pipes.CollectSink {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.sinks[name]
}

func (ss *sinkStore) catalog() graph.Catalog {
	return graph.Catalog{
		"counter": func(name string, args []string, _ map[string]string) (core.Stage, error) {
			limit, err := strconv.ParseInt(args[0], 10, 64)
			if err != nil {
				return core.Stage{}, err
			}
			return core.Comp(pipes.NewCounterSource(name, limit)), nil
		},
		"cpump": func(name string, args []string, _ map[string]string) (core.Stage, error) {
			rate, err := strconv.ParseFloat(args[0], 64)
			if err != nil {
				return core.Stage{}, err
			}
			return core.Pmp(pipes.NewClockedPump(name, rate)), nil
		},
		"fpump": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			return core.Pmp(pipes.NewFreePump(name)), nil
		},
		"probe": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			return core.Comp(pipes.NewCountingProbe(name)), nil
		},
		"collect": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			s := pipes.NewCollectSink(name)
			ss.mu.Lock()
			ss.sinks[name] = s
			ss.mu.Unlock()
			return core.Comp(s), nil
		},
	}
}

type clusterNode struct {
	node  *remote.Node
	sched *uthread.Scheduler
	addr  string
}

func startClusterNode(t *testing.T, name string, cat graph.Catalog) *clusterNode {
	t.Helper()
	sched := uthread.New(uthread.WithClock(vclock.Real{}))
	node := remote.NewNode(name, sched, &events.Bus{})
	graph.EnableNode(node, cat)
	addr, err := node.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("node %s: %v", name, err)
	}
	sched.RunBackground()
	cn := &clusterNode{node: node, sched: sched, addr: addr}
	t.Cleanup(func() { cn.close() })
	return cn
}

func (cn *clusterNode) close() {
	cn.node.Close()
	cn.sched.Stop()
}

// registerAll puts the given nodes in the directory, in order — the
// registration order fixes the node indices every deployment uses.
func registerAll(t *testing.T, dir *control.Directory, nodes ...*clusterNode) {
	t.Helper()
	for _, n := range nodes {
		if _, err := dir.Register(n.addr); err != nil {
			t.Fatalf("register %s: %v", n.addr, err)
		}
	}
}

// drainChain declares src >> pump | mid >> mp | out >> sink with the mid
// segment on midPlace and the tail on tailPlace.
func drainChain(name string, items, rate, midPlace, tailPlace int) *graph.Graph {
	g := graph.New(name)
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)), graph.Place(0))
	g.AddSpec("pump", "cpump", graph.WithArgs(strconv.Itoa(rate)), graph.Place(0))
	g.AddSpec("mid", "probe", graph.Place(midPlace))
	g.AddSpec("mp", "fpump", graph.Place(midPlace))
	g.AddSpec("out", "fpump", graph.Place(tailPlace))
	g.AddSpec("sink", "collect", graph.Place(tailPlace))
	g.Pipe("src", "pump")
	g.Cut("pump", "mid")
	g.Pipe("mid", "mp")
	g.Cut("mp", "out")
	g.Pipe("out", "sink")
	return g
}

// startLoop builds and starts a control loop on a virtual clock that ticks
// only when told; cleanup stops it.
func startLoop(t *testing.T, dir *control.Directory, deps ...*graph.Deployment) *elastic.Cluster {
	t.Helper()
	cl := elastic.NewCluster(dir, vclock.NewVirtual(), 0)
	for _, d := range deps {
		cl.Manage(d)
	}
	cl.Start()
	t.Cleanup(cl.Stop)
	return cl
}

// logLine renders log entries as "KIND node, ..." for comparisons.
func logLine(evs []elastic.Event) string {
	parts := make([]string, len(evs))
	for i, ev := range evs {
		parts[i] = fmt.Sprintf("%s %s", ev.Kind, ev.Node)
	}
	return strings.Join(parts, ", ")
}

// pollSink waits for a node-hosted collect sink to reach n items.
func pollSink(t *testing.T, ss *sinkStore, name string, n int) {
	t.Helper()
	end := time.Now().Add(20 * time.Second)
	for time.Now().Before(end) {
		if sink := ss.get(name); sink != nil && sink.Count() >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("sink %q never reached %d items", name, n)
}

// TestClusterJoinDrainLeaveByteIdentical is the membership round-trip: a
// fresh node joins mid-stream, the node hosting the mid segment drains onto
// it (durable lanes carry every in-flight item across), and the drained
// node leaves — while the sink trace stays byte-identical to an undisturbed
// run, and the membership log records JOIN/DRAIN/LEAVE in order.
func TestClusterJoinDrainLeaveByteIdentical(t *testing.T) {
	leakcheck.Check(t)
	const (
		items = 300
		rate  = 400
	)
	ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}
	cat := ss.catalog()
	alpha := startClusterNode(t, "alpha", cat)
	beta := startClusterNode(t, "beta", cat)

	dir := control.NewDirectory()
	t.Cleanup(dir.Close)
	registerAll(t, dir, alpha, beta)

	g := drainChain("elchain", items, rate, 1, 0)
	d, err := g.Deploy(graph.OnNodes(dir.Clients()...).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	cl := startLoop(t, dir, d)
	d.Start()
	pollSink(t, ss, "sink", items/8)

	gamma := startClusterNode(t, "gamma", cat)
	name, err := cl.Join(gamma.addr)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if name != "gamma" || dir.NodeIndex(name) != 2 {
		t.Fatalf("join: name=%q index=%d, want gamma/2", name, dir.NodeIndex(name))
	}
	if err := cl.Drain("beta"); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if node := d.SegmentPlacements()["mid>>mp"]; node != 2 {
		t.Fatalf("mid segment drained onto node %d, want the joined node 2", node)
	}
	if err := cl.Leave("beta"); err != nil {
		t.Fatalf("leave: %v", err)
	}
	beta.close() // the drained node's process exits; the stream never notices

	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if got, want := seqTrace(ss.get("sink").Items()), refSeqTrace(items); got != want {
		t.Fatalf("trace diverged across join/drain/leave\n got: %s\nwant: %s", got, want)
	}

	evs := cl.Events(0)
	if got := logLine(evs); got != "JOIN gamma, DRAIN beta, LEAVE beta" {
		t.Fatalf("event log = %q, want gamma's join, then beta's drain and leave", got)
	}
	if evs[0].Seq != 1 || evs[2].Seq != 3 {
		t.Fatalf("event log = %+v, want seq 1..3", evs)
	}
	if !strings.Contains(evs[1].Detail, "segments=1") {
		t.Fatalf("drain event detail = %q, want segments=1", evs[1].Detail)
	}
	if tail := cl.Events(2); len(tail) != 1 || tail[0].Kind != elastic.Leave {
		t.Fatalf("Events(2) = %+v, want just the LEAVE", tail)
	}
	for _, h := range dir.Snapshot() {
		if h.Name == "beta" && !h.Left {
			t.Fatal("beta not tombstoned in the directory after Leave")
		}
	}
}

// TestClusterRefusals pins the operator-error surface: unknown nodes,
// leaving while still hosting segments, joining an unreachable address, and
// draining with no survivor all refuse cleanly — and the stream completes
// as if nothing happened.
func TestClusterRefusals(t *testing.T) {
	leakcheck.Check(t)
	const items = 200
	ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}
	cat := ss.catalog()
	alpha := startClusterNode(t, "ralpha", cat)
	beta := startClusterNode(t, "rbeta", cat)

	dir := control.NewDirectory()
	t.Cleanup(dir.Close)
	registerAll(t, dir, alpha, beta)

	g := drainChain("refchain", items, 2000, 1, 0)
	d, err := g.Deploy(graph.OnNodes(dir.Clients()...).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	cl := startLoop(t, dir, d)

	cases := []struct {
		name string
		err  error
		want string
	}{
		{"drain unknown", cl.Drain("ghost"), "not a registered node"},
		{"leave unknown", cl.Leave("ghost"), "not a registered node"},
		{"leave while hosting", cl.Leave("rbeta"), "drain first"},
	}
	for _, c := range cases {
		if c.err == nil || !strings.Contains(c.err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want %q", c.name, c.err, c.want)
		}
	}
	if _, err := cl.Join("127.0.0.1:1"); err == nil {
		t.Fatal("join of an unreachable address did not fail")
	}
	if len(cl.Events(0)) != 0 {
		t.Fatalf("refused operations left events: %+v", cl.Events(0))
	}

	d.Start()
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if got, want := seqTrace(ss.get("sink").Items()), refSeqTrace(items); got != want {
		t.Fatal("trace diverged after refused operations")
	}

	// A lone survivor has nowhere to drain to.
	solo := startClusterNode(t, "rsolo", cat)
	dir2 := control.NewDirectory()
	t.Cleanup(dir2.Close)
	registerAll(t, dir2, solo)
	g2 := drainChain("solochain", 50, 2000, 0, 0)
	d2, err := g2.Deploy(graph.OnNodes(dir2.Clients()...).WithClusterLanes())
	if err != nil {
		t.Fatalf("solo deploy: %v", err)
	}
	cl2 := startLoop(t, dir2, d2)
	if err := cl2.Drain("rsolo"); err == nil || !strings.Contains(err.Error(), "no healthy node") {
		t.Fatalf("solo drain: err = %v, want no-healthy-node refusal", err)
	}
	d2.Start()
	if err := d2.Wait(); err != nil {
		t.Fatalf("solo wait: %v", err)
	}
}

// TestClusterKillReplicaFailover kills the node hosting one branch of a
// route-split diamond — a "replica" of the parallel region — under a
// control loop that heartbeats on the real clock.  The failover must move
// the branch to a survivor and the merged sink must still see every item
// exactly once, each origin's sub-stream in order.
func TestClusterKillReplicaFailover(t *testing.T) {
	leakcheck.Check(t)
	const items = 160
	ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}
	cat := ss.catalog()
	alpha := startClusterNode(t, "kalpha", cat)
	beta := startClusterNode(t, "kbeta", cat)
	gamma := startClusterNode(t, "kgamma", cat)

	g := graph.New("replicakill")
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)), graph.Place(0))
	g.AddSpec("pump", "cpump", graph.WithArgs("600"), graph.Place(0))
	g.SplitSpec("tee", "route", 2, graph.WithParam("sel", "mod"), graph.Place(0))
	g.AddSpec("fa", "probe", graph.Place(0))
	g.AddSpec("pa", "fpump", graph.Place(0))
	g.AddSpec("fb", "probe", graph.Place(1))
	g.AddSpec("pb", "fpump", graph.Place(1))
	g.MergeSpec("mrg", 2, graph.Place(0))
	g.AddSpec("po", "fpump", graph.Place(0))
	g.AddSpec("out", "fpump", graph.Place(2))
	g.AddSpec("sink", "collect", graph.Place(2))
	g.Pipe("src", "pump", "tee")
	g.Pipe("tee:0", "fa", "pa", "mrg:0")
	g.Pipe("tee:1", "fb", "pb", "mrg:1")
	g.Pipe("mrg", "po")
	g.Cut("po", "out")
	g.Pipe("out", "sink")

	dir := control.NewDirectory()
	dir.MaxMisses = 2
	dir.ProbeRetries = 1
	dir.ProbeBackoff = 5 * time.Millisecond
	t.Cleanup(dir.Close)
	registerAll(t, dir, alpha, beta, gamma)

	d, err := g.Deploy(graph.OnNodes(dir.Clients()...).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	cl := elastic.NewCluster(dir, vclock.Real{}, 15*time.Millisecond)
	cl.Manage(d)
	cl.Start()
	t.Cleanup(cl.Stop)
	d.Start()

	pollSink(t, ss, "sink", items/4)
	beta.close() // the replica branch's host dies mid-stream

	if err := d.Wait(); err != nil {
		t.Fatalf("wait after replica kill: %v", err)
	}
	sink := ss.get("sink")
	seen := make(map[int64]bool)
	lastPerOrigin := make(map[int64]int64)
	for _, it := range sink.Items() {
		if seen[it.Seq] {
			t.Fatalf("item %d delivered twice across the replica failover", it.Seq)
		}
		seen[it.Seq] = true
		if it.Seq <= lastPerOrigin[it.Origin] {
			t.Fatalf("origin %d reordered: %d after %d", it.Origin, it.Seq, lastPerOrigin[it.Origin])
		}
		lastPerOrigin[it.Origin] = it.Seq
	}
	for i := int64(1); i <= items; i++ {
		if !seen[i] {
			t.Fatalf("item %d lost across the replica failover", i)
		}
	}
	if node := d.SegmentPlacements()["fb>>pb"]; node == 1 {
		t.Error(`replica segment "fb>>pb" still placed on the dead node`)
	}
}

// crossChain declares src >> pump | mid0 >> mp0 | mid1 >> mp1 | out >> sink
// over three nodes: source and sink on node 0, mid0 on node 1, mid1 on node
// 2 — so mid0's outbound lane dials node 2.
func crossChain(name string, items int) *graph.Graph {
	g := graph.New(name)
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)), graph.Place(0))
	g.AddSpec("pump", "cpump", graph.WithArgs("500"), graph.Place(0))
	g.AddSpec("mid0", "probe", graph.Place(1))
	g.AddSpec("mp0", "fpump", graph.Place(1))
	g.AddSpec("mid1", "probe", graph.Place(2))
	g.AddSpec("mp1", "fpump", graph.Place(2))
	g.AddSpec("out", "fpump", graph.Place(0))
	g.AddSpec("sink", "collect", graph.Place(0))
	g.Pipe("src", "pump")
	g.Cut("pump", "mid0")
	g.Pipe("mid0", "mp0")
	g.Cut("mp0", "mid1")
	g.Pipe("mid1", "mp1")
	g.Cut("mp1", "out")
	g.Pipe("out", "sink")
	return g
}

// fastDirectory is a directory that declares a node down after two missed
// heartbeats.
func fastDirectory(t *testing.T) *control.Directory {
	t.Helper()
	dir := control.NewDirectory()
	dir.MaxMisses = 2
	dir.ProbeRetries = 1
	dir.ProbeBackoff = 5 * time.Millisecond
	t.Cleanup(dir.Close)
	return dir
}

// markDown heartbeats the directory until it reports the named node down.
// The test calls it, not the loop, so the loop hears of the death only if
// the test posts it.
func markDown(t *testing.T, dir *control.Directory, name string) {
	t.Helper()
	for range dir.MaxMisses {
		dir.Heartbeat()
	}
	if dir.Healthy(name) {
		t.Fatalf("directory still counts %s healthy after %d missed heartbeats", name, dir.MaxMisses)
	}
}

// TestClusterDrainSerializesWithFailover: a node-down report and an
// operator drain of ANOTHER node are posted together.  The loop applies
// them one after the other, in queue order — the failover moves everything
// off the dead node before the drain decides — never interleaved, and the
// stream comes out byte-identical.
func TestClusterDrainSerializesWithFailover(t *testing.T) {
	leakcheck.Check(t)
	const items = 300
	ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}
	cat := ss.catalog()
	alpha := startClusterNode(t, "dalpha", cat)
	beta := startClusterNode(t, "dbeta", cat)
	gamma := startClusterNode(t, "dgamma", cat)

	dir := fastDirectory(t)
	registerAll(t, dir, alpha, beta, gamma)
	d, err := crossChain("draincross", items).Deploy(graph.OnNodes(dir.Clients()...).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	cl := startLoop(t, dir, d)
	d.Start()

	pollSink(t, ss, "sink", items/6)
	gamma.close() // mid1's host dies
	markDown(t, dir, "dgamma")
	cl.PostDown("dgamma")
	if err := cl.Drain("dbeta"); err != nil {
		t.Fatalf("drain posted behind the failover: %v", err)
	}
	if got := logLine(cl.Events(0)); got != "DOWN dgamma, FAILOVER dgamma, DRAIN dbeta" {
		t.Fatalf("the loop applied %q, want the down's failover, then the drain", got)
	}

	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if got, want := seqTrace(ss.get("sink").Items()), refSeqTrace(items); got != want {
		t.Fatalf("trace diverged with drain behind failover\n got: %s\nwant: %s", got, want)
	}
	for seg, node := range d.SegmentPlacements() {
		if node == 1 || node == 2 {
			t.Errorf("segment %q still on drained/dead node %d", seg, node)
		}
	}
}

// TestClusterDrainRefusesUnrecoveredDeath: a drain while another node is
// down and still hosts segments — the directory knows, but no failover has
// applied — moves nothing and says so with an error wrapping
// remote.ErrNodeUnreachable, at once; it neither hangs nor recomposes a
// segment against the dead node's port.  Once the down is posted and its
// failover has moved everything, the same drain goes through.
func TestClusterDrainRefusesUnrecoveredDeath(t *testing.T) {
	leakcheck.Check(t)
	const items = 300
	ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}
	cat := ss.catalog()
	alpha := startClusterNode(t, "ualpha", cat)
	beta := startClusterNode(t, "ubeta", cat)
	gamma := startClusterNode(t, "ugamma", cat)

	dir := fastDirectory(t)
	registerAll(t, dir, alpha, beta, gamma)
	d, err := crossChain("drainunrec", items).Deploy(graph.OnNodes(dir.Clients()...).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	cl := startLoop(t, dir, d)
	d.Start()

	pollSink(t, ss, "sink", items/6)
	before := d.SegmentPlacements()
	gamma.close()
	markDown(t, dir, "ugamma")

	if err := cl.Drain("ubeta"); !errors.Is(err, remote.ErrNodeUnreachable) {
		t.Fatalf("drain beside an unrecovered death = %v, want an error wrapping remote.ErrNodeUnreachable", err)
	}
	if after := d.SegmentPlacements(); !maps.Equal(before, after) {
		t.Fatalf("a refused drain moved segments: %v -> %v", before, after)
	}
	if evs := cl.Events(0); len(evs) != 0 {
		t.Fatalf("a refused drain logged %v", evs)
	}

	cl.PostDown("ugamma")
	if err := cl.Drain("ubeta"); err != nil {
		t.Fatalf("drain after the failover: %v", err)
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if got, want := seqTrace(ss.get("sink").Items()), refSeqTrace(items); got != want {
		t.Fatalf("trace diverged across the refused and the accepted drain\n got: %s\nwant: %s", got, want)
	}
}

// TestOperatorClusterOps drives the membership surface over the operator
// wire — the path ipctl nodes / drain / watch take: node rows, an
// operator-driven drain, and the cursored JOIN/DRAIN/LEAVE event tail.
func TestOperatorClusterOps(t *testing.T) {
	leakcheck.Check(t)
	const items = 300
	ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}
	cat := ss.catalog()
	alpha := startClusterNode(t, "oalpha", cat)
	beta := startClusterNode(t, "obeta", cat)

	dir := control.NewDirectory()
	t.Cleanup(dir.Close)
	registerAll(t, dir, alpha, beta)

	g := drainChain("opchain", items, 400, 1, 0)
	d, err := g.Deploy(graph.OnNodes(dir.Clients()...).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	cl := startLoop(t, dir, d)

	op := control.NewOperator().WithCluster(cl)
	op.Register(d)
	opAddr, err := op.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("operator serve: %v", err)
	}
	t.Cleanup(op.Close)
	c, err := control.DialOperator(opAddr)
	if err != nil {
		t.Fatalf("dial operator: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	d.Start()
	pollSink(t, ss, "sink", items/8)

	rows, err := c.Nodes()
	if err != nil {
		t.Fatalf("nodes: %v", err)
	}
	if len(rows) != 2 || rows[0].Name != "oalpha" || rows[1].Name != "obeta" {
		t.Fatalf("node rows = %+v, want oalpha,obeta", rows)
	}
	if rows[1].Hosts != 1 {
		t.Fatalf("obeta hosts %d segments, want 1 (the mid)", rows[1].Hosts)
	}

	gamma := startClusterNode(t, "ogamma", cat)
	if _, err := cl.Join(gamma.addr); err != nil {
		t.Fatalf("join: %v", err)
	}
	rows, err = c.DrainNode("obeta")
	if err != nil {
		t.Fatalf("drain over the wire: %v", err)
	}
	for _, r := range rows {
		if r.Name == "obeta" && r.Hosts != 0 {
			t.Fatalf("obeta still hosts %d segments after wire drain", r.Hosts)
		}
	}
	if _, err := c.DrainNode("ghost"); err == nil || !strings.Contains(err.Error(), "not a registered node") {
		t.Fatalf("wire drain of unknown node: err = %v", err)
	}

	evs, err := c.ClusterEvents(0)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	if len(evs) != 2 || evs[0].Kind != "JOIN" || evs[1].Kind != "DRAIN" {
		t.Fatalf("events = %+v, want JOIN then DRAIN", evs)
	}
	if tail, _ := c.ClusterEvents(evs[1].Seq); len(tail) != 0 {
		t.Fatalf("cursor past the end returned %+v", tail)
	}

	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if got, want := seqTrace(ss.get("sink").Items()), refSeqTrace(items); got != want {
		t.Fatal("trace diverged across the wire-driven drain")
	}
}

// chaosSeq hands every chaos connection its own derived seed.
var chaosSeq atomic.Int64

// TestClusterJoinDrainUnderChaos reruns the membership round-trip with
// every DATA lane wrapped in a seeded chaos conn — duplicated frames,
// delays, and stalls (drops and kills sever a lane outright, which is the
// failover tests' territory).  The durable lanes' watermarks absorb the
// duplicates; the trace must still be byte-identical.
func TestClusterJoinDrainUnderChaos(t *testing.T) {
	leakcheck.Check(t)
	const (
		items = 240
		rate  = 500
	)
	netpipe.SetDialWrapper(func(conn net.Conn) net.Conn {
		return netpipe.NewChaosConn(conn, 1000+chaosSeq.Add(1), netpipe.Chaos{
			DupOneIn:   6,
			DelayOneIn: 4,
			StallOneIn: 50,
		})
	})
	t.Cleanup(func() { netpipe.SetDialWrapper(nil) })

	ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}
	cat := ss.catalog()
	alpha := startClusterNode(t, "calpha", cat)
	beta := startClusterNode(t, "cbeta", cat)

	dir := control.NewDirectory()
	t.Cleanup(dir.Close)
	registerAll(t, dir, alpha, beta)

	g := drainChain("chaoschain", items, rate, 1, 0)
	d, err := g.Deploy(graph.OnNodes(dir.Clients()...).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	cl := startLoop(t, dir, d)
	d.Start()
	pollSink(t, ss, "sink", items/8)

	gamma := startClusterNode(t, "cgamma", cat)
	if _, err := cl.Join(gamma.addr); err != nil {
		t.Fatalf("join under chaos: %v", err)
	}
	if err := cl.Drain("cbeta"); err != nil {
		t.Fatalf("drain under chaos: %v", err)
	}
	if err := cl.Leave("cbeta"); err != nil {
		t.Fatalf("leave under chaos: %v", err)
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("wait under chaos: %v", err)
	}
	if got, want := seqTrace(ss.get("sink").Items()), refSeqTrace(items); got != want {
		t.Fatalf("trace diverged under chaos lanes\n got: %s\nwant: %s", got, want)
	}
}
