package control_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"infopipes/internal/control"
	"infopipes/internal/elastic"
	"infopipes/internal/graph"
	"infopipes/internal/leakcheck"
	"infopipes/internal/pipes"
	"infopipes/internal/vclock"
)

// trace renders a sink's item sequence as one string, so two runs can be
// compared byte for byte.
func trace(sink *pipes.CollectSink) string {
	var b strings.Builder
	for _, it := range sink.Items() {
		fmt.Fprintf(&b, "%d ", it.Seq)
	}
	return b.String()
}

// refTrace is the canonical trace of a 1..n counter stream.
func refTrace(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "%d ", i)
	}
	return b.String()
}

// buildChain declares src >> pump | mid_i >> mp_i ... | out >> sink with the
// given per-stage node placements (places[0] = source segment, then one per
// mid, the last = sink segment).
func buildChain(name string, items, rate, mids int, places []int) *graph.Graph {
	g := graph.New(name)
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)), graph.Place(places[0]))
	g.AddSpec("pump", "cpump", graph.WithArgs(strconv.Itoa(rate)), graph.Place(places[0]))
	g.Pipe("src", "pump")
	prev := "pump"
	for i := 0; i < mids; i++ {
		mid := fmt.Sprintf("mid%d", i)
		mp := fmt.Sprintf("mp%d", i)
		g.AddSpec(mid, "probe", graph.Place(places[1+i]))
		g.AddSpec(mp, "fpump", graph.Place(places[1+i]))
		g.Cut(prev, mid)
		g.Pipe(mid, mp)
		prev = mp
	}
	g.AddSpec("out", "fpump", graph.Place(places[len(places)-1]))
	g.AddSpec("sink", "collect", graph.Place(places[len(places)-1]))
	g.Cut(prev, "out")
	g.Pipe("out", "sink")
	return g
}

// fastDirectory registers the nodes, in order, in a directory that declares
// a node down after two missed heartbeats.
func fastDirectory(t *testing.T, nodes ...*testNode) *control.Directory {
	t.Helper()
	dir := control.NewDirectory()
	dir.MaxMisses = 2
	dir.ProbeRetries = 1
	dir.ProbeBackoff = 5 * time.Millisecond
	t.Cleanup(dir.Close)
	for _, n := range nodes {
		if _, err := dir.Register(n.addr); err != nil {
			t.Fatalf("register %s: %v", n.addr, err)
		}
	}
	return dir
}

// supervise puts the deployment under a started control loop on clock that
// ticks every period (0: only when Tick is called); cleanup stops it.
func supervise(t *testing.T, dir *control.Directory, d *graph.Deployment, clock vclock.Clock, every time.Duration) *elastic.Cluster {
	cl := elastic.NewCluster(dir, clock, every)
	cl.Manage(d)
	cl.Start()
	t.Cleanup(cl.Stop)
	return cl
}

// pollCount waits for a sink (possibly still nil in its store) to reach n
// items.
func pollCount(t *testing.T, ss *sinkStore, name string, n int, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		ss.mu.Lock()
		sink := ss.sinks[name]
		ss.mu.Unlock()
		if sink != nil && sink.Count() >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("sink %q never reached %d items", name, n)
}

// TestFailoverKillNodeDeterministic is the kill-a-node arm of the
// determinism harness: randomized chains (seeded — length, rate, number of
// mid filters, victim node, kill point all drawn from the seed) run on a
// 3-node cluster; mid-stream the node hosting the mid segments is killed
// outright.  The supervisor must fail the dead segments over to a survivor
// and the sink trace must come out byte-identical to the no-failure
// reference — zero loss, zero duplication, order preserved.
func TestFailoverKillNodeDeterministic(t *testing.T) {
	leakcheck.Check(t)
	for _, seed := range []int64{11, 23, 37} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			items := 120 + rng.Intn(80)
			rate := 500 + rng.Intn(300)
			mids := 1 + rng.Intn(2)
			victim := 1 + rng.Intn(2) // node 1 or 2 of 3
			killAt := items/4 + rng.Intn(items/4)
			other := 3 - victim // the third node, 1<->2

			places := make([]int, mids+2)
			places[0] = 0
			for i := 0; i < mids; i++ {
				places[1+i] = victim
			}
			places[len(places)-1] = other

			ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}
			cat := ss.catalog()
			nodes := []*testNode{
				startNode(t, "alpha", cat),
				startNode(t, "beta", cat),
				startNode(t, "gamma", cat),
			}
			dir := fastDirectory(t, nodes...)
			g := buildChain("killchain", items, rate, mids, places)
			d, err := g.Deploy(graph.OnNodes(dir.Clients()...).WithClusterLanes())
			if err != nil {
				t.Fatalf("deploy: %v", err)
			}
			cl := supervise(t, dir, d, vclock.Real{}, 15*time.Millisecond)
			d.Start()

			pollCount(t, ss, "sink", killAt, 20*time.Second)
			nodes[victim].close() // kill -9: sockets die, journals on survivors live on

			if err := d.Wait(); err != nil {
				t.Fatalf("wait after kill: %v (log: %+v)", err, cl.Events(0))
			}
			ss.mu.Lock()
			sink := ss.sinks["sink"]
			ss.mu.Unlock()
			if got, want := trace(sink), refTrace(items); got != want {
				t.Fatalf("trace diverged after failover (items=%d rate=%d mids=%d victim=%d killAt=%d)\n got: %s\nwant: %s",
					items, rate, mids, victim, killAt, got, want)
			}
			for seg, node := range d.SegmentPlacements() {
				if node == victim {
					t.Errorf("segment %q still placed on dead node %d", seg, victim)
				}
			}
		})
	}
}

// TestFailoverSurvivingBranchByteIdentical kills a node that hosts one
// branch of a copy split.  The surviving branch — entirely on healthy nodes
// — must produce a byte-identical trace as if nothing happened, and the
// failed-over branch must still deliver exactly once.
func TestFailoverSurvivingBranchByteIdentical(t *testing.T) {
	leakcheck.Check(t)
	const items = 150
	ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}
	cat := ss.catalog()
	nodes := []*testNode{
		startNode(t, "alpha", cat),
		startNode(t, "beta", cat),
		startNode(t, "gamma", cat),
	}
	g := graph.New("splitkill")
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)), graph.Place(0))
	g.AddSpec("pump", "cpump", graph.WithArgs("600"), graph.Place(0))
	g.SplitSpec("tee", "copy", 2, graph.Place(0))
	g.AddSpec("fa", "probe", graph.Place(0))
	g.AddSpec("pa", "fpump", graph.Place(0))
	g.AddSpec("sinka", "collect", graph.Place(0))
	g.AddSpec("fb", "probe", graph.Place(1))
	g.AddSpec("pb", "fpump", graph.Place(1))
	g.AddSpec("out", "fpump", graph.Place(2))
	g.AddSpec("sinkb", "collect", graph.Place(2))
	g.Pipe("src", "pump", "tee")
	g.Pipe("tee:0", "fa", "pa", "sinka")
	g.Pipe("tee:1", "fb", "pb")
	g.Cut("pb", "out")
	g.Pipe("out", "sinkb")

	dir := fastDirectory(t, nodes...)

	d, err := g.Deploy(graph.OnNodes(dir.Clients()...).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	supervise(t, dir, d, vclock.Real{}, 15*time.Millisecond)
	d.Start()

	pollCount(t, ss, "sinkb", items/3, 20*time.Second)
	nodes[1].close() // branch B's filter node dies mid-stream

	if err := d.Wait(); err != nil {
		t.Fatalf("wait after kill: %v", err)
	}
	ss.mu.Lock()
	sinkA, sinkB := ss.sinks["sinka"], ss.sinks["sinkb"]
	ss.mu.Unlock()
	if got, want := trace(sinkA), refTrace(items); got != want {
		t.Fatalf("surviving branch trace diverged\n got: %s\nwant: %s", got, want)
	}
	if got, want := trace(sinkB), refTrace(items); got != want {
		t.Fatalf("failed-over branch not exactly-once\n got: %s\nwant: %s", got, want)
	}
	if node := d.SegmentPlacements()["fb>>pb"]; node == 1 {
		t.Errorf("fb>>pb still on the dead node")
	}
}

// TestReplaceRacingStream hammers Replace while the stream runs — moves
// chase each other across all three nodes, racing the redials and journal
// replays of the previous move — and the sink must still see every item
// exactly once, in order.
func TestReplaceRacingStream(t *testing.T) {
	leakcheck.Check(t)
	const items = 200
	ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}
	cat := ss.catalog()
	nodes := []*testNode{
		startNode(t, "alpha", cat),
		startNode(t, "beta", cat),
		startNode(t, "gamma", cat),
	}
	_ = nodes
	dir := control.NewDirectory()
	t.Cleanup(dir.Close)
	for _, n := range nodes {
		if _, err := dir.Register(n.addr); err != nil {
			t.Fatal(err)
		}
	}
	g := buildChain("racechain", items, 800, 1, []int{0, 1, 2})
	d, err := g.Deploy(graph.OnNodes(dir.Clients()...).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	d.Start()
	pollCount(t, ss, "sink", 20, 20*time.Second)

	var wg sync.WaitGroup
	for i, dest := range []int{2, 0, 1, 2} {
		wg.Add(1)
		go func(i, dest int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 7 * time.Millisecond)
			// Concurrent moves serialize on the deployment; a move may find
			// the segment already at its destination, which is fine.
			_ = d.Rebalance(map[string]int{"mid0>>mp0": dest})
		}(i, dest)
	}
	wg.Wait()
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	ss.mu.Lock()
	sink := ss.sinks["sink"]
	ss.mu.Unlock()
	if got, want := trace(sink), refTrace(items); got != want {
		t.Fatalf("trace diverged under racing replaces\n got: %s\nwant: %s", got, want)
	}
}

// TestFailoverTailSegmentDeath kills the node hosting the TERMINAL (sink)
// segment after the upstream segment has already delivered its whole
// stream — EOS included — into the durable lane.  At that point every
// REACHABLE pipe reports done, which used to make Finished() declare the
// stream over (skipping failover) and the supervised Wait return nil: the
// journaled tail was silently lost while Wait reported success.  The
// supervisor must instead re-place the tail onto a survivor, the upstream
// journal must replay into it, and the flow must complete with zero item
// loss across the two sink incarnations.
func TestFailoverTailSegmentDeath(t *testing.T) {
	leakcheck.Check(t)
	const items = 60
	ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}
	cat := ss.catalog()
	nodes := []*testNode{
		startNode(t, "alpha", cat),
		startNode(t, "beta", cat),
		startNode(t, "gamma", cat),
	}
	dir := fastDirectory(t, nodes...)

	// Fast producer, slow consumer: the source segment finishes long before
	// the tail has consumed the lane's journaled backlog.
	g := graph.New("taildeath")
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)), graph.Place(0))
	g.AddSpec("pump", "cpump", graph.WithArgs("5000"), graph.Place(0))
	g.AddSpec("out", "cpump", graph.WithArgs("120"), graph.Place(1))
	g.AddSpec("sink", "collect", graph.Place(1))
	g.Pipe("src", "pump")
	g.Cut("pump", "out")
	g.Pipe("out", "sink")

	d, err := g.Deploy(graph.OnNodes(dir.Clients()...).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	supervise(t, dir, d, vclock.Real{}, 15*time.Millisecond)
	d.Start()

	// Wait until the upstream pipe is DONE (its EOS is on the lane) while
	// the slow tail is still mid-consumption — the exact window the old
	// Finished() logic mistook for a finished stream.
	up, _ := dir.Client("alpha")
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("upstream segment never finished")
		}
		if rows, err := up.Stats("taildeath/src>>pump"); err == nil && len(rows) == 1 && rows[0].Done {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	pollCount(t, ss, "sink", 5, 20*time.Second)
	ss.mu.Lock()
	oldSink := ss.sinks["sink"]
	ss.mu.Unlock()
	if oldSink.Count() >= items {
		t.Fatalf("tail already consumed all %d items — kill point missed", items)
	}
	nodes[1].close() // the tail's node dies with items still journaled upstream

	if err := d.Wait(); err != nil {
		t.Fatalf("wait after tail death: %v", err)
	}
	if node := d.SegmentPlacements()["out>>sink"]; node == 1 {
		t.Errorf("tail segment still placed on dead node 1")
	}
	ss.mu.Lock()
	newSink := ss.sinks["sink"]
	ss.mu.Unlock()
	if newSink == oldSink {
		t.Fatal("tail segment was never recomposed on a survivor")
	}
	// Zero loss: every item must reach a sink incarnation.  Items the dead
	// tail consumed but had not yet acknowledged are legitimately replayed
	// into the new one (their application-side effects died with the node),
	// so the two traces may overlap — but their union must cover 1..items,
	// and the new sink must see a strictly-ordered, duplicate-free run that
	// ends the stream.
	seen := make(map[int64]bool)
	for _, it := range oldSink.Items() {
		seen[it.Seq] = true
	}
	last := int64(0)
	for _, it := range newSink.Items() {
		if it.Seq <= last {
			t.Fatalf("new sink trace out of order or duplicated: %d after %d", it.Seq, last)
		}
		last = it.Seq
		seen[it.Seq] = true
	}
	if last != int64(items) {
		t.Fatalf("new sink ended at item %d, want %d", last, items)
	}
	for i := int64(1); i <= int64(items); i++ {
		if !seen[i] {
			t.Fatalf("item %d lost across the tail failover", i)
		}
	}
}

// tick runs one tick of the control loop.
func tick(t *testing.T, cl *elastic.Cluster) []elastic.Event {
	t.Helper()
	evs, err := cl.Tick()
	if err != nil {
		t.Fatalf("tick: %v", err)
	}
	return evs
}

// logLine renders log entries as "KIND node, ..." for comparisons.
func logLine(evs []elastic.Event) string {
	parts := make([]string, len(evs))
	for i, ev := range evs {
		parts[i] = fmt.Sprintf("%s %s", ev.Kind, ev.Node)
	}
	return strings.Join(parts, ", ")
}

// awaitEvent waits on the loop's log for its first entry of kind about node.
func awaitEvent(t *testing.T, cl *elastic.Cluster, kind elastic.EventKind, node string) elastic.Event {
	t.Helper()
	timeout := time.After(20 * time.Second)
	for seen := 0; ; {
		for _, ev := range cl.Events(seen) {
			if ev.Kind == kind && ev.Node == node {
				return ev
			}
			seen = ev.Seq
		}
		select {
		case <-cl.Watch(seen):
		case <-timeout:
			t.Fatalf("no %s %s in the loop's log: %s", kind, node, logLine(cl.Events(0)))
		}
	}
}

// TestSupervisorFailsWhenNoSurvivor kills every node of a 2-node cluster:
// with no healthy placement left the loop must give up and latch a terminal
// error instead of retrying forever — Wait surfaces it.  The retries are
// appointments on the loop's virtual clock, one backoff apart.
func TestSupervisorFailsWhenNoSurvivor(t *testing.T) {
	leakcheck.Check(t)
	ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}
	cat := ss.catalog()
	nodes := []*testNode{
		startNode(t, "alpha", cat),
		startNode(t, "beta", cat),
	}
	dir := fastDirectory(t, nodes...)
	g := buildChain("doomed", 500, 200, 1, []int{0, 1, 0})
	d, err := g.Deploy(graph.OnNodes(dir.Clients()...).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	cl := supervise(t, dir, d, vclock.NewVirtual(), 0)
	d.Start()
	pollCount(t, ss, "sink", 10, 20*time.Second)
	nodes[1].close()
	nodes[0].close()
	tick(t, cl)
	if got := logLine(tick(t, cl)); got != "DOWN alpha, RETRY alpha, DOWN beta, RETRY beta" {
		t.Fatalf("second missed heartbeat applied %q", got)
	}

	fail := awaitEvent(t, cl, elastic.Fail, "alpha")
	var retries []time.Time
	for _, ev := range cl.Events(0) {
		if ev.Kind == elastic.Retry && ev.Node == "alpha" {
			retries = append(retries, ev.At)
		}
	}
	if len(retries) != 2 || !retries[0].Equal(vclock.Epoch) ||
		retries[1].Sub(retries[0]) <= 0 || fail.At.Sub(retries[1]) != retries[1].Sub(retries[0]) {
		t.Fatalf("attempts at %v then FAIL at %v, want two retries one backoff apart from the epoch and the FAIL one more backoff on", retries, fail.At)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- d.Wait() }()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("wait returned nil with the whole cluster dead")
		}
		if !strings.Contains(err.Error(), "failover exhausted") {
			t.Fatalf("wait error %v, want a failover-exhausted terminal error", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("wait hung after the whole cluster died")
	}
}

// TestFailoverRetriedAtAppointment: a failover whose first attempt fails is
// tried again at its appointment on the loop's clock — a virtual one, so
// nothing here sleeps for it.  Beta (the mid segment's host) dies, then
// gamma (the emptiest survivor) dies before the directory has noticed: the
// first attempt places the segment on gamma and fails; the retry, one
// backoff later, heartbeats first (gamma is down now) and places it on
// alpha.  The trace comes out byte-identical.
func TestFailoverRetriedAtAppointment(t *testing.T) {
	leakcheck.Check(t)
	const (
		items   = 150
		backoff = 50 * time.Millisecond // the loop's failover backoff
	)
	ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}
	cat := ss.catalog()
	nodes := []*testNode{
		startNode(t, "alpha", cat),
		startNode(t, "beta", cat),
		startNode(t, "gamma", cat),
	}
	dir := fastDirectory(t, nodes...)
	g := buildChain("retrychain", items, 300, 1, []int{0, 1, 0})
	d, err := g.Deploy(graph.OnNodes(dir.Clients()...).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	cl := supervise(t, dir, d, vclock.NewVirtual(), 0)
	d.Start()
	pollCount(t, ss, "sink", items/4, 20*time.Second)

	nodes[1].close()
	tick(t, cl) // beta's first miss
	nodes[2].close()
	evs := tick(t, cl) // beta's second: down, and the attempt on gamma fails
	if got := logLine(evs); got != "DOWN beta, RETRY beta" {
		t.Fatalf("second missed heartbeat applied %q, want a down and a failed first attempt", got)
	}
	moved := awaitEvent(t, cl, elastic.Failover, "beta")
	if want := evs[1].At.Add(backoff); !moved.At.Equal(want) {
		t.Fatalf("failover applied at %v, want its appointment %v", moved.At, want)
	}
	if got := logLine(cl.Events(evs[1].Seq)); got != "DOWN gamma, FAILOVER beta" {
		t.Fatalf("the retry applied %q, want gamma's down and then beta's failover", got)
	}
	if node := d.SegmentPlacements()["mid0>>mp0"]; node != 0 {
		t.Fatalf("mid segment failed over onto node %d, want alpha (0)", node)
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	ss.mu.Lock()
	sink := ss.sinks["sink"]
	ss.mu.Unlock()
	if got, want := trace(sink), refTrace(items); got != want {
		t.Fatalf("trace diverged across the retried failover\n got: %s\nwant: %s", got, want)
	}
}

// TestFailoverMergeFedSegmentDeath kills the node hosting a segment *below*
// a merge.  The lane feeding it carries two interleaved per-branch streams,
// so it journals, acks and dedups on the (origin, seq) pair each merge
// in-port stamps — before per-origin lanes such a segment was refused by
// Replace (its sequence numbers are not globally monotone) and a node death
// there was terminal.  Now the supervisor must move it to a survivor, the
// journal on the merge side must replay each origin's unacked tail, and the
// sink-side per-origin watermarks must absorb the overlap: every item
// exactly once, each branch's sub-stream still in order.
func TestFailoverMergeFedSegmentDeath(t *testing.T) {
	leakcheck.Check(t)
	const items = 160
	ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}
	cat := ss.catalog()
	nodes := []*testNode{
		startNode(t, "alpha", cat),
		startNode(t, "beta", cat),
		startNode(t, "gamma", cat),
	}

	// Diamond on alpha, then the merged flow crosses a cut onto beta (the
	// victim) and a second cut onto gamma where it is collected.
	g := graph.New("mergekill")
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)), graph.Place(0))
	g.AddSpec("pump", "cpump", graph.WithArgs("600"), graph.Place(0))
	g.SplitSpec("tee", "route", 2, graph.WithParam("sel", "mod"), graph.Place(0))
	g.AddSpec("fa", "probe", graph.Place(0))
	g.AddSpec("pa", "fpump", graph.Place(0))
	g.AddSpec("fb", "probe", graph.Place(0))
	g.AddSpec("pb", "fpump", graph.Place(0))
	g.MergeSpec("mrg", 2, graph.Place(0))
	g.AddSpec("po", "fpump", graph.Place(0))
	g.AddSpec("mid", "probe", graph.Place(1))
	g.AddSpec("mp", "fpump", graph.Place(1))
	g.AddSpec("out", "fpump", graph.Place(2))
	g.AddSpec("sink", "collect", graph.Place(2))
	g.Pipe("src", "pump", "tee")
	g.Pipe("tee:0", "fa", "pa", "mrg:0")
	g.Pipe("tee:1", "fb", "pb", "mrg:1")
	g.Pipe("mrg", "po")
	g.Cut("po", "mid")
	g.Pipe("mid", "mp")
	g.Cut("mp", "out")
	g.Pipe("out", "sink")

	dir := fastDirectory(t, nodes...)

	d, err := g.Deploy(graph.OnNodes(dir.Clients()...).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	supervise(t, dir, d, vclock.Real{}, 15*time.Millisecond)
	d.Start()

	pollCount(t, ss, "sink", items/4, 20*time.Second)
	nodes[1].close() // the merge-fed segment dies mid-stream

	if err := d.Wait(); err != nil {
		t.Fatalf("wait after killing the merge-fed segment: %v", err)
	}

	ss.mu.Lock()
	sink := ss.sinks["sink"]
	ss.mu.Unlock()
	seen := make(map[int64]bool)
	lastPerOrigin := make(map[int64]int64)
	for _, it := range sink.Items() {
		if seen[it.Seq] {
			t.Fatalf("item %d delivered twice across the failover", it.Seq)
		}
		seen[it.Seq] = true
		if it.Origin == 0 {
			t.Fatalf("item %d reached the sink without a merge origin stamp", it.Seq)
		}
		if it.Seq <= lastPerOrigin[it.Origin] {
			t.Fatalf("origin %d reordered: seq %d after %d",
				it.Origin, it.Seq, lastPerOrigin[it.Origin])
		}
		lastPerOrigin[it.Origin] = it.Seq
	}
	for i := int64(1); i <= items; i++ {
		if !seen[i] {
			t.Fatalf("item %d lost across the failover", i)
		}
	}
	if len(lastPerOrigin) != 2 {
		t.Fatalf("sink saw %d merge origins, want 2", len(lastPerOrigin))
	}
	if node := d.SegmentPlacements()["mid>>mp"]; node == 1 {
		t.Error(`segment "mid>>mp" still placed on the dead node`)
	}
}
