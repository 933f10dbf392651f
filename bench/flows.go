package main

import (
	"fmt"
	"strconv"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/netpipe"
	"infopipes/internal/pipes"
	"infopipes/internal/remote"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// spinRounds is the per-item CPU work of the fanout_shards branches.
const spinRounds = 50

// frameBytes and smallBytes are the payload sizes of the two lane workloads.
const (
	frameBytes = 4096
	smallBytes = 8
)

// flow is one composed instance of a workload, ready to start.  The layers
// are observed from outside through the public handles it keeps.
type flow struct {
	start func()
	// wait blocks until the flow has ended by itself.
	wait func() error
	// stop tears the flow down.  It is called after wait, and by the
	// watchdog instead of it; it must make a blocked wait return.
	stop func()

	scheds []*uthread.Scheduler
	pipes  []*core.Pipeline
	links  []*shard.Link
	lanes  []*netpipe.TCPLink
}

func realScheduler() *uthread.Scheduler { return uthread.New(uthread.WithClock(vclock.Real{})) }

// ---------------------------------------------------------- chain_local

var chainHops = []string{"core.head", "core.tail"}

// chainStages is the stage list of chain_local: source, four function-style
// filters (direct calls), the active relay (a coroutine), the load pump, a
// buffer, a second pump and the sink.
func chainStages(t *trial) []core.Stage {
	g := t.gen
	st := []core.Stage{core.Comp(wordSource("src", g, t.items))}
	for i := 0; i < 4; i++ {
		st = append(st, core.Comp(pipes.NewFuncFilter(fmt.Sprintf("f%d", i),
			func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
				it.Payload = g.chain(i, it.Payload.(int64))
				return it, nil
			})))
	}
	st = append(st, core.Comp(newRelay("relay")), core.Pmp(sourcePump("pump", t.rate)))
	if t.stamps != nil {
		st = append(st, core.Comp(t.stamps.stage("stamp0", 0)))
	}
	t.or.verify = func(seq int64, payload any) bool {
		want := g.word(seq)
		for i := 0; i < 4; i++ {
			want = g.chain(i, want)
		}
		return payload == any(want)
	}
	return append(st,
		core.Buf(pipes.NewBuffer("buf", 64)),
		core.Pmp(pipes.NewFreePump("pump2")),
		core.Comp(t.or))
}

func buildChainLocal(t *trial) (*flow, error) {
	sched := realScheduler()
	stages := chainStages(t)
	var p *core.Pipeline
	if err := t.step("core.Compose", func() (err error) {
		p, err = core.Compose("chain", sched, nil, stages)
		return err
	}); err != nil {
		return nil, err
	}
	return &flow{
		start:  p.Start,
		wait:   sched.Run,
		stop:   sched.Stop,
		scheds: []*uthread.Scheduler{sched},
		pipes:  []*core.Pipeline{p},
	}, nil
}

// -------------------------------------------------------- fanout_shards

var fanoutHops = []string{"core.head", "pipes.tee_hop", "pipes.merge_hop"}

// fanoutGraph declares source -> pump -> route tee -> two spin branches ->
// merge -> pump -> sink.  placeB >= 0 hints branch B onto that shard.
func fanoutGraph(t *trial, sink core.Component, placeB int) *graph.Graph {
	gen := t.gen
	g := graph.New("fanout")
	tee := pipes.NewRouteTee("tee", 2, 64, typespec.Block, typespec.Block,
		func(it *item.Item) int { return gen.route(it.Seq) })
	work := func(name string) core.Stage {
		return core.Comp(pipes.NewFuncFilter(name, func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
			it.Payload = gen.spin(it.Payload.(int64), spinRounds)
			return it, nil
		}))
	}
	var bOpts []graph.NodeOption
	if placeB >= 0 {
		bOpts = append(bOpts, graph.Place(placeB))
	}
	trunk := []string{"src", "pump"}
	a, b := []string{"tee:0"}, []string{"tee:1"}
	g.Add(core.Comp(wordSource("src", gen, t.items)))
	g.Add(core.Pmp(sourcePump("pump", t.rate)))
	if t.stamps != nil {
		g.Add(core.Comp(t.stamps.stage("stamp0", 0)))
		trunk = append(trunk, "stamp0")
		// Both branch stamps write boundary 1: an item takes one branch.
		g.Add(core.Comp(t.stamps.stage("stampA", 1)))
		g.Add(core.Comp(t.stamps.stage("stampB", 1)), bOpts...)
		a, b = append(a, "stampA"), append(b, "stampB")
	}
	g.Split(tee)
	g.Add(work("wa"))
	g.Add(core.Pmp(pipes.NewFreePump("pa")))
	g.Add(work("wb"), bOpts...)
	g.Add(core.Pmp(pipes.NewFreePump("pb")), bOpts...)
	g.Merge(pipes.NewMergeTee("mrg", 2, 64, typespec.Block, typespec.Block))
	g.Add(core.Pmp(pipes.NewFreePump("po")))
	g.Add(core.Comp(sink))
	g.Pipe(append(trunk, "tee")...)
	g.Pipe(append(a, "wa", "pa", "mrg:0")...)
	g.Pipe(append(b, "wb", "pb", "mrg:1")...)
	g.Pipe("mrg", "po", sink.Name())
	return g
}

func buildFanoutShards(t *trial) (*flow, error) {
	gen, n := t.gen, t.items
	t.or.branchOf = gen.route
	t.or.wantSum = func() uint64 {
		var s uint64
		for seq := int64(1); seq <= n; seq++ {
			s += uint64(gen.spin(gen.word(seq), spinRounds))
		}
		return s
	}
	grp := shard.NewGroup(shard.WithShardCount(2), shard.WithRealClock())
	g := fanoutGraph(t, t.or, 1)
	var d *graph.Deployment
	if err := t.step("Graph.Deploy", func() (err error) {
		d, err = g.Deploy(graph.OnGroup(grp))
		return err
	}); err != nil {
		return nil, err
	}
	return &flow{
		start: d.Start,
		wait: func() error {
			if err := grp.Run(); err != nil {
				return err
			}
			return d.Wait()
		},
		stop:   grp.Stop,
		scheds: []*uthread.Scheduler{grp.Scheduler(0), grp.Scheduler(1)},
		pipes:  d.Pipelines(),
		links:  d.Links(),
	}, nil
}

// ----------------------------------------- lane_small_durable / _frames_plain

var laneHops = []string{"core.head", "netpipe.lane_hop", "core.tail"}

// benchNode is one in-process cluster node on loopback TCP.
type benchNode struct {
	node   *remote.Node
	sched  *uthread.Scheduler
	client *remote.Client
}

func closeNodes(nodes []*benchNode) {
	for _, n := range nodes {
		if n.client != nil {
			n.client.Close()
		}
		n.node.Close()
		n.sched.Stop()
	}
}

// laneCatalog is the component library the two nodes share.  The stages
// close over the trial, so the benchmark keeps its hands on the source's
// generator, the stamps and the oracle while the nodes compose them through
// the control protocol like any other spec.
func laneCatalog(t *trial, size int) graph.Catalog {
	cat := graph.Catalog{
		"src": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			return core.Comp(frameSource(name, t.gen, t.items, size)), nil
		},
		"loadpump": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			return core.Pmp(sourcePump(name, t.rate)), nil
		},
		"fpump": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			return core.Pmp(pipes.NewFreePump(name)), nil
		},
		"sink": func(string, []string, map[string]string) (core.Stage, error) {
			return core.Comp(t.or), nil
		},
	}
	if t.stamps != nil {
		cat["stamp"] = func(name string, args []string, _ map[string]string) (core.Stage, error) {
			i, err := strconv.Atoi(args[0])
			if err != nil {
				return core.Stage{}, err
			}
			return core.Comp(t.stamps.stage(name, i)), nil
		}
	}
	return cat
}

// startNodes serves count nodes and dials a control client to each.
func startNodes(t *trial, count int, cat graph.Catalog) ([]*benchNode, error) {
	var nodes []*benchNode
	for i := 0; i < count; i++ {
		sched := realScheduler()
		node := remote.NewNode(fmt.Sprintf("bench%d", i), sched, &events.Bus{})
		graph.EnableNode(node, cat)
		bn := &benchNode{node: node, sched: sched}
		nodes = append(nodes, bn)
		var addr string
		if err := t.step("Node.Serve", func() (err error) {
			addr, err = node.Serve("127.0.0.1:0")
			return err
		}); err != nil {
			closeNodes(nodes)
			return nil, err
		}
		sched.RunBackground()
		if err := t.step("remote.Dial", func() (err error) {
			bn.client, err = remote.Dial(addr)
			return err
		}); err != nil {
			closeNodes(nodes)
			return nil, err
		}
	}
	return nodes, nil
}

// nodePipelines lists what the nodes host.
func nodePipelines(nodes []*benchNode) []*core.Pipeline {
	var out []*core.Pipeline
	for _, n := range nodes {
		for _, name := range n.node.PipelineNames() {
			if p, ok := n.node.Pipeline(name); ok {
				out = append(out, p)
			}
		}
	}
	return out
}

// laneGraph declares source + load pump on node 0, one cut, pump + sink on
// node 1.
func laneGraph(t *trial) *graph.Graph {
	g := graph.New("lane")
	g.AddSpec("src", "src", graph.Place(0))
	g.AddSpec("pump", "loadpump", graph.Place(0))
	g.AddSpec("out", "fpump", graph.Place(1))
	g.AddSpec("sink", "sink", graph.Place(1))
	if t.stamps == nil {
		g.Pipe("src", "pump")
		g.Cut("pump", "out")
	} else {
		g.AddSpec("stamp0", "stamp", graph.WithArgs("0"), graph.Place(0))
		g.AddSpec("stamp1", "stamp", graph.WithArgs("1"), graph.Place(1))
		g.Pipe("src", "pump", "stamp0")
		g.Cut("stamp0", "stamp1")
		g.Pipe("stamp1", "out")
	}
	g.Pipe("out", "sink")
	return g
}

func buildLane(size int, durable bool) func(*trial) (*flow, error) {
	return func(t *trial) (*flow, error) {
		t.or.verify = frameVerifier(t.gen, size)
		nodes, err := startNodes(t, 2, laneCatalog(t, size))
		if err != nil {
			return nil, err
		}
		stop := func() { closeNodes(nodes) }
		target := graph.OnNodes(nodes[0].client, nodes[1].client)
		if durable {
			target = target.WithClusterLanes() // netpipe defaults: journal 4096, ack every 64
		}
		g := laneGraph(t)
		var d *graph.Deployment
		if err := t.step("Graph.Deploy", func() (err error) {
			d, err = g.Deploy(target)
			return err
		}); err != nil {
			stop()
			return nil, err
		}
		return &flow{
			start:  d.Start,
			wait:   d.Wait,
			stop:   stop,
			scheds: []*uthread.Scheduler{nodes[0].sched, nodes[1].sched},
			pipes:  nodePipelines(nodes),
		}, nil
	}
}

// --------------------------------------------------------- paced_ladder

var ladderHops = []string{"core.head", "shard.link_hop", "netpipe.lane_hop", "core.tail"}

// tcpPair binds a listener link delivering into rxSched on loopback and
// dials a sender link to it, both plain or both durable at the netpipe
// defaults.  step wraps the two calls into the layer (see trial.step).
func tcpPair(rxSched *uthread.Scheduler, durable bool, step func(string, func() error) error) (rx, tx *netpipe.TCPLink, err error) {
	var addr string
	if err := step("netpipe.Listen", func() (err error) {
		if durable {
			rx, addr, err = netpipe.NewDurableTCPListenerLink("127.0.0.1:0", rxSched, "rx", 0, netpipe.DurableConfig{})
		} else {
			rx, addr, err = netpipe.NewTCPListenerLink("127.0.0.1:0", rxSched, "rx", 0)
		}
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := step("netpipe.Dial", func() error {
		conn, err := netpipe.Dial(addr)
		if err != nil {
			return err
		}
		if durable {
			tx = netpipe.NewDurableTCPSenderLink(conn, netpipe.DurableConfig{})
		} else {
			tx = netpipe.NewTCPSenderLink(conn)
		}
		return nil
	}); err != nil {
		rx.Close()
		return nil, nil, err
	}
	return rx, tx, nil
}

// buildLadder composes the reference flow by hand, so that each rung is
// crossed exactly once on two schedulers:
//
//	shard 0: source -> load pump -> shard.Link sender
//	shard 1: link receiver -> pump -> marshal -> durable TCPLink sender
//	shard 0: durable listener -> unmarshal -> pump -> sink
func buildLadder(t *trial) (*flow, error) {
	g := t.gen
	t.or.verify = func(seq int64, payload any) bool { return payload == any(g.word(seq)) }
	grp := shard.NewGroup(shard.WithShardCount(2), shard.WithRealClock())
	s0, s1 := grp.Scheduler(0), grp.Scheduler(1)
	link := shard.NewLink("link", s1, 0)

	rx, tx, err := tcpPair(s0, true, t.step)
	if err != nil {
		return nil, err
	}
	stop := func() {
		grp.Stop()
		tx.Close()
		rx.Close()
	}

	head := []core.Stage{core.Comp(wordSource("src", g, t.items)), core.Pmp(sourcePump("pump", t.rate))}
	mid := link.ReceiverStages("link")
	mid = append(mid, core.Pmp(pipes.NewFreePump("pump1")))
	tail := rx.ReceiverStages("lane")
	if t.stamps != nil {
		head = append(head, core.Comp(t.stamps.stage("stamp0", 0)))
		mid = append(mid, core.Comp(t.stamps.stage("stamp1", 1)))
		tail = append(tail, core.Comp(t.stamps.stage("stamp2", 2)))
	}
	head = append(head, link.SenderStages("link")...)
	mid = append(mid, tx.SenderStages("lane")...)
	tail = append(tail, core.Pmp(pipes.NewFreePump("pump2")), core.Comp(t.or))

	var ps [3]*core.Pipeline
	bus := &events.Bus{}
	for i, seg := range []struct {
		name   string
		sched  *uthread.Scheduler
		stages []core.Stage
	}{{"head", s0, head}, {"mid", s1, mid}, {"tail", s0, tail}} {
		if err := t.step("core.Compose", func() (err error) {
			ps[i], err = core.Compose(seg.name, seg.sched, bus, seg.stages)
			return err
		}); err != nil {
			stop()
			return nil, err
		}
	}
	return &flow{
		start:  ps[0].Start,
		wait:   grp.Run,
		stop:   stop,
		scheds: []*uthread.Scheduler{s0, s1},
		pipes:  ps[:],
		links:  []*shard.Link{link},
		lanes:  []*netpipe.TCPLink{tx, rx},
	}, nil
}

// ------------------------------------------------------------ the table

// workload is one of the five flows the benchmark measures.  Each runs in
// two regimes: saturated (closed loop, free-running source pump; throughput)
// and paced (open loop, the source pump clocked at pacedRate; latency).  Why
// these five is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	// satItems and pacedItems size one trial of each regime.  They are
	// fixed, so both sides of a comparison do the same work; a trial lasts
	// about 0.3 s saturated and 0.5 s paced on the 2-core reference host.
	satItems, pacedItems int64
	// pacedRate is the offered load of the open loop, in items/s: a
	// seventh of what the flow saturates at, or less.
	pacedRate float64
	// procs > 0 pins the process to that many Ps for the length of a trial.
	// It is 1 for the flow that needs one scheduler only: with one busy
	// scheduler on two Ps, every run-token handoff may or may not wake the
	// idle P, and throughput wanders between 90 k and 150 k items/s run to
	// run; on one P it repeats (157-165 k).
	procs        int
	payloadBytes int
	hops         []string // see trace.go
	build        func(*trial) (*flow, error)
}

var workloads = []*workload{
	{
		name:     "chain_local",
		satItems: 40000, pacedItems: 10000, pacedRate: 20000, payloadBytes: 8, procs: 1,
		hops: chainHops, build: buildChainLocal,
	},
	{
		name:     "fanout_shards",
		satItems: 40000, pacedItems: 10000, pacedRate: 20000, payloadBytes: 8,
		hops: fanoutHops, build: buildFanoutShards,
	},
	{
		name:     "lane_small_durable",
		satItems: 80000, pacedItems: 10000, pacedRate: 20000, payloadBytes: smallBytes,
		hops: laneHops, build: buildLane(smallBytes, true),
	},
	{
		name:     "lane_frames_plain",
		satItems: 40000, pacedItems: 2500, pacedRate: 5000, payloadBytes: frameBytes,
		hops: laneHops, build: buildLane(frameBytes, false),
	},
	{
		name:     "paced_ladder",
		satItems: 50000, pacedItems: 10000, pacedRate: 20000, payloadBytes: 8,
		hops: ladderHops, build: buildLadder,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
