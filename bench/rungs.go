package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/netpipe"
	"infopipes/internal/pipes"
	"infopipes/internal/qos"
	"infopipes/internal/remote"
	"infopipes/internal/shard"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// The rungs are isolated timing loops around the public functions of one
// layer each.  They are workload-independent: every traced run measures all
// of them, so a change in an end-to-end metric can be set against the rung
// that should have moved it.  Each value is the median of rungReps
// repetitions.

// rungs carries the sizing of the rung loops: scale 1 for a measuring run,
// 0.01 for the smoke test.
type rungs struct {
	gen   *generator
	scale float64
	reps  int
	out   *metricSet
}

func (r *rungs) n(full int) int {
	n := int(float64(full) * r.scale)
	if n < 16 {
		n = 16
	}
	return n
}

// med runs fn reps times and returns the median of its results.
func (r *rungs) med(fn func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, r.reps)
	for i := 0; i < r.reps; i++ {
		runtime.GC()
		v, err := fn()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// runChain composes stages on a fresh real-clock scheduler and returns the
// wall time from Start to the end of the stream.
func runChain(stages []core.Stage) (time.Duration, error) {
	s := realScheduler()
	p, err := core.Compose("rung", s, nil, stages)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	p.Start()
	if err := s.Run(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func counterHead(n int) []core.Stage {
	return []core.Stage{core.Comp(pipes.NewCounterSource("src", int64(n)))}
}

func nullTail() []core.Stage {
	return []core.Stage{core.Pmp(pipes.NewFreePump("pump")), core.Comp(pipes.NullSink("sink"))}
}

// marginal times base() and long() back to back and returns the difference
// per item per extra element, in ns.  Fixed costs (source, pump cycle, sink)
// cancel.
func (r *rungs) marginal(n, extra int, base, long func() []core.Stage) (float64, error) {
	return r.med(func() (float64, error) {
		b, err := runChain(base())
		if err != nil {
			return 0, err
		}
		l, err := runChain(long())
		if err != nil {
			return 0, err
		}
		return float64(l-b) / float64(n*extra), nil
	})
}

func (r *rungs) run() error {
	steps := []func() error{
		r.uthreadSwitch, r.vclockOvershoot, r.itemPool, r.corePump, r.coreMarginals,
		r.coreCompose, r.pipesTeeMerge, r.shardLink, r.netpipeCodec, r.netpipeLanes,
		r.remoteRTT, r.graphDeploy, r.qosTenant,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// uthreadSwitch: Call/Reply ping-pong between two threads, wall / 2 per
// round (the E7 method).
func (r *rungs) uthreadSwitch() error {
	rounds := r.n(60000)
	v, err := r.med(func() (float64, error) {
		s := realScheduler()
		const ping = uthread.KindUserBase + 100
		server := s.Spawn("server", uthread.PriorityNormal, func(t *uthread.Thread, m uthread.Message) uthread.Disposition {
			if m.Kind != ping {
				return uthread.Terminate
			}
			t.Reply(m, nil)
			return uthread.Continue
		})
		var elapsed time.Duration
		client := s.Spawn("client", uthread.PriorityNormal, func(t *uthread.Thread, _ uthread.Message) uthread.Disposition {
			start := time.Now()
			for i := 0; i < rounds; i++ {
				t.Call(server, uthread.Message{Kind: ping})
			}
			elapsed = time.Since(start)
			t.Send(server, uthread.Message{Kind: ping + 1})
			return uthread.Terminate
		})
		s.Post(client, uthread.Message{Kind: ping})
		if err := s.Run(); err != nil {
			return 0, err
		}
		return float64(elapsed) / float64(2*rounds), nil
	})
	r.out.set("uthread.switch_ns", v, "ns")
	return err
}

// vclockOvershoot: how late Real.WaitUntil(now+1ms) returns.
func (r *rungs) vclockOvershoot() error {
	n := r.n(300)
	over := make([]int64, 0, n)
	wake := make(chan struct{})
	for i := 0; i < n; i++ {
		deadline := time.Now().Add(time.Millisecond)
		vclock.Real{}.WaitUntil(deadline, wake)
		over = append(over, int64(time.Since(deadline)))
	}
	slices.Sort(over)
	r.out.set("vclock.real_wait_overshoot_p50_us", us(percentile(over, 0.5)), "us")
	r.out.set("vclock.real_wait_overshoot_p99_us", us(percentile(over, 0.99)), "us")
	return nil
}

// mallocsDuring reports the heap allocations fn makes.
func mallocsDuring(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

func (r *rungs) itemPool() error {
	n := r.n(3000000)
	var allocs uint64
	v, err := r.med(func() (float64, error) {
		now := time.Now()
		var elapsed time.Duration
		allocs = mallocsDuring(func() {
			start := time.Now()
			for i := 0; i < n; i++ {
				item.New(nil, int64(i), now).Recycle()
			}
			elapsed = time.Since(start)
		})
		return float64(elapsed) / float64(n), nil
	})
	r.out.set("item.new_recycle_ns", v, "ns")
	r.out.set("item.new_recycle_allocs", float64(allocs)/float64(n), "count")
	return err
}

// corePump: source -> free pump -> null sink, wall / items.
func (r *rungs) corePump() error {
	n := r.n(150000)
	v, err := r.med(func() (float64, error) {
		d, err := runChain(append(counterHead(n), nullTail()...))
		return float64(d) / float64(n), err
	})
	r.out.set("core.pump_cycle_ns", v, "ns")
	return err
}

func (r *rungs) coreMarginals() error {
	n := r.n(60000)
	base := func() []core.Stage { return append(counterHead(n), nullTail()...) }

	const extra = 16
	probes := func(k int) func() []core.Stage {
		return func() []core.Stage {
			st := counterHead(n)
			for i := 0; i < k; i++ {
				st = append(st, core.Comp(pipes.NewCountingProbe(fmt.Sprintf("probe%d", i))))
			}
			return append(st, nullTail()...)
		}
	}
	v, err := r.marginal(n, extra, probes(1), probes(1+extra))
	if err != nil {
		return err
	}
	r.out.set("core.direct_call_ns", v, "ns")

	v, err = r.marginal(n, 1, base, func() []core.Stage {
		return append(append(counterHead(n), core.Comp(newRelay("relay"))), nullTail()...)
	})
	if err != nil {
		return err
	}
	r.out.set("core.coroutine_hop_ns", v, "ns")

	v, err = r.marginal(n, 1, base, func() []core.Stage {
		return append(counterHead(n),
			core.Pmp(pipes.NewFreePump("pump0")),
			core.Buf(pipes.NewBuffer("buf", 64)),
			core.Pmp(pipes.NewFreePump("pump")),
			core.Comp(pipes.NullSink("sink")))
	})
	r.out.set("pipes.buffer_handoff_ns", v, "ns")
	return err
}

// coreCompose: Compose of the chain_local stage list.  The composed
// threads never start; stopping the scheduler and running it joins them.
func (r *rungs) coreCompose() error {
	n := r.n(300)
	v, err := r.med(func() (float64, error) {
		var total time.Duration
		for i := 0; i < n; i++ {
			t := &trial{gen: r.gen, items: 1, or: newOracle("sink", 1)}
			stages := chainStages(t)
			s := realScheduler()
			start := time.Now()
			_, err := core.Compose("chain", s, nil, stages)
			total += time.Since(start)
			if err != nil {
				return 0, err
			}
			s.Stop()
			if err := s.Run(); err != nil {
				return 0, err
			}
		}
		return us(int64(total)) / float64(n), nil
	})
	r.out.set("core.compose_us", v, "us")
	return err
}

// deployFanout deploys the fan-out graph with a null sink on target and
// runs it to the end; it returns the Deploy time and the stream's wall time.
func (r *rungs) deployFanout(n int, mk func() (graph.Target, func() error)) (deploy, wall time.Duration, err error) {
	t := &trial{gen: r.gen, items: int64(n)}
	g := fanoutGraph(t, pipes.NullSink("sink"), -1)
	target, run := mk()
	start := time.Now()
	d, err := g.Deploy(target)
	deploy = time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	start = time.Now()
	d.Start()
	if err := run(); err != nil {
		return 0, 0, err
	}
	if err := d.Wait(); err != nil {
		return 0, 0, err
	}
	return deploy, time.Since(start), nil
}

func onScheduler(tn *qos.Tenant) func() (graph.Target, func() error) {
	return func() (graph.Target, func() error) {
		s := realScheduler()
		target := graph.OnScheduler(s)
		if tn != nil {
			target = target.WithTenant(tn)
		}
		return target, s.Run
	}
}

// pipesTeeMerge: the fan-out graph on ONE scheduler against a straight
// chain doing the same spin work, per item.
func (r *rungs) pipesTeeMerge() error {
	n := r.n(40000)
	gen := r.gen
	v, err := r.med(func() (float64, error) {
		_, split, err := r.deployFanout(n, onScheduler(nil))
		if err != nil {
			return 0, err
		}
		straight, err := runChain([]core.Stage{
			core.Comp(wordSource("src", gen, int64(n))),
			core.Comp(pipes.NewFuncFilter("work", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
				it.Payload = gen.spin(it.Payload.(int64), spinRounds)
				return it, nil
			})),
			core.Pmp(pipes.NewFreePump("pump")),
			core.Comp(pipes.NullSink("sink")),
		})
		return float64(split-straight) / float64(n), err
	})
	r.out.set("pipes.tee_merge_ns", v, "ns")
	return err
}

// shardLink: saturated producer on shard 0, consumer on shard 1, one Link.
func (r *rungs) shardLink() error {
	n := r.n(80000)
	for _, depth := range []int{16, 64, 256} {
		v, err := r.med(func() (float64, error) {
			grp := shard.NewGroup(shard.WithShardCount(2), shard.WithRealClock())
			link := shard.NewLink("lane", grp.Scheduler(1), depth)
			prod, err := core.Compose("producer", grp.Scheduler(0), nil, append(append(counterHead(n),
				core.Pmp(pipes.NewFreePump("pump"))), link.SenderStages("lane")...))
			if err != nil {
				return 0, err
			}
			if _, err := core.Compose("consumer", grp.Scheduler(1), prod.Bus(),
				append(link.ReceiverStages("lane"), nullTail()...)); err != nil {
				return 0, err
			}
			start := time.Now()
			prod.Start()
			if err := grp.Run(); err != nil {
				return 0, err
			}
			wall := time.Since(start)
			if link.Moved() != int64(n) {
				return 0, fmt.Errorf("shard link d=%d moved %d of %d items", depth, link.Moved(), n)
			}
			return float64(wall) / float64(n), nil
		})
		if err != nil {
			return err
		}
		r.out.set(fmt.Sprintf("shard.link_item_ns_d%d", depth), v, "ns")
	}
	return nil
}

// netpipeCodec: BinaryMarshaller round trips of an 8-byte and a 4 KiB
// payload.
func (r *rungs) netpipeCodec() error {
	for _, c := range []struct {
		size   int
		suffix string
		n      int
	}{{smallBytes, "", r.n(300000)}, {frameBytes, "_4k", r.n(100000)}} {
		m := netpipe.NewBinaryMarshaller()
		src := item.New(r.gen.frame(1, c.size), 1, time.Now()).WithSize(c.size)
		var frame []byte
		var marAllocs, unmAllocs uint64 // of the last repetition each
		mar, err := r.med(func() (float64, error) {
			var err error
			var elapsed time.Duration
			marAllocs = mallocsDuring(func() {
				start := time.Now()
				for i := 0; i < c.n && err == nil; i++ {
					frame, err = m.Marshal(src)
				}
				elapsed = time.Since(start)
			})
			return float64(elapsed) / float64(c.n), err
		})
		if err != nil {
			return err
		}
		unm, err := r.med(func() (float64, error) {
			var err error
			var elapsed time.Duration
			unmAllocs = mallocsDuring(func() {
				start := time.Now()
				for i := 0; i < c.n && err == nil; i++ {
					var it *item.Item
					if it, err = m.Unmarshal(frame); err == nil {
						it.Recycle()
					}
				}
				elapsed = time.Since(start)
			})
			return float64(elapsed) / float64(c.n), err
		})
		if err != nil {
			return err
		}
		r.out.set("netpipe.marshal"+c.suffix+"_ns", mar, "ns")
		r.out.set("netpipe.unmarshal"+c.suffix+"_ns", unm, "ns")
		if c.size == smallBytes {
			r.out.set("netpipe.codec_allocs_per_item", float64(marAllocs+unmAllocs)/float64(c.n), "count")
			r.out.set("netpipe.frame_bytes", float64(len(frame)), "bytes")
		}
	}
	return nil
}

// lanePair runs n items of size bytes over one raw TCPLink pair between two
// schedulers — no graph, no remote — and returns the wall time.
func (r *rungs) lanePair(n, size int, durable bool) (time.Duration, error) {
	txS, rxS := realScheduler(), realScheduler()
	rx, tx, err := tcpPair(rxS, durable, func(_ string, fn func() error) error { return fn() })
	if err != nil {
		return 0, err
	}
	defer rx.Close()
	defer tx.Close()
	bus := &events.Bus{}
	prod, err := core.Compose("producer", txS, bus, append([]core.Stage{
		core.Comp(frameSource("src", r.gen, int64(n), size)),
		core.Pmp(pipes.NewFreePump("pump")),
	}, tx.SenderStages("lane")...))
	if err != nil {
		return 0, err
	}
	var got int64
	if _, err := core.Compose("consumer", rxS, bus, append(rx.ReceiverStages("lane"),
		core.Pmp(pipes.NewFreePump("pump2")),
		core.Comp(pipes.NewFuncSink("sink", func(_ *core.Ctx, it *item.Item) error {
			got++
			it.Recycle()
			return nil
		})))); err != nil {
		return 0, err
	}
	txDone := txS.RunBackground()
	start := time.Now()
	prod.Start()
	if err := rxS.Run(); err != nil {
		return 0, err
	}
	wall := time.Since(start)
	if err := <-txDone; err != nil {
		return 0, err
	}
	if got != int64(n) {
		return 0, fmt.Errorf("lane pair (durable=%v) delivered %d of %d items", durable, got, n)
	}
	return wall, nil
}

func (r *rungs) netpipeLanes() error {
	n := r.n(50000)
	plain, err := r.med(func() (float64, error) {
		d, err := r.lanePair(n, smallBytes, false)
		return float64(d) / float64(n), err
	})
	if err != nil {
		return err
	}
	dur, err := r.med(func() (float64, error) {
		d, err := r.lanePair(n, smallBytes, true)
		return float64(d) / float64(n), err
	})
	if err != nil {
		return err
	}
	n4k := r.n(20000)
	mb, err := r.med(func() (float64, error) {
		d, err := r.lanePair(n4k, frameBytes, false)
		return float64(n4k) * frameBytes / 1e6 / d.Seconds(), err
	})
	r.out.set("netpipe.lane_plain_item_ns", plain, "ns")
	r.out.set("netpipe.lane_durable_item_ns", dur, "ns")
	r.out.set("netpipe.durable_overhead_pct", (dur-plain)/plain*100, "%")
	r.out.set("netpipe.lane_plain_4k_mb_per_s", mb, "MB/s")
	return err
}

// remoteRTT: one control round trip, and the composition of a three-stage
// segment through the control protocol.
func (r *rungs) remoteRTT() error {
	t := &trial{gen: r.gen, items: 1, w: &workload{name: "rung"}, or: newOracle("sink", 1)}
	nodes, err := startNodes(t, 1, laneCatalog(t, smallBytes))
	if err != nil {
		return err
	}
	defer closeNodes(nodes)
	c := nodes[0].client
	pings := r.n(1000)
	ping, err := r.med(func() (float64, error) {
		start := time.Now()
		for i := 0; i < pings; i++ {
			if _, err := c.Ping(); err != nil {
				return 0, err
			}
		}
		return us(int64(time.Since(start))) / float64(pings), nil
	})
	if err != nil {
		return err
	}
	composes, serial := r.n(200), 0
	comp, err := r.med(func() (float64, error) {
		start := time.Now()
		for i := 0; i < composes; i++ {
			serial++
			if err := c.ComposeSegment(fmt.Sprintf("seg%d", serial), []remote.StageSpec{
				{Kind: "src", Name: "src"}, {Kind: "fpump", Name: "pump"}, {Kind: "sink", Name: "sink"},
			}); err != nil {
				return 0, err
			}
		}
		return us(int64(time.Since(start))) / float64(composes), nil
	})
	r.out.set("remote.ping_rtt_us", ping, "us")
	r.out.set("remote.compose_rtt_us", comp, "us")
	return err
}

// graphDeploy: Deploy() of the fan-out graph per target, and one Stats()
// snapshot of the running 2-shard deployment.
func (r *rungs) graphDeploy() error {
	n := r.n(20000)
	v, err := r.med(func() (float64, error) {
		d, _, err := r.deployFanout(n, onScheduler(nil))
		return us(int64(d)), err
	})
	if err != nil {
		return err
	}
	r.out.set("graph.deploy_scheduler_us", v, "us")

	var statsUs []float64
	v, err = r.med(func() (float64, error) {
		t := &trial{gen: r.gen, items: int64(n)}
		g := fanoutGraph(t, pipes.NullSink("sink"), 1)
		grp := shard.NewGroup(shard.WithShardCount(2), shard.WithRealClock())
		start := time.Now()
		d, err := g.Deploy(graph.OnGroup(grp))
		deploy := time.Since(start)
		if err != nil {
			return 0, err
		}
		d.Start()
		grp.Start()
		for i := 0; i < 20; i++ {
			start := time.Now()
			d.Stats()
			statsUs = append(statsUs, us(int64(time.Since(start))))
		}
		if err := grp.Wait(); err != nil {
			return 0, err
		}
		return us(int64(deploy)), d.Wait()
	})
	if err != nil {
		return err
	}
	r.out.set("graph.deploy_group_us", v, "us")
	r.out.set("graph.stats_us", median(statsUs), "us")

	v, err = r.med(func() (float64, error) {
		t := &trial{gen: r.gen, items: int64(n), w: &workload{name: "rung"}, or: newOracle("sink", int64(n))}
		t.or.verify = frameVerifier(r.gen, smallBytes)
		nodes, err := startNodes(t, 2, laneCatalog(t, smallBytes))
		if err != nil {
			return 0, err
		}
		defer closeNodes(nodes)
		start := time.Now()
		d, err := laneGraph(t).Deploy(graph.OnNodes(nodes[0].client, nodes[1].client).WithClusterLanes())
		deploy := time.Since(start)
		if err != nil {
			return 0, err
		}
		d.Start()
		return float64(deploy) / 1e6, d.Wait()
	})
	r.out.set("graph.deploy_nodes_ms", v, "ms")
	return err
}

// qosTenant: the fan-out graph on one scheduler with one weight-1 tenant
// against none.
func (r *rungs) qosTenant() error {
	n := r.n(40000)
	v, err := r.med(func() (float64, error) {
		_, base, err := r.deployFanout(n, onScheduler(nil))
		if err != nil {
			return 0, err
		}
		_, solo, err := r.deployFanout(n, onScheduler(qos.NewTenant("solo")))
		return float64(solo-base) / float64(base) * 100, err
	})
	r.out.set("qos.tenant_overhead_pct", v, "%")
	return err
}
