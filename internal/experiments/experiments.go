// Package experiments implements the reproduction harness: one function
// per paper artifact (figure, table or quantitative claim), returning the
// rows that EXPERIMENTS.md records, plus the drivers of the two ratio gates
// (E21 rebalance, E26 scale-out) that have no bench/ workload yet.  The
// cmd/ipbench tool prints them and the top-level benchmarks measure them;
// keeping the logic here ensures both report the same experiment.
package experiments

import (
	"fmt"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/feedback"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/media"
	"infopipes/internal/netpipe"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

func init() {
	netpipe.RegisterPayload(&media.Frame{})
	netpipe.RegisterPayload(int64(0))
}

// ---------------------------------------------------------------- E6: Fig 9

// Fig9Row is one line of the Figure 9 allocation table.
type Fig9Row struct {
	Config  string // a..h
	Layout  string // e.g. "src producer [pump] consumer sink"
	SetSize int    // measured coroutine-set size
	Want    int    // the paper's §4 number
}

// fig9Component builds the defragmenter in the requested style (the same
// component the paper's figures use).
func fig9Component(name string, style core.Style) core.Component {
	switch style {
	case core.StyleConsumer:
		return pipes.NewDefragConsumer(name, nil)
	case core.StyleProducer:
		return pipes.NewDefragProducer(name, nil)
	case core.StyleActive:
		return pipes.NewDefragActive(name, nil)
	default:
		return pipes.NewFuncFilter(name, func(_ *core.Ctx, it *item.Item) (*item.Item, error) { return it, nil })
	}
}

// Fig9Table composes the eight §3.3/Fig 9 pipelines and reports the
// middleware's thread/coroutine allocation for each.
func Fig9Table() ([]Fig9Row, error) {
	type cfg struct {
		name       string
		beforePump []core.Style // components upstream of the pump
		afterPump  []core.Style // components downstream of the pump
		want       int
	}
	cfgs := []cfg{
		{"a", []core.Style{core.StyleProducer}, []core.Style{core.StyleConsumer}, 1},
		{"b", []core.Style{core.StyleFunction}, []core.Style{core.StyleFunction}, 1},
		{"c", nil, []core.Style{core.StyleConsumer, core.StyleConsumer}, 1},
		{"d", []core.Style{core.StyleActive}, []core.Style{core.StyleFunction}, 2},
		{"e", []core.Style{core.StyleConsumer}, []core.Style{core.StyleProducer}, 3},
		{"f", []core.Style{core.StyleActive}, []core.Style{core.StyleActive}, 3},
		{"g", nil, []core.Style{core.StyleConsumer, core.StyleActive}, 2},
		{"h", nil, []core.Style{core.StyleConsumer, core.StyleProducer}, 2},
	}
	rows := make([]Fig9Row, 0, len(cfgs))
	for _, c := range cfgs {
		sched := uthread.New()
		stages := []core.Stage{core.Comp(pipes.NewCounterSource("src", 4))}
		layout := "src"
		for i, st := range c.beforePump {
			stages = append(stages, core.Comp(fig9Component(fmt.Sprintf("m%d", i), st)))
			layout += " " + st.String()
		}
		stages = append(stages, core.Pmp(pipes.NewFreePump("pump")))
		layout += " [pump]"
		for i, st := range c.afterPump {
			stages = append(stages, core.Comp(fig9Component(fmt.Sprintf("n%d", i), st)))
			layout += " " + st.String()
		}
		stages = append(stages, core.Comp(pipes.NewCollectSink("sink")))
		layout += " sink"

		p, err := core.Compose("fig9-"+c.name, sched, nil, stages)
		if err != nil {
			return nil, fmt.Errorf("config %s: %w", c.name, err)
		}
		p.Start()
		if err := sched.Run(); err != nil {
			return nil, fmt.Errorf("config %s run: %w", c.name, err)
		}
		rows = append(rows, Fig9Row{
			Config:  c.name,
			Layout:  layout,
			SetSize: p.Plan().Sections[0].CoroutineSetSize,
			Want:    c.want,
		})
	}
	return rows, nil
}

// ------------------------------------------------- E7: switch vs call cost

// SwitchVsCall measures the cost of a user-level context switch (a
// coroutine handoff round trip divided by its two switches) against a
// direct function call through a pipeline stage, reproducing the shape of
// the §4 claim that a switch costs about a microsecond and a call two orders
// of magnitude less (here: a third of a microsecond, and ≈ 30×).
func SwitchVsCall(rounds int) (switchCost, callCost time.Duration, err error) {
	// Context switch: ping-pong between two threads via Call/Reply.
	s := uthread.New()
	const kindPing uthread.Kind = uthread.KindUserBase + 100
	server := s.Spawn("server", uthread.PriorityNormal, func(t *uthread.Thread, m uthread.Message) uthread.Disposition {
		if m.Kind != kindPing {
			return uthread.Terminate
		}
		t.Reply(m, nil)
		return uthread.Continue
	})
	var elapsed time.Duration
	client := s.Spawn("client", uthread.PriorityNormal, func(t *uthread.Thread, m uthread.Message) uthread.Disposition {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			t.Call(server, uthread.Message{Kind: kindPing})
		}
		elapsed = time.Since(start)
		t.Send(server, uthread.Message{Kind: uthread.KindUserBase + 101})
		return uthread.Terminate
	})
	s.Post(client, uthread.Message{Kind: kindPing})
	if err := s.Run(); err != nil {
		return 0, 0, err
	}
	// Each round is at least two switches (client->server, server->client).
	switchCost = elapsed / time.Duration(2*rounds)

	// Direct call: the marginal cost of one additional direct-called
	// stage, isolated by comparing a pipeline of many probe stages with a
	// pipeline of one — fixed costs (pump cycle, source, sink) cancel.
	const extraStages = 16
	runChain := func(stages int) (time.Duration, error) {
		s := uthread.New()
		n := int64(rounds)
		src := pipes.NewGeneratorSource("src", typespec.Typespec{}, n,
			func(ctx *core.Ctx, seq int64) (*item.Item, error) {
				return item.New(seq, seq, ctx.Now()), nil
			})
		list := []core.Stage{core.Comp(src)}
		for i := 0; i < stages; i++ {
			list = append(list, core.Comp(pipes.NewCountingProbe(fmt.Sprintf("probe%d", i))))
		}
		list = append(list, core.Pmp(pipes.NewFreePump("pump")), core.Comp(pipes.NullSink("sink")))
		p, err := core.Compose("direct", s, nil, list)
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
	// Fastest of three per length: one descheduled run of the short chain
	// would otherwise push the difference to zero or below.
	fastest := func(stages int) (time.Duration, error) {
		best, err := runChain(stages)
		for i := 0; i < 2 && err == nil; i++ {
			var d time.Duration
			if d, err = runChain(stages); d < best {
				best = d
			}
		}
		return best, err
	}
	base, err := fastest(1)
	if err != nil {
		return 0, 0, err
	}
	long, err := fastest(1 + extraStages)
	if err != nil {
		return 0, 0, err
	}
	delta := long - base
	if delta < 0 {
		delta = 0
	}
	callCost = delta / time.Duration(extraStages*rounds)
	return switchCost, callCost, nil
}

// --------------------------------------------- E8: MIDI mixer ablation

// AblationResult is one arm of the minimal-vs-per-component comparison.
// Switches counts the scheduler's context switches between threads, Hops
// the coroutine resumes inside a section's thread: §4 made every coroutine
// a thread, so its switch overhead is the two together.
type AblationResult struct {
	Events   int64
	Switches int64
	Hops     int64
	Wall     time.Duration
	Checksum uint64
}

// MIDIAblation pushes count tiny MIDI events through a pipeline with
// nStages function stages, once with the planner's minimal allocation and
// once with a coroutine forced per component (§4: thread-per-component
// "would introduce a significant context switching overhead" for flows of
// many small items).
func MIDIAblation(count int64, nStages int) (minimal, perComponent AblationResult, err error) {
	run := func(force bool) (AblationResult, error) {
		var res AblationResult
		sched := uthread.New()
		stages := []core.Stage{*media.NewMidiSource("src", 1, 99, count)}
		for i := 0; i < nStages; i++ {
			stages = append(stages, core.Comp(media.NewTranspose(fmt.Sprintf("t%d", i), (i%3)-1)))
		}
		sink := media.NewMidiSink("sink")
		stages = append(stages, core.Pmp(pipes.NewFreePump("pump")), core.Comp(sink))
		var opts []core.ComposeOption
		if force {
			opts = append(opts, core.ForceCoroutines())
		}
		p, err := core.Compose("midi", sched, nil, stages, opts...)
		if err != nil {
			return res, err
		}
		start := time.Now()
		p.Start()
		if err := sched.Run(); err != nil {
			return res, err
		}
		res.Wall = time.Since(start)
		res.Events = sink.Count()
		res.Switches = sched.Stats().Switches
		res.Hops = p.Stats().Hops
		res.Checksum = sink.Checksum()
		return res, nil
	}
	if minimal, err = run(false); err != nil {
		return
	}
	perComponent, err = run(true)
	return
}

// ---------------------------------- E9: controlled vs network dropping

// DropResult is one arm of the dropping comparison.
type DropResult struct {
	Displayed     int64
	IFrames       int64
	PFrames       int64
	BFrames       int64
	Undecodable   int64
	NetDropped    int64
	FilterDropped int64
}

// DroppingComparison runs the Fig 1 pipeline over a congested simulated
// network twice — without and with the feedback-controlled drop filter —
// and reports what reaches the display (§2.1: "this lets us control which
// data is dropped rather than incurring arbitrary dropping in the
// network").
func DroppingComparison(frames int64, bandwidth float64, seed int64) (uncontrolled, controlled DropResult, err error) {
	run := func(withFeedback bool) (DropResult, error) {
		var res DropResult
		sched := uthread.New()
		cfg := media.DefaultVideoConfig()
		cfg.Seed = seed
		source, err := media.NewVideoSource("source", cfg, frames)
		if err != nil {
			return res, err
		}
		drop := pipes.NewDropFilter("filter", media.PriorityDropPolicy)
		link := netpipe.NewSimLink("net", sched, netpipe.SimConfig{
			BandwidthBps: bandwidth,
			PropDelay:    20 * time.Millisecond,
			Jitter:       4 * time.Millisecond,
			QueueBytes:   30_000,
			RxNode:       "consumer",
			Seed:         seed,
		})
		decode := media.NewDecoder("decode", 100*time.Microsecond)
		buf := pipes.NewBufferPolicy("buffer", 16, typespec.NonBlock, typespec.NonBlock)
		display := media.NewDisplay("display")

		producer, err := core.Compose("producer", sched, nil, append([]core.Stage{
			core.Comp(source),
			core.Pmp(pipes.NewClockedPump("pump1", cfg.FPS)),
			core.Comp(drop),
		}, link.SenderStages("net")...))
		if err != nil {
			return res, err
		}
		consumer, err := core.Compose("consumer", sched, producer.Bus(), append(
			link.ReceiverStages("net"),
			core.Comp(decode),
			core.Pmp(pipes.NewFreePump("feedpump")),
			core.Buf(buf),
			core.Pmp(pipes.NewClockedPump("pump2", cfg.FPS)),
			core.Comp(display),
		))
		if err != nil {
			return res, err
		}
		if withFeedback {
			ctl := &feedback.StepController{Low: 0.05, High: 0.5, MaxLevel: 2, DownAfter: 10}
			feedback.NewLoop(sched, producer.Bus(), "feedback", time.Second,
				feedback.SensorFunc(func(time.Time) float64 { return link.QueueFill() }),
				ctl,
				feedback.ActuatorFunc(func(level float64) { drop.SetLevel(int(level)) }),
				feedback.StopOnEOS(),
			)
		}
		producer.Start()
		if err := sched.Run(); err != nil {
			return res, err
		}
		if err := producer.Err(); err != nil {
			return res, err
		}
		if err := consumer.Err(); err != nil {
			return res, err
		}
		_, _, qdrop, _ := link.Stats()
		return DropResult{
			Displayed:     display.Frames(),
			IFrames:       display.FramesByType(media.FrameI),
			PFrames:       display.FramesByType(media.FrameP),
			BFrames:       display.FramesByType(media.FrameB),
			Undecodable:   decode.Undecodable(),
			NetDropped:    qdrop,
			FilterDropped: drop.Dropped(),
		}, nil
	}
	if uncontrolled, err = run(false); err != nil {
		return
	}
	controlled, err = run(true)
	return
}

// ------------------------------------------ E10: buffer jitter smoothing

// JitterRow is one point of the buffer-depth sweep.
type JitterRow struct {
	Depth          int
	InputJitterMs  float64
	OutputJitterMs float64
}

// JitterSweep produces frames whose decode times vary wildly, then plays
// them through a jitter buffer of each depth and a clocked output pump,
// measuring display jitter (§2.1: "they are buffered to reduce jitter").
// Depth 0 omits the buffer (decode jitter reaches the display directly).
func JitterSweep(frames int64, depths []int) ([]JitterRow, error) {
	rows := make([]JitterRow, 0, len(depths))
	for _, depth := range depths {
		sched := uthread.New()
		cfg := media.DefaultVideoConfig()
		cfg.SizeJitter = 0.9 // decode cost follows size: heavy variation
		source, err := media.NewVideoSource("source", cfg, frames)
		if err != nil {
			return nil, err
		}
		decode := media.NewDecoder("decode", 2*time.Millisecond)
		display := media.NewDisplay("display")
		var stages []core.Stage
		if depth > 0 {
			stages = []core.Stage{
				core.Comp(source),
				core.Comp(decode),
				core.Pmp(pipes.NewFreePump("decode-pump")),
				core.Buf(pipes.NewBuffer("buffer", depth)),
				core.Pmp(pipes.NewClockedPump("display-pump", cfg.FPS)),
				core.Comp(display),
			}
		} else {
			stages = []core.Stage{
				core.Comp(source),
				core.Comp(decode),
				core.Pmp(pipes.NewClockedPump("pump", cfg.FPS)),
				core.Comp(display),
			}
		}
		p, err := core.Compose("jitter", sched, nil, stages)
		if err != nil {
			return nil, err
		}
		p.Start()
		if err := sched.Run(); err != nil {
			return nil, err
		}
		// Input jitter: the decode-time variation itself, estimated from
		// the frame size spread (cost = 2ms/KB, sizes vary ±90%).
		rows = append(rows, JitterRow{
			Depth:          depth,
			InputJitterMs:  2.0 * 4.3 * cfg.SizeJitter, // mean KB * cost * variation
			OutputJitterMs: display.Jitter() * 1e3,
		})
	}
	return rows, nil
}

// --------------------------------------------------- E12: pump classes

// PumpRow is one pump-class behaviour check.
type PumpRow struct {
	Class        string
	TargetRate   float64
	MeasuredRate float64
}

// PumpClasses measures the delivery rate of each §3.1 pump family:
// clock-driven holds its configured rate; a free-running pump tracks the
// producing pump through a blocking buffer; an adaptive pump follows a
// rate-change event mid-stream.
func PumpClasses(items int64) ([]PumpRow, error) {
	var rows []PumpRow

	measure := func(name string, target float64, build func(sink *pipes.CollectSink, sched *uthread.Scheduler) (*core.Pipeline, error)) error {
		sched := uthread.New()
		sink := pipes.NewCollectSink("sink")
		p, err := build(sink, sched)
		if err != nil {
			return err
		}
		start := sched.Now()
		p.Start()
		if err := sched.Run(); err != nil {
			return err
		}
		elapsed := sched.Now().Sub(start).Seconds()
		rate := 0.0
		if elapsed > 0 {
			rate = float64(sink.Count()) / elapsed
		}
		rows = append(rows, PumpRow{Class: name, TargetRate: target, MeasuredRate: rate})
		return nil
	}

	// Clock-driven at 50 Hz.
	if err := measure("clock-driven", 50, func(sink *pipes.CollectSink, sched *uthread.Scheduler) (*core.Pipeline, error) {
		return core.Compose("clocked", sched, nil, []core.Stage{
			core.Comp(pipes.NewCounterSource("src", items)),
			core.Pmp(pipes.NewClockedPump("pump", 50)),
			core.Comp(sink),
		})
	}); err != nil {
		return nil, err
	}

	// Free-running behind a 25 Hz producer through a blocking buffer: it
	// must track the producer.
	if err := measure("free-running", 25, func(sink *pipes.CollectSink, sched *uthread.Scheduler) (*core.Pipeline, error) {
		return core.Compose("free", sched, nil, []core.Stage{
			core.Comp(pipes.NewCounterSource("src", items)),
			core.Pmp(pipes.NewClockedPump("producer", 25)),
			core.Buf(pipes.NewBuffer("buf", 4)),
			core.Pmp(pipes.NewFreePump("pump")),
			core.Comp(sink),
		})
	}); err != nil {
		return nil, err
	}

	// Adaptive: starts at 20 Hz, a rate-change event doubles it halfway;
	// the average should land between.
	if err := measure("adaptive", 30, func(sink *pipes.CollectSink, sched *uthread.Scheduler) (*core.Pipeline, error) {
		pump := pipes.NewAdaptivePump("pump", 20)
		p, err := core.Compose("adaptive", sched, nil, []core.Stage{
			core.Comp(pipes.NewCounterSource("src", items)),
			core.Pmp(pump),
			core.Comp(sink),
		})
		if err != nil {
			return nil, err
		}
		// Schedule the rate change as a control event after half the items
		// at the initial 20 Hz rate.
		halfway := time.Duration(float64(items)/2/20) * time.Second
		helper := sched.Spawn("rate-changer", uthread.PriorityNormal,
			func(t *uthread.Thread, m uthread.Message) uthread.Disposition {
				t.SleepFor(halfway)
				p.Bus().Broadcast(events.Event{Type: events.RateChange, Data: 40.0, Target: "pump"})
				return uthread.Terminate
			})
		sched.Post(helper, uthread.Message{Kind: uthread.KindUserBase + 70})
		return p, nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// ------------------------------------------ E21: rebalance under skew

// shardWork is the synthetic per-item CPU cost: spin rounds of xorshift64,
// folded into the payload so the work cannot be optimised away.
func shardWork(seq int64, spin int) int64 {
	x := uint64(seq)*2685821657736338717 + 1
	for i := 0; i < spin; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return int64(x)
}

// RebalanceRow is one phase measurement of the skewed-deployment
// experiment.
type RebalanceRow struct {
	Phase      string
	Items      int64
	Wall       time.Duration
	Throughput float64 // items per second through the probes
	Switches   int64   // uthread context switches during the phase
	Links      int     // auto-inserted shard links at phase end
}

// RebalanceSkew measures live graph rebalancing (ROADMAP work-stealing and
// observability items): a farm of `chains` independent source→work→sink
// chains — declared as ONE graph — is deliberately deployed with every
// chain hinted onto shard 0 of a `shards`-shard real-clock group: the
// classic hot-shard pathology an operator reads straight out of
// Deployment.Stats (all load on one ShardLoad row).  Mid-stream, once half
// the items have drained, Deployment.Rebalance spreads the chains across
// the group — whole-pipeline migration, no links needed — and the phase
// rows report throughput and context-switch cost before and after.  On a
// 1-core host the gain is pure switch elimination (one pump thread per
// scheduler); on a multi-core host real parallelism stacks
// on top.
func RebalanceSkew(items int64, spin, chains, shards int) (before, after RebalanceRow, err error) {
	if chains < 2 || shards < 2 {
		return before, after, fmt.Errorf("rebalance skew: need >=2 chains and shards")
	}
	g := graph.New("skew")
	perChain := items / int64(chains)
	items = perChain * int64(chains)
	work := func(name string) *pipes.FuncFilter {
		return pipes.NewFuncFilter(name, func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
			seq, _ := it.Payload.(int64)
			it.Payload = shardWork(seq, spin)
			return it, nil
		})
	}
	probes := make([]*pipes.CountingProbe, chains)
	segNames := make([]string, chains)
	for i := 0; i < chains; i++ {
		src := fmt.Sprintf("src%d", i)
		pump := fmt.Sprintf("p%d", i)
		w := fmt.Sprintf("w%d", i)
		sink := fmt.Sprintf("sink%d", i)
		probes[i] = pipes.NewCountingProbe(fmt.Sprintf("probe%d", i))
		g.Add(core.Comp(pipes.NewCounterSource(src, perChain)), graph.Place(0))
		g.Add(core.Pmp(pipes.NewFreePump(pump)), graph.Place(0))
		g.Add(core.Comp(work(w)), graph.Place(0))
		g.Add(core.Comp(probes[i]), graph.Place(0))
		g.Add(core.Comp(pipes.NullSink(sink)), graph.Place(0))
		g.Pipe(src, pump, w, probes[i].Name(), sink)
		segNames[i] = src + ">>" + sink
	}

	grp := shard.NewGroup(shard.WithShardCount(shards), shard.WithRealClock())
	d, err := g.Deploy(graph.OnGroup(grp))
	if err != nil {
		return before, after, fmt.Errorf("skewed deploy: %w", err)
	}
	total := func() int64 {
		var n int64
		for _, p := range probes {
			n += p.Items()
		}
		return n
	}
	grp.Start()
	start := time.Now()
	d.Start()

	for total() < items/2 {
		select {
		case <-d.Done():
			// Failure (or impossible early completion) below the halfway
			// mark: report instead of spinning forever.
			if err := d.Err(); err != nil {
				return before, after, fmt.Errorf("deployment failed before rebalance: %w", err)
			}
			return before, after, fmt.Errorf("deployment drained %d items before the rebalance point", total())
		default:
			time.Sleep(200 * time.Microsecond)
		}
	}
	preItems := total()
	preWall := time.Since(start)
	preSwitches := grp.Stats().Switches

	// Work stealing as policy: spread the chains round-robin across the
	// whole group.  Whole pipelines move, so no links are inserted.
	hints := make(map[string]int, chains)
	for i, name := range segNames {
		hints[name] = i % shards
	}
	if err := d.Rebalance(hints); err != nil {
		return before, after, fmt.Errorf("rebalance: %w", err)
	}
	mid := time.Now()
	midItems := total()

	if err := d.Wait(); err != nil {
		return before, after, err
	}
	grp.Stop()
	if err := grp.Wait(); err != nil {
		return before, after, err
	}
	endWall := time.Since(mid)
	if got := total(); got != items {
		return before, after, fmt.Errorf("delivered %d items, want %d", got, items)
	}
	before = RebalanceRow{Phase: "skewed (all on shard 0)", Items: preItems,
		Wall: preWall, Throughput: float64(preItems) / preWall.Seconds(),
		Switches: preSwitches, Links: 0}
	after = RebalanceRow{Phase: "rebalanced (spread)", Items: items - midItems,
		Wall: endWall, Throughput: float64(items-midItems) / endWall.Seconds(),
		Switches: grp.Stats().Switches - preSwitches, Links: len(d.Links())}
	return before, after, nil
}
