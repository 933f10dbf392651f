package experiments

// E26 — replica scale-out gain: scaling a blocking stage to 4 replicas
// behind the auto-inserted route-split must buy real throughput (ipbench
// elastic fails below 1.3x items/s over 1 active replica) and leave the
// sink trace byte-identical.

import (
	"fmt"
	"strconv"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
)

// ScaleRow is one replica configuration's throughput measurement.
type ScaleRow struct {
	Active     int
	Items      int64
	Wall       time.Duration
	Throughput float64
}

// ScaleOutGain measures what replica scale-out buys a blocking stage: the
// same chain — counter source, free pump, probe, a work stage that blocks
// `block` per item, collect sink — deployed on a 4-shard group, scaled to 4
// declared replicas spread over the shards, and run once folded to 1 active
// replica and once at 4.  The work stage models a latency-bound step (a
// remote call, a device wait): while one replica blocks, the elastic tee
// keeps feeding the others, so the gain shows up even on a single core —
// replica scale-out hides latency, it does not need parallel CPUs.  The
// ordered merge reconstructs trunk order, so both runs' sink traces must be
// byte-identical; returns both rows and the 4-replica gain.
func ScaleOutGain(items int64, block time.Duration) (rows []ScaleRow, gain float64, err error) {
	run := func(active int) (ScaleRow, string, error) {
		g := graph.New("scaleout")
		g.Add(core.Comp(pipes.NewCounterSource("src", items)))
		g.Add(core.Pmp(pipes.NewFreePump("pump")))
		g.Add(core.Comp(pipes.NewCountingProbe("pre")))
		g.Add(core.Comp(pipes.NewFuncFilter("work", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
			time.Sleep(block)
			return it, nil
		})))
		sink := pipes.NewCollectSink("sink")
		g.Add(core.Comp(sink))
		g.Pipe("src", "pump", "pre", "work", "sink")
		grp := shard.NewGroup(shard.WithShardCount(4))
		d, err := g.Deploy(graph.OnGroup(grp))
		if err != nil {
			return ScaleRow{}, "", fmt.Errorf("deploy: %w", err)
		}
		start := time.Now()
		grp.Start()
		d.Start()
		err = d.Edit(graph.ScaleStage{
			Node: "work", Replicas: 4, Places: []int{0, 1, 2, 3},
			Build: func(i int) (core.Stage, error) {
				return core.Comp(pipes.NewFuncFilter(fmt.Sprintf("work#%d", i),
					func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
						time.Sleep(block)
						return it, nil
					})), nil
			},
		})
		if err != nil {
			return ScaleRow{}, "", fmt.Errorf("scale edit: %w", err)
		}
		if active != 4 {
			if _, err := d.SetReplicas("work", active); err != nil {
				return ScaleRow{}, "", fmt.Errorf("fold to %d: %w", active, err)
			}
		}
		if err := d.Wait(); err != nil {
			return ScaleRow{}, "", fmt.Errorf("wait: %w", err)
		}
		if err := grp.Wait(); err != nil {
			return ScaleRow{}, "", fmt.Errorf("group wait: %w", err)
		}
		wall := time.Since(start)
		got := sink.Items()
		if int64(len(got)) != items {
			return ScaleRow{}, "", fmt.Errorf("%d active: delivered %d items, want %d", active, len(got), items)
		}
		var trace string
		for _, it := range got {
			trace += strconv.FormatInt(it.Seq, 10) + "|"
		}
		return ScaleRow{Active: active, Items: items, Wall: wall,
			Throughput: float64(items) / wall.Seconds()}, trace, nil
	}
	// Best of three per config: the folded run's wall is dominated by the
	// block duration, but scheduler jitter still moves single draws.
	best := func(active int) (ScaleRow, string, error) {
		var b ScaleRow
		var trace string
		for i := 0; i < 3; i++ {
			r, tr, err := run(active)
			if err != nil {
				return ScaleRow{}, "", err
			}
			if i == 0 || r.Throughput > b.Throughput {
				b, trace = r, tr
			}
		}
		return b, trace, nil
	}
	folded, refTrace, err := best(1)
	if err != nil {
		return nil, 0, err
	}
	scaled, scaledTrace, err := best(4)
	if err != nil {
		return nil, 0, err
	}
	if scaledTrace != refTrace {
		return nil, 0, fmt.Errorf("scaled trace diverged from the folded run: the merge leaked reordering")
	}
	return []ScaleRow{folded, scaled}, scaled.Throughput / folded.Throughput, nil
}
