// Midimixer is the §4 many-small-items scenario: two MIDI streams merged,
// transposed and mixed down a pipeline of tiny per-item stages.  For such
// flows the paper argues that introducing threads and coroutines only when
// necessary is what keeps the middleware affordable: a context switch costs
// a third of a microsecond here (about one in the paper), a function call
// well over an order of magnitude less.
//
// The example runs the same mixing pipeline twice — once with the planner's
// minimal allocation (all function-style stages run by direct call) and
// once with a coroutine forced per component — and prints the throughput,
// the context switches between threads and the coroutine hops inside them
// of both.
package main

import (
	"fmt"
	"os"
	"time"

	"infopipes"
)

const eventsPerSource = 20_000

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "midimixer:", err)
		os.Exit(1)
	}
}

// mix builds and runs the mixing pipeline, returning events mixed, elapsed
// wall time, context switches plus coroutine hops, and the checksum.
func mix(forceCoroutines bool) (int64, time.Duration, int64, uint64, error) {
	sched := infopipes.NewScheduler()
	merge := infopipes.NewMergeTee("merge", 2, 64, infopipes.Block, infopipes.Block)

	var opts []infopipes.ComposeOption
	if forceCoroutines {
		opts = append(opts, infopipes.ForceCoroutines())
	}

	bus := &infopipes.Bus{}
	var pipes []*infopipes.Pipeline
	for i := 0; i < 2; i++ {
		p, err := infopipes.Compose(fmt.Sprintf("track%d", i), sched, bus, []infopipes.Stage{
			*infopipes.NewMidiSource(fmt.Sprintf("keys%d", i), uint8(i), int64(i+1), eventsPerSource),
			infopipes.Comp(infopipes.NewTranspose(fmt.Sprintf("transpose%d", i), 5*i)),
			infopipes.Pmp(infopipes.NewFreePump(fmt.Sprintf("tpump%d", i))),
			infopipes.Comp(merge.In(i)),
		}, opts...)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		pipes = append(pipes, p)
	}
	sink := infopipes.NewMidiSink("mixout")
	down, err := infopipes.Compose("mixdown", sched, bus, []infopipes.Stage{
		infopipes.Comp(merge.Out()),
		infopipes.Comp(infopipes.NewVelocityScale("gain", 0.8)),
		infopipes.Comp(infopipes.NewTranspose("master", -2)),
		infopipes.Pmp(infopipes.NewFreePump("mixpump")),
		infopipes.Comp(sink),
	}, opts...)
	if err != nil {
		return 0, 0, 0, 0, err
	}

	start := time.Now()
	bus.Broadcast(infopipes.Event{Type: infopipes.EvStart})
	if err := sched.Run(); err != nil {
		return 0, 0, 0, 0, err
	}
	elapsed := time.Since(start)
	switches := sched.Stats().Switches
	for _, p := range append(pipes, down) {
		switches += p.Stats().Hops
	}
	return sink.Count(), elapsed, switches, sink.Checksum(), nil
}

func run() error {
	nMin, tMin, swMin, sumMin, err := mix(false)
	if err != nil {
		return err
	}
	nPer, tPer, swPer, sumPer, err := mix(true)
	if err != nil {
		return err
	}
	if sumMin != sumPer {
		return fmt.Errorf("checksums differ: %d vs %d (allocations changed results!)", sumMin, sumPer)
	}

	fmt.Printf("MIDI mixer: 2 x %d events through merge + 4 stages\n\n", eventsPerSource)
	fmt.Printf("%-26s %12s %14s %12s\n", "allocation", "events", "switches+hops", "events/ms")
	rate := func(n int64, d time.Duration) float64 { return float64(n) / float64(d.Milliseconds()+1) }
	fmt.Printf("%-26s %12d %14d %12.0f\n", "minimal (paper)", nMin, swMin, rate(nMin, tMin))
	fmt.Printf("%-26s %12d %14d %12.0f\n", "coroutine-per-component", nPer, swPer, rate(nPer, tPer))
	fmt.Printf("\nswitch ratio: %.1fx more switches and hops without thread\n", float64(swPer)/float64(swMin+1))
	fmt.Printf("transparency's minimal allocation (results identical: checksum %d)\n", sumMin)
	return nil
}
