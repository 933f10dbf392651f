// Command ipbench regenerates the paper-reproduction tables recorded in
// EXPERIMENTS.md — the Figure 9 allocation table, the §4 context-switch
// versus function-call costs, the MIDI small-item ablation, the §2.1
// controlled-versus-network dropping comparison, the buffer jitter sweep
// and the §3.1 pump-class behaviours (E6–E15) — and runs the two
// performance-ratio gates no bench/ workload shows yet: rebalance (E21) and
// elastic (E26 scale-out).  Every other number the repository reports comes
// from `bash bench/run.sh` (see bench/README.md).
//
// Usage:
//
//	ipbench [fig9|switches|midi|dropping|jitter|pumps|rebalance|elastic|all]
//
// It takes a verb and nothing else; GOMAXPROCS in the environment sets the
// core count.  rebalance exits non-zero below a 1.10x items/s gain, elastic
// below 1.3x or when the scaled trace differs from the folded one.
package main

import (
	"fmt"
	"os"

	"infopipes/internal/experiments"
)

func main() {
	which := "all"
	if len(os.Args) > 1 {
		which = os.Args[1]
	}
	runners := map[string]func() error{
		"fig9":      fig9,
		"switches":  switches,
		"midi":      midi,
		"dropping":  dropping,
		"jitter":    jitter,
		"pumps":     pumps,
		"rebalance": rebalanceSkew,
		"elastic":   scaleOut,
	}
	order := []string{"fig9", "switches", "midi", "dropping", "jitter", "pumps", "rebalance", "elastic"}
	if len(os.Args) > 2 {
		fmt.Fprintf(os.Stderr, "ipbench: takes one experiment name (one of %v or all) and nothing else\n", order)
		os.Exit(2)
	}
	if which != "all" {
		run, ok := runners[which]
		if !ok {
			fmt.Fprintf(os.Stderr, "ipbench: unknown experiment %q (want one of %v or all)\n", which, order)
			os.Exit(2)
		}
		if err := run(); err != nil {
			fmt.Fprintln(os.Stderr, "ipbench:", err)
			os.Exit(1)
		}
		return
	}
	for _, name := range order {
		if err := runners[name](); err != nil {
			fmt.Fprintf(os.Stderr, "ipbench %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func fig9() error {
	rows, err := experiments.Fig9Table()
	if err != nil {
		return err
	}
	fmt.Println("E6 — Figure 9: thread/coroutine allocation per configuration")
	fmt.Printf("%-4s %-42s %8s %8s\n", "cfg", "layout", "set", "paper")
	for _, r := range rows {
		mark := "ok"
		if r.SetSize != r.Want {
			mark = "MISMATCH"
		}
		fmt.Printf("%-4s %-42s %8d %8d  %s\n", r.Config, r.Layout, r.SetSize, r.Want, mark)
	}
	return nil
}

func switches() error {
	sw, call, err := experiments.SwitchVsCall(200_000)
	if err != nil {
		return err
	}
	fmt.Println("E7 — §4: context switch vs direct call")
	fmt.Printf("context switch: %8.0f ns   (paper: ~1 µs)\n", float64(sw.Nanoseconds()))
	fmt.Printf("direct call:    %8.1f ns   (paper: two orders of magnitude less)\n", float64(call.Nanoseconds()))
	fmt.Printf("ratio:          %8.0fx\n", float64(sw.Nanoseconds())/float64(call.Nanoseconds()))
	return nil
}

func midi() error {
	minimal, per, err := experiments.MIDIAblation(100_000, 6)
	if err != nil {
		return err
	}
	if minimal.Checksum != per.Checksum {
		return fmt.Errorf("checksum mismatch: allocations changed results")
	}
	fmt.Println("E8 — §4: MIDI mixer, minimal allocation vs coroutine-per-component")
	fmt.Printf("%-23s %10s %12s %12s %12s\n", "allocation", "events", "switches", "hops", "events/ms")
	rate := func(r experiments.AblationResult) float64 {
		ms := float64(r.Wall.Microseconds()) / 1e3
		if ms <= 0 {
			return 0
		}
		return float64(r.Events) / ms
	}
	row := func(name string, r experiments.AblationResult) {
		fmt.Printf("%-23s %10d %12d %12d %12.0f\n", name, r.Events, r.Switches, r.Hops, rate(r))
	}
	row("minimal (paper)", minimal)
	row("coroutine-per-component", per)
	fmt.Printf("switch+hop overhead ratio: %.1fx\n",
		float64(per.Switches+per.Hops)/float64(minimal.Switches+minimal.Hops+1))
	return nil
}

func dropping() error {
	un, ctl, err := experiments.DroppingComparison(600, 100_000, 42)
	if err != nil {
		return err
	}
	fmt.Println("E9 — §2.1: feedback-controlled dropping vs arbitrary network dropping")
	fmt.Printf("%-26s %14s %14s\n", "", "network", "feedback")
	row := func(name string, a, b int64) { fmt.Printf("%-26s %14d %14d\n", name, a, b) }
	row("frames displayed", un.Displayed, ctl.Displayed)
	row("  I frames", un.IFrames, ctl.IFrames)
	row("  P frames", un.PFrames, ctl.PFrames)
	row("  B frames", un.BFrames, ctl.BFrames)
	row("undecodable (refs lost)", un.Undecodable, ctl.Undecodable)
	row("dropped in network", un.NetDropped, ctl.NetDropped)
	row("dropped by filter", un.FilterDropped, ctl.FilterDropped)
	return nil
}

func jitter() error {
	rows, err := experiments.JitterSweep(300, []int{0, 1, 2, 4, 8, 16, 32})
	if err != nil {
		return err
	}
	fmt.Println("E10 — §2.1: buffer + clocked pump remove rate fluctuations")
	fmt.Printf("%-8s %18s %18s\n", "depth", "decode jitter (ms)", "display jitter (ms)")
	for _, r := range rows {
		fmt.Printf("%-8d %18.2f %18.3f\n", r.Depth, r.InputJitterMs, r.OutputJitterMs)
	}
	return nil
}

func pumps() error {
	rows, err := experiments.PumpClasses(300)
	if err != nil {
		return err
	}
	fmt.Println("E12 — §3.1: pump classes")
	fmt.Printf("%-14s %12s %12s\n", "class", "target Hz", "measured Hz")
	for _, r := range rows {
		fmt.Printf("%-14s %12.1f %12.1f\n", r.Class, r.TargetRate, r.MeasuredRate)
	}
	return nil
}

func rebalanceSkew() error {
	// spin=4000 makes each chain work-bound, so what spreading buys is
	// parallel cores, not the switches a shared shard costs.
	const items, spin, chains, shards = 60_000, 4000, 4, 4
	before, after, err := experiments.RebalanceSkew(items, spin, chains, shards)
	if err != nil {
		return err
	}
	fmt.Printf("E21 — live rebalance: %d items, spin=%d, %d chains skewed onto shard 0 of %d\n",
		items, spin, chains, shards)
	fmt.Printf("%-26s %10s %12s %14s %12s %8s\n", "phase", "items", "wall (ms)", "items/s", "switches", "links")
	for _, r := range []experiments.RebalanceRow{before, after} {
		fmt.Printf("%-26s %10d %12.1f %14.0f %12d %8d\n",
			r.Phase, r.Items, float64(r.Wall.Microseconds())/1e3, r.Throughput, r.Switches, r.Links)
	}
	gain := after.Throughput / before.Throughput
	fmt.Printf("gain: %.2fx items/s after spreading the chains off the hot shard (gate: >= 1.10x)\n", gain)
	if gain < 1.10 {
		return fmt.Errorf("rebalance gain %.2fx below the 1.10x gate", gain)
	}
	return nil
}

func scaleOut() error {
	const items, blockUs = 1200, 500
	rows, gain, err := experiments.ScaleOutGain(items, blockUs*1000)
	if err != nil {
		return err
	}
	fmt.Printf("E26 — elastic scale-out: %d items, work stage blocks %dus/item, 4 shards, best of 3\n",
		items, blockUs)
	fmt.Printf("%-10s %12s %14s\n", "replicas", "wall (ms)", "items/s")
	for _, r := range rows {
		fmt.Printf("%-10d %12.1f %14.0f\n", r.Active, float64(r.Wall.Microseconds())/1e3, r.Throughput)
	}
	fmt.Printf("scale-out gain: %.2fx items/s at 4 active replicas (gate: >= 1.3x)\n", gain)
	fmt.Println("sink traces byte-identical across replica counts: ok")
	if gain < 1.3 {
		return fmt.Errorf("scale-out gain %.2fx below the 1.3x gate", gain)
	}
	return nil
}
