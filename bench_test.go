// Benchmarks regenerating the paper's quantitative claims (see
// EXPERIMENTS.md for the experiment index and recorded results).  Absolute
// numbers depend on the host; the shapes — who wins and by roughly what
// factor — are the reproduction targets.  Per-rung costs (switch, direct
// call, buffer handoff, codec) are bench/'s: `bash bench/run.sh --trace 1`.
package infopipes_test

import (
	"fmt"
	"testing"

	"infopipes"
	"infopipes/internal/experiments"
)

// BenchmarkFig9Configs composes and runs each of the eight Figure 9
// pipelines, reporting the allocated coroutine-set sizes as metrics.
func BenchmarkFig9Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9Table()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.SetSize), "set/"+r.Config)
			}
		}
	}
}

// BenchmarkActivityStyles runs the defragmenter in each §3.3 style and
// mode: equal throughput for direct placements, and the glue overhead for
// wrapped ones.
func BenchmarkActivityStyles(b *testing.B) {
	styles := []struct {
		name string
		mk   func() infopipes.Component
	}{
		{"consumer", func() infopipes.Component { return infopipes.NewDefragConsumer("defrag", nil) }},
		{"producer", func() infopipes.Component { return infopipes.NewDefragProducer("defrag", nil) }},
		{"active", func() infopipes.Component { return infopipes.NewDefragActive("defrag", nil) }},
	}
	for _, mode := range []string{"push", "pull"} {
		for _, st := range styles {
			b.Run(mode+"/"+st.name, func(b *testing.B) {
				b.ReportAllocs()
				n := int64(b.N)
				sched := infopipes.NewScheduler()
				sink := infopipes.NewCollectSink("sink")
				var stages []infopipes.Stage
				if mode == "push" {
					stages = []infopipes.Stage{
						infopipes.Comp(infopipes.NewCounterSource("src", 2*n)),
						infopipes.Pmp(infopipes.NewFreePump("pump")),
						infopipes.Comp(st.mk()),
						infopipes.Comp(sink),
					}
				} else {
					stages = []infopipes.Stage{
						infopipes.Comp(infopipes.NewCounterSource("src", 2*n)),
						infopipes.Comp(st.mk()),
						infopipes.Pmp(infopipes.NewFreePump("pump")),
						infopipes.Comp(sink),
					}
				}
				p, err := infopipes.Compose("bench", sched, nil, stages)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				p.Start()
				if err := sched.Run(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if got := sink.Count(); int64(got) != n {
					b.Fatalf("sink received %d, want %d", got, n)
				}
			})
		}
	}
}

// BenchmarkMIDIMixer is the E8 ablation: minimal allocation vs a coroutine
// per component, over pipelines of increasing length.
func BenchmarkMIDIMixer(b *testing.B) {
	for _, stages := range []int{2, 4, 8, 16} {
		for _, alloc := range []string{"minimal", "percomponent"} {
			b.Run(fmt.Sprintf("stages=%d/%s", stages, alloc), func(b *testing.B) {
				count := int64(b.N)
				var res experiments.AblationResult
				var other experiments.AblationResult
				var err error
				if alloc == "minimal" {
					res, other, err = experiments.MIDIAblation(count, stages)
					_ = other
				} else {
					other, res, err = experiments.MIDIAblation(count, stages)
					_ = other
				}
				if err != nil {
					b.Fatal(err)
				}
				if res.Events != count {
					b.Fatalf("events = %d, want %d", res.Events, count)
				}
				perEvent := float64(res.Wall.Nanoseconds()) / float64(count)
				b.ReportMetric(perEvent, "ns/event")
				b.ReportMetric(float64(res.Switches)/float64(count), "switches/event")
				b.ReportMetric(float64(res.Hops)/float64(count), "hops/event")
			})
		}
	}
}

// BenchmarkFig1Pipeline runs the full Figure 1 pipeline (source to display
// over the congested simnet with feedback) once per iteration.
func BenchmarkFig1Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, ctl, err := experiments.DroppingComparison(120, 100_000, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(ctl.Displayed), "frames-displayed")
		}
	}
}

// BenchmarkControlledVsNetworkDropping reports the E9 quality comparison
// as benchmark metrics: displayed frames and undecodable counts per arm.
func BenchmarkControlledVsNetworkDropping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		un, ctl, err := experiments.DroppingComparison(300, 100_000, 42)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(un.Displayed), "displayed-network")
			b.ReportMetric(float64(ctl.Displayed), "displayed-feedback")
			b.ReportMetric(float64(un.Undecodable), "undecodable-network")
			b.ReportMetric(float64(ctl.Undecodable), "undecodable-feedback")
		}
	}
}

// BenchmarkJitterSmoothing reports display jitter with and without the
// §2.1 jitter buffer (E10).
func BenchmarkJitterSmoothing(b *testing.B) {
	for _, depth := range []int{0, 4, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.JitterSweep(120, []int{depth})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(rows[0].OutputJitterMs, "jitter-ms")
				}
			}
		})
	}
}

// BenchmarkPumpOverhead measures the per-cycle cost of an idle-rate pump
// (E12 supporting measurement).
func BenchmarkPumpOverhead(b *testing.B) {
	sched := infopipes.NewScheduler()
	sink := infopipes.NewCollectSink("sink")
	p, err := infopipes.Compose("pump-bench", sched, nil, []infopipes.Stage{
		infopipes.Comp(infopipes.NewCounterSource("src", int64(b.N))),
		infopipes.Pmp(infopipes.NewFreePump("pump")),
		infopipes.Comp(sink),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	p.Start()
	if err := sched.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if sink.Count() != b.N {
		b.Fatalf("sink received %d, want %d", sink.Count(), b.N)
	}
}
